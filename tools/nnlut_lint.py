#!/usr/bin/env python3
"""Determinism-contract lint for the NN-LUT serving stack.

The repo's contract (docs/ARCHITECTURE.md, "The determinism contract") says
served logits are bit-identical across batch size, thread count, SIMD tier,
and buffer pools on/off. Most ways to break that contract are textually
recognizable long before a parity suite catches them at runtime; this tool
rejects them at CI time. Rules (full table in docs/STATIC_ANALYSIS.md):

  no-rand             rand()/srand()/std::random_device//dev/urandom in src/
                      (all randomness flows through the fixed-seed
                      numerics/rng.h generator).
  no-wallclock        wall-clock or monotonic clock reads outside the
                      manifest's `wallclock_allowed` prefixes (serving
                      latency accounting only — results never carry time).
  no-unordered-iter   iteration over a std::unordered_* container (the
                      visit order is implementation-defined and must never
                      feed an output path). `// lint:allow unordered-iter`
                      on or above the line opts a proven-order-independent
                      loop out.
  no-fp-contract      FP contraction hazards: `#pragma STDC FP_CONTRACT`
                      overrides in C++, -ffast-math family flags in CMake,
                      and a missing project-wide -ffp-contract=off.
  simd-literal-parity float literals in a SIMD-tier TU that appear neither
                      in its shared detail header nor in the manifest
                      allowlist — divergent constants between tiers are
                      exactly how tiers stop being bit-identical.
  no-hot-alloc        allocation keywords (new/malloc/push_back/resize/...)
                      in manifest-tagged hot-path files (the zero-allocation
                      steady state of PR 6). `// lint:allow hot-alloc`
                      escapes a proven cold path.
  raw-sync-primitive  raw std::mutex / std::lock_guard / ... anywhere but
                      core/thread_annotations.h: all synchronization goes
                      through the annotated wrappers so Clang's
                      -Wthread-safety analysis can see the lock discipline.

Usage:
  tools/nnlut_lint.py                      # manifest default paths (src/ +
                                           # CMakeLists.txt), repo-rooted
  tools/nnlut_lint.py src/serve            # explicit paths
  tools/nnlut_lint.py --self-test          # fixture corpus + HEAD must pass
Exit status: 0 clean, 1 findings, 2 usage/manifest error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_MANIFEST = REPO_ROOT / "tools" / "lint_manifest.json"
FIXTURE_DIR = REPO_ROOT / "tests" / "lint_fixtures"

CPP_EXTS = {".h", ".hpp", ".cpp", ".cc", ".cxx"}

ALLOW_RE = re.compile(r"//\s*lint:allow\s+([\w-]+)")


class Manifest:
    """Rule configuration. All paths are relative to `root` (the directory
    the manifest's `root` entry names, itself relative to the manifest
    file), normalized to forward slashes."""

    def __init__(self, data: dict, manifest_path: Path):
        self.root = (manifest_path.parent / data.get("root", ".")).resolve()
        self.default_paths = data.get("default_paths", ["src"])
        self.wallclock_allowed = data.get("wallclock_allowed", [])
        self.hot_path = set(data.get("hot_path", []))
        self.simd_tier_pairs = data.get("simd_tier_pairs", {})
        self.simd_literal_allow = set(data.get("simd_literal_allow", []))
        self.sync_exempt = set(data.get("sync_exempt", []))
        self.cmake_files = set(data.get("cmake_files", []))

    @staticmethod
    def load(path: Path) -> "Manifest":
        try:
            return Manifest(json.loads(path.read_text()), path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"nnlut_lint: cannot load manifest {path}: {e}",
                  file=sys.stderr)
            sys.exit(2)


class Finding:
    def __init__(self, rule: str, path: str, line: int, msg: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def strip_cpp(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines so
    line numbers survive. Rules then never fire on prose or messages."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join("\n" if ch == "\n" else " "
                               for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i > 1 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def allow_lines(raw_text: str) -> dict[str, set[int]]:
    """rule -> line numbers carrying a `// lint:allow <rule>` marker. A
    finding is suppressed when its line, or the line above, is marked."""
    allowed: dict[str, set[int]] = {}
    for lineno, line in enumerate(raw_text.splitlines(), 1):
        for m in ALLOW_RE.finditer(line):
            allowed.setdefault(m.group(1), set()).add(lineno)
    return allowed


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def grep(pattern: re.Pattern, text: str):
    for m in pattern.finditer(text):
        yield line_of(text, m.start()), m.group(0).strip()


# --------------------------------------------------------------- C++ rules

RAND_RE = re.compile(
    r"\bs?rand\s*\(|std::random_device|/dev/u?random|\brand_r\s*\(")

# Mentioning a clock type (time_point parameters, durations) is fine; the
# nondeterminism enters where the clock is actually READ.
WALLCLOCK_RE = re.compile(
    r"(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"
    r"|gettimeofday|clock_gettime|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|__DATE__|__TIME__")

FP_PRAGMA_RE = re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+(?:ON|DEFAULT)")

FLOAT_LIT_RE = re.compile(
    r"(?<![\w.])((?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?f?|\d+[eE][+-]?\d+f?"
    r"|0[xX][0-9a-fA-F]*\.?[0-9a-fA-F]*[pP][+-]?\d+f?)")

ALLOC_RE = re.compile(
    r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\.push_back\s*\("
    r"|\.emplace_back\s*\(|\.resize\s*\(|\bmake_shared\b|\bmake_unique\b")

SYNC_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|condition_variable(?:_any)?|lock_guard|unique_lock|shared_lock"
    r"|scoped_lock)\b")

UNORDERED_DECL_RE = re.compile(r"std::unordered_\w+\s*<")


def unordered_names(code: str) -> set[str]:
    """Names of variables/members declared with a std::unordered_* type,
    found by matching the template bracket depth to the declarator."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        i = m.end()  # just past '<'
        depth = 1
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        decl = re.match(r"\s*&?\s*(\w+)\s*[;={(]", code[i:])
        if decl:
            names.add(decl.group(1))
    return names


def rule_no_rand(rel: str, code: str, mf: Manifest):
    for line, frag in grep(RAND_RE, code):
        yield Finding("no-rand", rel, line,
                      f"nondeterministic source `{frag}` — all randomness "
                      "goes through the fixed-seed numerics/rng.h generator")


def rule_no_wallclock(rel: str, code: str, mf: Manifest):
    if any(rel.startswith(p) for p in mf.wallclock_allowed):
        return
    for line, frag in grep(WALLCLOCK_RE, code):
        yield Finding("no-wallclock", rel, line,
                      f"clock read `{frag}` outside the serving/stats layer "
                      "— results must never depend on time")


def rule_no_unordered_iter(rel: str, code: str, mf: Manifest):
    names = unordered_names(code)
    if not names:
        return
    alt = "|".join(re.escape(n) for n in sorted(names))
    # Range-for over the container (possibly member-qualified) or an
    # explicit iterator loop from .begin().
    iter_re = re.compile(
        r"for\s*\([^;()]*:\s*&?\s*(?:[\w.\->]+\.|\(\*\w+\)\.)?(?:%s)\s*\)"
        r"|(?:%s)\.begin\s*\(" % (alt, alt))
    for line, frag in grep(iter_re, code):
        yield Finding("no-unordered-iter", rel, line,
                      f"iteration over unordered container (`{frag}`): visit "
                      "order is implementation-defined and must not feed any "
                      "output path (`// lint:allow unordered-iter` for "
                      "proven-order-independent bookkeeping)")


def rule_no_fp_contract_cpp(rel: str, code: str, mf: Manifest):
    for line, frag in grep(FP_PRAGMA_RE, code):
        yield Finding("no-fp-contract", rel, line,
                      f"`{frag}` re-enables FP contraction locally; the "
                      "SIMD-tier parity contract requires -ffp-contract=off "
                      "everywhere")


def rule_simd_literal_parity(rel: str, code: str, mf: Manifest):
    header_rel = mf.simd_tier_pairs.get(rel)
    if header_rel is None:
        return
    header_path = mf.root / header_rel
    try:
        header_code = strip_cpp(header_path.read_text())
    except OSError:
        yield Finding("simd-literal-parity", rel, 1,
                      f"shared header {header_rel} (from simd_tier_pairs) "
                      "does not exist")
        return
    shared = {m.group(1) for m in FLOAT_LIT_RE.finditer(header_code)}
    allowed = shared | mf.simd_literal_allow
    for m in FLOAT_LIT_RE.finditer(code):
        lit = m.group(1)
        if lit not in allowed:
            yield Finding(
                "simd-literal-parity", rel, line_of(code, m.start()),
                f"float literal `{lit}` appears in this SIMD-tier TU but "
                f"not in {header_rel} or the manifest allowlist — divergent "
                "constants between tiers break bit-identical logits")


def rule_no_hot_alloc(rel: str, code: str, mf: Manifest):
    if rel not in mf.hot_path:
        return
    for line, frag in grep(ALLOC_RE, code):
        yield Finding("no-hot-alloc", rel, line,
                      f"allocation `{frag}` in a hot-path file — the steady "
                      "state is zero-allocation; stage through the workspace "
                      "or pool (`// lint:allow hot-alloc` for proven cold "
                      "paths)")


def rule_raw_sync_primitive(rel: str, code: str, mf: Manifest):
    if rel in mf.sync_exempt:
        return
    for line, frag in grep(SYNC_RE, code):
        yield Finding("raw-sync-primitive", rel, line,
                      f"raw `{frag}` — use the annotated wrappers in "
                      "core/thread_annotations.h (Mutex, MutexLock, "
                      "UniqueLock, CondVar, ...) so clang -Wthread-safety "
                      "can prove the lock discipline")


CPP_RULES = [
    rule_no_rand,
    rule_no_wallclock,
    rule_no_unordered_iter,
    rule_no_fp_contract_cpp,
    rule_simd_literal_parity,
    rule_no_hot_alloc,
    rule_raw_sync_primitive,
]

# ------------------------------------------------------------- CMake rules

CMAKE_BAD_RE = re.compile(
    r"-ffast-math|-funsafe-math-optimizations|-ffp-contract=(?:fast|on)"
    r"|-Ofast")


def lint_cmake(rel: str, text: str) -> list[Finding]:
    findings = []
    for line, frag in grep(CMAKE_BAD_RE, text):
        findings.append(Finding(
            "no-fp-contract", rel, line,
            f"`{frag}` breaks cross-tier bit-identity (implicit FMA / value "
            "re-association); the build must stay -ffp-contract=off"))
    if "-ffp-contract=off" not in text:
        findings.append(Finding(
            "no-fp-contract", rel, 1,
            "-ffp-contract=off is missing: the determinism contract requires "
            "contraction off project-wide"))
    return findings


# ---------------------------------------------------------------- driver

def lint_cpp_file(path: Path, rel: str, mf: Manifest) -> list[Finding]:
    raw = path.read_text(errors="replace")
    code = strip_cpp(raw)
    allowed = allow_lines(raw)
    findings = []
    for rule in CPP_RULES:
        for f in rule(rel, code, mf):
            # Markers may use the rule id or its short form without the
            # "no-" prefix (`lint:allow unordered-iter`).
            marks = set(allowed.get(f.rule, ()))
            if f.rule.startswith("no-"):
                marks |= allowed.get(f.rule[3:], set())
            if f.line in marks or f.line - 1 in marks:
                continue
            findings.append(f)
    return findings


def collect_files(paths: list[str], mf: Manifest):
    """Yield (path, rel) under the manifest root, split into C++ and CMake."""
    cpp, cmake = [], []
    for p in paths:
        base = (mf.root / p).resolve()
        if not base.exists():
            print(f"nnlut_lint: path does not exist: {base}", file=sys.stderr)
            sys.exit(2)
        candidates = sorted(base.rglob("*")) if base.is_dir() else [base]
        for f in candidates:
            if not f.is_file():
                continue
            rel = f.relative_to(mf.root).as_posix()
            if rel in mf.cmake_files or f.name == "CMakeLists.txt" or \
                    f.suffix == ".cmake":
                cmake.append((f, rel))
            elif f.suffix in CPP_EXTS:
                cpp.append((f, rel))
    return cpp, cmake


def run_lint(paths: list[str], mf: Manifest) -> list[Finding]:
    cpp, cmake = collect_files(paths, mf)
    findings: list[Finding] = []
    for f, rel in cpp:
        findings.extend(lint_cpp_file(f, rel, mf))
    for f, rel in cmake:
        findings.extend(lint_cmake(rel, f.read_text(errors="replace")))
    return findings


# -------------------------------------------------------------- self-test

# rule -> fixture basename stems (tests/lint_fixtures/<stem>.bad.* must fire
# exactly this rule; every *.good.* file — top level or in a subdirectory
# the fixture manifest scopes a rule to — must be completely clean).
RULE_FIXTURES = {
    "no-rand": ["no_rand"],
    # no_wallclock_scope / no_wallclock_net_scope prove the manifest prefix
    # scoping: each bad twin reads a clock outside every `wallclock_allowed`
    # prefix; each good twin is the same code inside an allowlisted directory
    # (obs_allowed/ and net_allowed/ respectively).
    "no-wallclock": ["no_wallclock", "no_wallclock_scope",
                     "no_wallclock_net_scope"],
    "no-unordered-iter": ["no_unordered_iter"],
    "no-fp-contract": ["no_fp_contract"],
    # The _wide twin models a layered TU -> width-common-header -> scalar
    # detail arrangement (several tier TUs of one width sharing a header):
    # a literal shared only with the width-specific common header must
    # still fire.
    "simd-literal-parity": ["simd_literal_parity", "simd_literal_parity_wide"],
    "no-hot-alloc": ["no_hot_alloc"],
    "raw-sync-primitive": ["raw_sync"],
}


def self_test() -> int:
    fixture_manifest = FIXTURE_DIR / "fixture_manifest.json"
    mf = Manifest.load(fixture_manifest)
    failures = []

    for rule, stems in sorted(RULE_FIXTURES.items()):
        bad = [f for stem in stems
               for f in sorted(FIXTURE_DIR.glob(f"{stem}.bad.*"))]
        if not bad:
            failures.append(f"{rule}: no bad fixture matching {stems}")
            continue
        for bad_file in bad:
            rel = bad_file.relative_to(mf.root).as_posix()
            found = run_lint([rel], mf)
            rules_hit = {f.rule for f in found}
            if rule not in rules_hit:
                failures.append(
                    f"{rule}: did NOT fire on its bad fixture {rel}")
            if rules_hit - {rule}:
                failures.append(
                    f"{rule}: bad fixture {rel} also triggered "
                    f"{sorted(rules_hit - {rule})} — fixtures must isolate "
                    "one rule")
        status = "FAIL" if any(x.startswith(rule) for x in failures) else "ok"
        print(f"  {rule:20s} fires on {len(bad)} bad fixture(s): {status}")

    for good in sorted(FIXTURE_DIR.rglob("*.good.*")):
        rel = good.relative_to(mf.root).as_posix()
        found = run_lint([rel], mf)
        if found:
            failures.append(f"good fixture {rel} produced findings: "
                            + "; ".join(str(f) for f in found))
    print(f"  good fixtures clean: "
          f"{'FAIL' if any('good fixture' in x for x in failures) else 'ok'}")

    # The rules must also hold on the real tree at HEAD.
    head_mf = Manifest.load(DEFAULT_MANIFEST)
    head_findings = run_lint(head_mf.default_paths, head_mf)
    if head_findings:
        failures.append(f"src/ at HEAD has {len(head_findings)} finding(s)")
        for f in head_findings:
            print(f"  HEAD: {f}")
    print(f"  src/ at HEAD clean: {'FAIL' if head_findings else 'ok'}")

    if failures:
        print("\nnnlut_lint --self-test FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("nnlut_lint --self-test passed "
          f"({len(RULE_FIXTURES)} rules, fixtures + HEAD)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Determinism-contract lint (see docs/STATIC_ANALYSIS.md)")
    ap.add_argument("paths", nargs="*",
                    help="files/dirs relative to the manifest root "
                         "(default: manifest default_paths)")
    ap.add_argument("--manifest", type=Path, default=DEFAULT_MANIFEST)
    ap.add_argument("--self-test", action="store_true",
                    help="verify each rule against its fixture corpus, then "
                         "require src/ at HEAD to be clean")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    mf = Manifest.load(args.manifest)
    findings = run_lint(args.paths or mf.default_paths, mf)
    for f in findings:
        print(f)
    if findings:
        print(f"nnlut_lint: {len(findings)} finding(s)")
        return 1
    print("nnlut_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
