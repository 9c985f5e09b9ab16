#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the nnlut_bench binary from the sources in this checkout (into
.bench_build/ at the checkout root), runs one workload for one seed, and
prints as the last line of stdout one JSON object:

  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": float, "unit": str}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 the workload runs half untraced and half traced, and the
metrics are BENCHMARK.json's per-layer metrics, computed from the Chrome
trace by selftime.py.

  python3 bench/nnlut_bench/run.py --workload ops_block --seed 1 \
      --seconds 20 --trace 0
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nnlut_bench")
# nnlut_bench must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import selftime  # noqa: E402


def fail(msg):
    sys.stderr.write("run.py: %s\n" % msg)
    sys.exit(1)


def build():
    """Configure once, then build incrementally (a no-op when up to date)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no nnlut sources next to the benchmark (looked in %s)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4",
                      "--target", "nnlut_bench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: %s" % " ".join(cmd))


def parse_output(text):
    """`name value unit` lines -> {name: (value, unit)}; `#` lines skipped."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) != 3 or line.startswith("#"):
            continue
        try:
            out[parts[0]] = (float(parts[1]), parts[2])
        except ValueError:
            continue
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("missing %s" % spec_path)
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--tables", os.path.join(HERE, "tables")]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(BUILD, "trace_%s.json" % args.workload)
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("nnlut_bench did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    printed = parse_output(proc.stdout)
    if "attempted" not in printed or "failed" not in printed:
        fail("nnlut_bench exited %d without a result" % proc.returncode)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = printed
    if args.trace:
        values = selftime.per_layer(selftime.load(trace_path))
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("metric %s missing" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}

    failed = int(printed["failed"][0])
    result = {
        "correct": proc.returncode == 0 and failed == 0,
        "attempted": int(printed["attempted"][0]),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
