#!/usr/bin/env python3
"""Self time per span and the per-layer metrics of one traced nnlut_bench run.

  python3 bench/nnlut_bench/selftime.py .bench_build/trace_ops_block.json

Reads the Chrome trace written by `nnlut_bench --trace FILE` (the bench's
counters ride along under "otherData"), prints a table of every span name
with its count, total and self time inside the traced window, then every
per-layer metric as `name value unit`.

A span's self time is its duration minus the part of it that child spans
cover on the same thread. Spans recorded by ScopedSpan nest properly per
thread, so children are found with a stack. The req.* spans are different:
the batcher replays a request's four lifecycle stages at resolve time, so
they overlap the scheduler's live spans without nesting; they are kept out
of the nesting and their self time is their duration.
"""
import collections
import json
import math
import sys

OPS = ("gelu", "softmax", "layernorm")
BACKENDS = ("exact", "lut_fp32", "lut_fp16", "lut_int32", "ibert")
STAGES = ("queue_wait", "batch_wait", "exec", "resolve")
MATMULS = ("attn_proj", "ffn1", "ffn2")
# Export rounds timestamps to 1 ns; allow that much slack when testing
# whether a child ends inside its parent.
EPS_US = 0.002


def load(path):
    with open(path) as f:
        return json.load(f)


def spans(trace):
    """Complete events as (name, tid, ts_us, dur_us, id)."""
    return [(e["name"], e["tid"], e["ts"], e["dur"], e.get("args", {}).get("id", 0))
            for e in trace["traceEvents"] if e.get("ph") == "X"]


def self_times(events):
    """{name: [count, total_us, self_us]} over `events`."""
    table = collections.defaultdict(lambda: [0, 0.0, 0.0])
    by_tid = collections.defaultdict(list)
    for ev in events:
        name, tid, ts, dur, _ = ev
        row = table[name]
        row[0] += 1
        row[1] += dur
        if name.startswith("req."):
            row[2] += dur
        else:
            by_tid[tid].append(ev)
    def close(entry):  # [name, end_us, dur_us, children_us]
        table[entry[0]][2] += max(0.0, entry[2] - entry[3])

    for evs in by_tid.values():
        evs.sort(key=lambda e: (e[2], -e[3]))
        stack = []
        for name, _, ts, dur, _ in evs:
            end = ts + dur
            # A span ending after the top of the stack is not inside it:
            # the top (and anything it still holds open) has finished.
            while stack and end > stack[-1][1] + EPS_US:
                close(stack.pop())
            if stack:
                stack[-1][3] += dur
            stack.append([name, end, dur, 0.0])
        while stack:
            close(stack.pop())
    return table


def nearest_rank(values, q):
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1]


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(trace):
    """Every per-layer metric: {name: (value, unit)}."""
    other = trace["otherData"]
    c = other["counters"]
    all_spans = spans(trace)
    lo, hi = c["window_start_us"], c["window_end_us"]
    win = [e for e in all_spans if lo <= e[2] <= hi]
    by_name = collections.defaultdict(list)
    for e in win:
        by_name[e[0]].append(e)

    def total(name):
        return sum(e[3] for e in by_name.get(name, ()))

    def elems(name):
        return sum(e[4] for e in by_name.get(name, ()))

    def mean_dur(name):
        evs = by_name.get(name, ())
        return ratio(sum(e[3] for e in evs), len(evs))

    top_us = total(other["top_span"])
    m = {}
    m["loadgen.lag_p99_ms"] = (c["lag_p99_ms"], "ms")

    client_us = c.get("client_latency_mean_us", 0.0)
    stage_us = {s: mean_dur("req." + s) for s in STAGES}
    has_net = any(n.startswith("net.") for n in by_name)
    wire = client_us - c.get("lag_mean_us", 0.0) - sum(stage_us.values())
    m["net.wire_share"] = (ratio(wire, client_us) if has_net else 0.0, "ratio")
    m["net.bytes_per_request"] = (
        ratio(c.get("net_bytes", 0.0), c.get("net_requests", 0.0)), "B")
    for s in STAGES:
        m["serve.%s_share" % s] = (ratio(stage_us[s], client_us), "ratio")
    batches = c.get("serve_batches", 0.0)
    m["serve.requests_per_batch"] = (ratio(c.get("serve_requests", 0.0), batches), "count")
    m["serve.batch_occupancy"] = (ratio(c.get("serve_sequences", 0.0), batches), "count")
    m["serve.peak_queue_depth"] = (c.get("serve_peak_queue_depth", 0.0), "count")
    m["serve.shed_share"] = (
        ratio(c.get("serve_shed", 0.0), c.get("serve_attempted", 0.0)), "ratio")

    core_us = sum(total("core.%s.%s" % (op, b)) for op in OPS for b in BACKENDS)
    core_share = ratio(core_us, top_us)
    # The forward pass has no spans inside; the matmul share is estimated
    # from a replay of its matmul shapes at the window's mean rows per call
    # (all spans of the replay, which runs after the window).
    replay = [e[3] for e in all_spans if e[0] == "tensor.replay"]
    rows = c.get("replay_rows", 0.0)
    matmul_share = 0.0
    if replay and rows:
        matmul_share = ratio(c["tokens"] * nearest_rank(replay, 0.5) / rows, top_us)
    m["transformer.self_share"] = (
        max(0.0, 1.0 - core_share - matmul_share) if replay else 0.0, "ratio")
    m["tensor.matmul_share_est"] = (matmul_share, "ratio")
    for k in MATMULS:
        evs = [e for e in all_spans if e[0] == "tensor.matmul." + k]
        flops = 2.0 * sum(e[4] for e in evs)
        m["tensor.matmul_gflops." + k] = (
            ratio(flops, sum(e[3] for e in evs) * 1e3), "GFLOP/s")

    m["core.nonlinear_share"] = (core_share, "ratio")
    for op in OPS:
        names = ["core.%s.%s" % (op, b) for b in BACKENDS]
        m["core.%s.ns_per_elem" % op] = (
            ratio(sum(total(n) for n in names) * 1e3,
                  sum(elems(n) for n in names)), "ns")
    for op in OPS:
        for b in BACKENDS:
            n = "core.%s.%s" % (op, b)
            m[n + ".melem_per_s"] = (ratio(elems(n), total(n)), "Melem/s")
    m["core.plan_cache_misses"] = (c["plan_cache_misses"], "count")

    m["runtime.bufpool_bytes_peak"] = (c.get("bufpool_bytes_peak", 0.0), "B")

    m["obs.trace_overhead_share"] = (
        ratio(c["latency_p50_traced_ms"], c["latency_p50_untraced_ms"]) - 1.0,
        "ratio")
    m["obs.trace_dropped"] = (c["trace_dropped"], "count")
    return m


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    trace = load(sys.argv[1])
    c = trace["otherData"]["counters"]
    lo, hi = c["window_start_us"], c["window_end_us"]
    table = self_times([e for e in spans(trace) if lo <= e[2] <= hi])
    print("# workload %s, traced window %.3f s" % (trace["otherData"]["workload"],
                                                  (hi - lo) / 1e6))
    print("# %-34s %10s %14s %14s" % ("span", "count", "total_ms", "self_ms"))
    for name in sorted(table, key=lambda n: -table[n][2]):
        cnt, tot, slf = table[name]
        print("# %-34s %10d %14.3f %14.3f" % (name, cnt, tot / 1e3, slf / 1e3))
    for name, (value, unit) in per_layer(trace).items():
        print("%s %.9g %s" % (name, value, unit))


if __name__ == "__main__":
    main()
