#!/usr/bin/env python3
"""The valign benchmark: one command for every workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `perfbench/` (a Cargo package
with path dependencies on the repository's crates) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload's
passes, each in a process of its own, under `.bench_work/`. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 one traced run gives the per-layer ones. The line before
it is the environment block. The exit code is 0 only when every output
check passed. Workloads, metrics and the layer map are described in
perfbench/README.md and perfbench/layer_map.json.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "sweep-cold-seed0.txt")

# Nominal seconds of one pass on the reference box (set-up, measured
# work and output checks). The pass count is fixed by --seconds through
# these constants, never by how fast the program runs, so a faster
# program does the same work and the tail percentile stays the same.
PASS_SECONDS = {
    "sweep-cold": 3.2,
    "serve-fresh": 5.0,
    "serve-repeat": 6.2,
}
MIN_PASSES = 3
# Stop starting passes past this point, to stay inside a 180 s run.
DEADLINE_S = 140.0

# Per-workload environment facts (execs are kernel executions per trace).
EXECS = {"sweep-cold": 200, "serve-fresh": 20, "serve-repeat": 20}

# Every span name the traced run records, and the layer metric its self
# time is charged to.
SPAN_METRICS = {
    "workload": "workload.trace_s",
    "image": "image.build_s",
    "image.verify": "image.verify_s",
    "store.open": "store.open_s",
    "store.load": "store.load_s",
    "store.decode": "store.decode_s",
    "store.save": "store.save_s",
    "journal.open": "journal.open_s",
    "journal.append": "journal.append_s",
    "journal.compact": "journal.compact_s",
    "sim": "sim.self_s",
    "engine": "engine.replay_s",
    "server": "server.self_s",
    "protocol.parse": "protocol.parse_s",
    "protocol.render": "protocol.render_s",
    "protocol.frame": "protocol.frame_s",
    "experiments": "experiments.self_s",
}

# Counters the traced run records at layer boundaries (0 where the
# workload never reaches the layer).
COUNTERS = [
    "workload.traces", "workload.instrs", "image.builds", "image.mb",
    "image.verify_failures", "store.mb_read", "store.mb_written",
    "store.memcpy_gbps", "journal.appends", "journal.compactions",
    "journal.mb", "engine.replays", "engine.instrs", "sim.mem_hits",
    "sim.mem_misses", "sim.disk_hits", "sim.disk_misses",
    "sim.resident_keys", "server.submitted", "server.fresh", "server.deduped", "server.served",
    "server.rejected", "protocol.bytes", "supervise.retried",
    "supervise.degraded", "supervise.quarantined",
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.abspath(".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return os.path.join(target, "release", "valign-perfbench")


def dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def run_pass(binary, args, work, index, trace):
    """Runs one pass process; returns its result with the orchestrator's
    own measurements: setup_s (spawn to the ready line) and peak RSS."""
    cmd = [binary, "pass", "--workload", args.workload, "--seed", str(args.seed),
           "--index", str(index), "--work", work]
    if trace:
        cmd.append("--trace")
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    ready = None
    result = None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if msg.get("event") == "ready":
                ready = time.perf_counter()
            else:
                result = msg
    finally:
        proc.stdout.close()
        if result is None:
            proc.kill()  # a zombie ignores it; wait4 below still reaps
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or result is None or ready is None:
        raise SystemExit(f"perfbench: {args.workload} pass {index} failed (exit {proc.returncode})")
    result["setup_s"] = ready - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    return result


def paper_error(binary, seed):
    out = subprocess.run([binary, "paper", "--seed", str(seed)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["paper_error_pct"]


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def output_mismatches(workload, seed, work, results):
    """Cross-pass output checks; returns the number of mismatches."""
    if workload == "sweep-cold":
        texts = [read(r["output"]) for r in results]
        want = read(REFERENCE) if seed == 0 else texts[0]
        return sum(1 for t in texts if t != want)
    return 0  # serve passes check every scorecard themselves


def metric(value, unit):
    # A refused submit makes the tail infinitely late; JSON has no
    # infinity, and such a run has already failed its checks.
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def end_to_end(args, binary, work, passes):
    results = []
    started = time.perf_counter()
    for i in range(passes):
        if i >= MIN_PASSES and time.perf_counter() - started > DEADLINE_S:
            log(f"stopping after {i} passes to stay inside the run limit")
            break
        r = run_pass(binary, args, work, i, trace=False)
        store = os.path.join(work, f"store-{i}")
        r["disk_mb"] = dir_bytes(store) / 1e6
        shutil.rmtree(store, ignore_errors=True)
        results.append(r)
    latencies = [v for r in results for v in r["latencies_ms"]]
    # (wall, jobs, simulated instructions) of every measured pass.
    walls = [(w, r["jobs"], r["sim_instrs"]) for r in results for w in r["walls_s"]]
    loop = stats.closed_loop(latencies)
    if "paper_error_pct" in results[0]:
        paper = stats.median([r["paper_error_pct"] for r in results])
    else:
        paper = paper_error(binary, args.seed)
    mismatches = output_mismatches(args.workload, args.seed, work, results)
    attempted = sum(int(r["attempted"]) for r in results)
    failed = sum(int(r["failed"]) for r in results) + mismatches
    metrics = {
        "setup_s": metric(stats.median([r["setup_s"] for r in results]), "s"),
        "wall_s": metric(stats.median([w for w, _, _ in walls]), "s"),
        "sim_mips": metric(stats.median([i / w / 1e6 for w, _, i in walls]), "Minstr/s"),
        "peak_rss_mb": metric(stats.median([r["peak_rss_mb"] for r in results]), "MB"),
        "jobs_per_s": metric(stats.median([j / w for w, j, _ in walls]), "1/s"),
        "batch_p50_ms": metric(loop["p50"], "ms"),
        "batch_tail_mean_ms": metric(loop["tail_mean"], "ms"),
        "paper_error_pct": metric(paper, "%"),
    }
    env = {"passes": len(results), "samples": len(latencies), "tail_percentile": loop["tail_pct"],
           "disk_mb": stats.median([r["disk_mb"] for r in results]),
           "pass_setup_s": [r["setup_s"] for r in results],
           "pass_wall_s": [w for w, _, _ in walls]}
    return metrics, attempted, failed, env


def per_layer(args, binary, work):
    r = run_pass(binary, args, work, 0, trace=True)
    with open(r["spans"], encoding="utf-8") as f:
        spans = json.load(f)
    keep = os.path.join(os.path.dirname(work), f"spans-{args.workload}-seed{args.seed}.json")
    shutil.copyfile(r["spans"], keep)
    times = stats.attribute(spans, SPAN_METRICS)
    c = {name: 0.0 for name in COUNTERS}
    c.update(r.get("counters", {}))
    mismatches = output_mismatches(args.workload, args.seed, work, [r])
    accept = r.get("accept_ms")
    submitted = c["server.submitted"]
    hits, misses = c["sim.mem_hits"], c["sim.mem_misses"]
    derived = {
        "store.disk_mb": dir_bytes(os.path.join(work, "store-reference")) / 1e6,
        "store.decode_gbps": c["store.mb_read"] / 1e3 / times["store.decode_s"] if times["store.decode_s"] else 0.0,
        "engine.mips": c["engine.instrs"] / times["engine.replay_s"] / 1e6 if times["engine.replay_s"] else 0.0,
        "sim.mem_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.accept_ms": stats.median(accept) if accept else 0.0,
        "server.served_ratio": (c["server.deduped"] + c["server.served"]) / submitted if submitted else 0.0,
        "trace_overhead_pct": 100 * (times["traced_wall_s"] / r["untraced_wall_s"] - 1),
    }
    units = {}
    for name in list(times) + COUNTERS + list(derived):
        units[name] = unit_of(name)
    values = {**times, **{k: c[k] for k in COUNTERS}, **derived}
    metrics = {name: metric(values[name], units[name]) for name in sorted(values)}
    attempted = int(r["attempted"])
    failed = int(r["failed"]) + mismatches
    return metrics, attempted, failed, {"passes": 1}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_gbps"):
        return "GB/s"
    if name.endswith(".mb") or name.endswith("_mb") or name.startswith("store.mb"):
        return "MB"
    if name.endswith("mips"):
        return "Minstr/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    # On SIGTERM, unwind through the finally clauses: the running pass is
    # killed and reaped, and the run's scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    binary = build()
    root = os.path.abspath(".bench_work")
    work = os.path.join(root, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
        if args.trace:
            metrics, attempted, failed, env = per_layer(args, binary, work)
        else:
            metrics, attempted, failed, env = end_to_end(args, binary, work, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    nproc = len(os.sched_getaffinity(0))
    env.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "threads": nproc,
        "clients": min(2, nproc) if args.workload.startswith("serve") else 0,
        "execs": EXECS[args.workload], "page_cache": "warm",
    })
    print(json.dumps({"environment": env}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
