"""The benchmark's arithmetic: percentiles, closed-loop accounting and
span self times. Pure functions, tested by tests/test_stats.py."""

import math

INF = float("inf")


def median(values):
    """Median of a non-empty list (mean of the middle two when even)."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2


def tail_percentile(n):
    """The highest whole percentile with at least 10 of `n` samples
    beyond it (nearest rank), or None when no percentile has."""
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n)


def percentile(values, p):
    """Nearest-rank percentile `p` of `values`; a refused request
    (None) counts as infinitely late."""
    s = sorted(INF if v is None else v for v in values)
    if not s:
        raise ValueError("percentile of no values")
    k = max(1, math.ceil(p / 100 * len(s)))
    return s[k - 1]


# The tail percentile is capped at p90, and the tail is reported as the
# mean of the samples beyond it: on the serve workloads latencies fall
# into modes 40 ms apart (delayed-ACK stalls behind small frames) whose
# shares change from run to run, so any single percentile above the
# median jumps between modes while the mean beyond it moves smoothly.
TAIL_CAP = 90


def closed_loop(latencies):
    """Accounting of one closed loop's submits: each entry is a latency
    in ms, or None for a refused submit. A refusal counts as failed and
    as missing any latency limit. Returns attempted, failed, p50, the
    tail percentile (the highest with ten samples beyond it, at most
    TAIL_CAP) and the mean of the samples beyond it."""
    n = len(latencies)
    tail = tail_percentile(n)
    beyond = None
    if tail is not None:
        tail = min(tail, TAIL_CAP)
        s = sorted(INF if v is None else v for v in latencies)
        rest = s[math.ceil(tail / 100 * n):]
        beyond = sum(rest) / len(rest)
    return {
        "attempted": n,
        "failed": sum(1 for v in latencies if v is None),
        "p50": percentile(latencies, 50),
        "tail_pct": tail,
        "tail_mean": beyond,
    }


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of it
    its children cover. `spans` are dicts with start_ns, end_ns and
    parent (index, None for the root at index 0). Raises ValueError on a
    span with no parent chain to the root, a child outside its parent,
    or a negative duration."""
    if not spans or spans[0]["parent"] is not None:
        raise ValueError("span 0 must be the workload root")
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["end_ns"] < s["start_ns"]:
            raise ValueError(f"span {i} ends before it starts")
        if i == 0:
            continue
        p = s["parent"]
        if p is None or not 0 <= p < i:
            raise ValueError(f"span {i} has no parent chain to the root")
        parent = spans[p]
        if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            raise ValueError(f"span {i} lies outside its parent {p}")
        children[p].append((s["start_ns"], s["end_ns"]))
    selfs = []
    for i, s in enumerate(spans):
        covered = 0
        reach = s["start_ns"]
        for start, end in sorted(children[i]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        own = s["end_ns"] - s["start_ns"] - covered
        if own < 0:
            raise ValueError(f"span {i} has negative self time")
        selfs.append(own)
    return selfs


def attribute(spans, names):
    """Self time in seconds per metric, plus the root's self time as
    unattributed_s and its duration as traced_wall_s. `names` maps each
    span name to its metric; an unmapped name raises ValueError. Checks
    conservation: the per-metric times plus unattributed_s equal the
    traced wall exactly (in ns)."""
    selfs = self_times(spans)
    totals_ns = {metric: 0 for metric in names.values()}
    for s, own in zip(spans[1:], selfs[1:]):
        if s["name"] not in names:
            raise ValueError(f"span name {s['name']!r} maps to no layer metric")
        totals_ns[names[s["name"]]] += own
    wall_ns = spans[0]["end_ns"] - spans[0]["start_ns"]
    if sum(totals_ns.values()) + selfs[0] != wall_ns:
        raise ValueError("layer self times and unattributed time do not sum to the traced wall")
    out = {metric: ns / 1e9 for metric, ns in totals_ns.items()}
    out["unattributed_s"] = selfs[0] / 1e9
    out["traced_wall_s"] = wall_ns / 1e9
    return out
