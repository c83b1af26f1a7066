"""Summary statistics of the benchmark: the tail percentile rule,
the scaling-exponent fit, ratios printed with their base, and span self
times.  Pure functions, covered by test_perfbench.py."""

import math

# Percentiles considered for a latency tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, p):
    """Linear-interpolated percentile (the same rule as numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _enough_beyond(n, p):
    """At least MIN_BEYOND of n samples lie beyond percentile p (with a
    tolerance for the rounding of 100 - p)."""
    return n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9


def tail_percentile(values):
    """The highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (p, value, count), or None when even the median has fewer than
    MIN_BEYOND samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if _enough_beyond(n, p):
            return p, percentile(values, p), n
    return None


def percentile_if_supported(values, p):
    """percentile(values, p) when at least MIN_BEYOND samples lie beyond
    it, else None (the metric is then omitted, never estimated)."""
    if not _enough_beyond(len(values), p):
        return None
    return percentile(values, p)


def scaling_exponent(ns, walls):
    """Least-squares slope of log(wall) over log(n); 1.0 is linear."""
    if len(ns) != len(walls) or len(ns) < 2:
        raise ValueError("need at least two (n, wall) points")
    xs = [math.log(n) for n in ns]
    ys = [math.log(w) for w in walls]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("need at least two distinct n")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def ratio(num, base):
    """num / base, or None when the base is 0 (undefined, so omitted)."""
    return None if base == 0 else num / base


def format_ratio(num, base):
    """A ratio printed with its base, e.g. '0/48 = 0.0000'."""
    r = ratio(num, base)
    return f"{num}/{base} = " + ("undefined" if r is None else f"{r:.4f}")


def layer_of(span_name):
    """The layer a span belongs to: its namespace prefix."""
    return span_name.split("::", 1)[0] if "::" in span_name else span_name


def self_times(spans):
    """Self time (ms) per span id: its duration minus its children's.

    `spans` are dicts with id, parent, start_ms, end_ms.  Children of one
    parent never overlap (the replay is single-threaded)."""
    child_ms = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + (
                s["end_ms"] - s["start_ms"])
    return {s["id"]: (s["end_ms"] - s["start_ms"]) - child_ms.get(s["id"], 0.0)
            for s in spans}


def layer_self_times(spans):
    """Self time (ms) summed per layer, and the traced wall (ms): the summed
    duration of the root spans."""
    selfs = self_times(spans)
    by_layer = {}
    for s in spans:
        layer = layer_of(s["name"])
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[s["id"]]
    wall = sum(s["end_ms"] - s["start_ms"] for s in spans if s["parent"] < 0)
    return by_layer, wall
