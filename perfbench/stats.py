"""The benchmark's own arithmetic: percentiles, span self time, canonical
reports and computed kernel operation counts.  Pure functions, no I/O."""

from __future__ import annotations

import json
import math

# Report fields that may differ between identical runs.
VOLATILE_KEYS = ("runtime_ms",)

# The compiled kernel takes its int64 lane when max|a| * max|b| * overlap
# stays below this bound (see _FAST_BOUND in the kernel source).
INT64_LANE_BOUND = 1 << 62


def tail_percentile(n: int, beyond: int = 10):
    """The highest whole percentile q whose nearest rank among ``n`` samples
    still has at least ``beyond`` samples above it; None if ``n`` is too
    small for any."""
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)  # 1-based nearest rank
        if rank >= 1 and n - rank >= beyond:
            return q
    return None


def hd_quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass on each
    ((i-1)/n, i/n], integrated by the midpoint rule.

    Latencies of a menu of unlike requests bunch into clusters.  A single
    order statistic on a gap between two clusters jumps by the width of the
    gap when a few samples cross it; this weighted mean moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 32  # midpoints per rank: 1e-4 relative accuracy once a, b >= 1
    logs = []
    for i in range(n):
        for k in range(steps):
            x = (i + (k + 0.5) / steps) / n
            logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def self_times(starts, ends, parents) -> list:
    """Per span: its duration minus the part of it covered by its child spans.

    ``parents[i]`` is the index of span i's parent or -1.  Children are
    clipped to their parent's interval and overlapping children are counted
    once (their union is subtracted, not their sum).
    """
    n = len(starts)
    out = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    reach = [-math.inf] * n  # end of the covered union so far, per parent
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        s = max(starts[i], starts[p], reach[p])
        e = min(ends[i], ends[p])
        if e > s:
            covered[p] += e - s
        reach[p] = max(reach[p], e)
    return [out[i] - covered[i] for i in range(n)]


def canonical(report) -> str:
    """The report as compared against its reference: volatile top-level
    fields removed, keys sorted, no whitespace."""
    if isinstance(report, dict):
        report = {k: v for k, v in report.items() if k not in VOLATILE_KEYS}
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def first_mismatch(got, want, path: str = "$"):
    """Path of the first place two canonical reports differ, or None."""
    if type(got) is not type(want):
        return path
    if isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}.{key}"
            sub = first_mismatch(got[key], want[key], f"{path}.{key}")
            if sub:
                return sub
        return None
    if isinstance(got, list):
        for i, (a, b) in enumerate(zip(got, want)):
            sub = first_mismatch(a, b, f"{path}[{i}]")
            if sub:
                return sub
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if got == want else path


def trunc_ops(la: int, lb: int, n: int) -> int:
    """Coefficient products the schoolbook kernel forms for the first ``n``
    coefficients of a * b (``la * lb`` for the full product)."""
    if la <= 0 or lb <= 0 or n <= 0:
        return 0
    n = min(n, la + lb - 1)
    k = min(la, n)
    full = max(0, min(k, n - lb + 1))  # rows i whose whole b-range is kept
    rest = k - full  # rows cut by the truncation: n - i products each
    return full * lb + rest * n - (full + k - 1) * rest // 2


def int64_lane(max_a: int, max_b: int, la: int, lb: int) -> bool:
    """Whether an operand pair meets the compiled kernel's int64-lane bound."""
    if max_a >= 1 << 63 or max_b >= 1 << 63:
        return False
    return max_a == 0 or max_b == 0 or max_a * max_b * min(la, lb) < INT64_LANE_BOUND
