"""Visibility metrics computed exactly from rank change points.

Rank paths are step functions, so every integral here is a finite sum
over the segments between change points - no discretization grid, no
approximation error beyond float arithmetic.

For runs with several followers the reported position-over-time and
time-at-top are per-follower means, so the numbers stay comparable as
the audience grows.  ``report_from_trajectory`` computes every
follower's segment lengths and weighted ranks from the trajectory's
flat table, then reduces each follower's slice with ``np.add.reduce``
and adds the per-follower sums in follower order: the same floats, in
the same order, as summing each follower on its own, so every bit of the
report stays.  The per-follower functions (``position_over_time``,
``time_at_top``) are the reference in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MetricsReport",
    "report_from_trajectory",
    "normalize_report",
    "aggregate",
]


@dataclass(frozen=True)
class MetricsReport:
    """One run's metrics.  Normalized fields are ``None`` until a
    reference run is applied, and stay ``None`` when the reference
    value is zero (the ratio is undefined, and reported as such)."""

    run: str
    seed: int
    policy: str
    posts: int
    position_over_time: float
    time_at_top: float
    normalized_position: float | None = None
    normalized_time_at_top: float | None = None


def report_from_trajectory(trajectory, run: str, seed: int, policy: str) -> MetricsReport:
    """Per-follower mean position-over-time and time-at-top for one run.

    Every follower's path is scored in one pass over the trajectory's
    flat table; only the per-follower sums run follower by follower,
    each the NumPy reduction of that follower's own segments, added up
    in follower order.
    """
    n = len(trajectory.feeds)
    if n == 0:
        raise ValueError("trajectory has no followers")
    tf = trajectory.feeds.tf
    times, values, bounds = trajectory.times, trajectory.values, trajectory.bounds
    if (times.shape != values.shape or bounds.shape != (n + 1,) or bounds[0] != 0
            or bounds[-1] != times.shape[0] or np.any(bounds[1:] <= bounds[:-1])):
        raise ValueError("need parallel times and values, cut into one non-empty path per follower")
    ends = bounds[1:]
    last = ends - 1
    if np.any(times[last] > tf):
        raise ValueError("tf precedes the last change point")
    # each segment runs to the next change point of its follower, the last to tf
    following = np.empty_like(times)
    following[:-1] = times[1:]
    following[last] = tf
    lengths = following - times
    weighted = values * lengths
    at_top = np.flatnonzero(values < 1)
    top = lengths[at_top]
    top_ends = np.searchsorted(at_top, ends)
    pot = 0.0
    tat = 0.0
    lo = top_lo = 0
    for hi, top_hi in zip(ends.tolist(), top_ends.tolist()):
        pot += float(np.add.reduce(weighted[lo:hi]))
        tat += float(np.add.reduce(top[top_lo:top_hi]))
        lo, top_lo = hi, top_hi
    return MetricsReport(
        run=run,
        seed=seed,
        policy=policy,
        posts=trajectory.post_count,
        position_over_time=pot / n,
        time_at_top=tat / n,
    )


def normalize_report(report: MetricsReport, reference: MetricsReport) -> MetricsReport:
    """Express a report relative to a reference run on the same feed."""
    norm_pos = None
    norm_tat = None
    if reference.position_over_time != 0.0:
        norm_pos = report.position_over_time / reference.position_over_time
    if reference.time_at_top != 0.0:
        norm_tat = report.time_at_top / reference.time_at_top
    return replace(report, normalized_position=norm_pos, normalized_time_at_top=norm_tat)


def aggregate(values) -> dict:
    """Mean, standard error, median and quartiles of a metric across runs."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.shape[0] == 0:
        raise ValueError("nothing to aggregate")
    return {
        "n": int(arr.shape[0]),
        "mean": float(np.mean(arr)),
        "stderr": float(np.std(arr, ddof=1) / math.sqrt(arr.shape[0])) if arr.shape[0] > 1 else 0.0,
        "median": float(_median(arr)),
        "q25": float(_percentile(arr, 25)),
        "q75": float(_percentile(arr, 75)),
    }


# ``np.median`` and ``np.percentile`` check for NaN through ``numpy.ma``,
# whose first import costs a cold command 10+ ms.  These twins of the 1-d
# float case make the same partitions (the same ``kth``) and the same
# arithmetic, so they return the same bits, signed zeros and NaNs too.


def _median(arr: np.ndarray):
    """``np.median(arr)`` of a non-empty 1-d float array."""
    n = arr.shape[0]
    half = n // 2
    lo = half - 1 if n % 2 == 0 else half
    part = np.partition(arr, [lo, half, -1] if n % 2 == 0 else [half, -1])
    if np.isnan(part[-1]):
        return part[-1]
    return part[lo : half + 1].mean(axis=0)


def _percentile(arr: np.ndarray, q: float):
    """``np.percentile(arr, q)`` (linear method) of a non-empty 1-d float array."""
    n = arr.shape[0]
    index = (n - 1) * (q / 100)
    below = math.floor(index)
    above = below + 1
    if index >= n - 1:
        below = above = -1
    part = np.partition(arr, sorted({0, -1, below, above}))
    if np.isnan(part[-1]):
        return part[-1]
    a, b = part[below], part[above]
    t = index - below
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t
