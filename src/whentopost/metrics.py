"""Visibility metrics computed exactly from rank change points.

Rank paths are step functions, so every integral here is a finite sum
over the segments between change points - no discretization grid, no
approximation error beyond float arithmetic.

For runs with several followers the reported position-over-time and
time-at-top are per-follower means, so the numbers stay comparable as
the audience grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "MetricsReport",
    "position_over_time",
    "time_at_top",
    "average_position",
    "report_from_trajectory",
    "normalize_report",
    "quadratic_control_cost",
    "aggregate",
]


def _segment_lengths(times: np.ndarray, tf: float) -> np.ndarray:
    return np.diff(np.concatenate([times, [tf]]))


def position_over_time(times: np.ndarray, values: np.ndarray, tf: float) -> float:
    """Integral of the rank step function from its start through ``tf``."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1 or times.shape[0] == 0:
        raise ValueError("need parallel non-empty times and values")
    if tf < times[-1]:
        raise ValueError("tf precedes the last change point")
    return float(np.sum(values * _segment_lengths(times, tf)))


def time_at_top(times: np.ndarray, values: np.ndarray, tf: float) -> float:
    """Total time the rank step function spends strictly below 1."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1 or times.shape[0] == 0:
        raise ValueError("need parallel non-empty times and values")
    if tf < times[-1]:
        raise ValueError("tf precedes the last change point")
    lengths = _segment_lengths(times, tf)
    return float(np.sum(lengths[values < 1]))


def average_position(trajectory) -> float:
    """Time-averaged rank, averaged over followers."""
    total = 0.0
    horizon = trajectory.tf - trajectory.t0
    if horizon <= 0:
        raise ValueError("empty window has no average position")
    for ts, vs in zip(trajectory.rank_times, trajectory.rank_values):
        total += position_over_time(ts, vs, trajectory.tf)
    return total / (trajectory.n_followers * horizon)


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
    """Per-follower mean position-over-time and time-at-top for one run."""
    n = trajectory.n_followers
    if n == 0:
        raise ValueError("trajectory has no followers")
    pot = 0.0
    tat = 0.0
    for ts, vs in zip(trajectory.rank_times, trajectory.rank_values):
        pot += position_over_time(ts, vs, trajectory.tf)
        tat += time_at_top(ts, vs, trajectory.tf)
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


def quadratic_control_cost(trajectory, q: float, s=1.0) -> float:
    """0.5*sum_i s_i*integral(r_i^2) + 0.5*q*posts + 0.5*sum_i r_i(tf)^2.

    The quadratic loss the posting policies trade off, evaluated on the
    realized trajectory.  Exact: rank paths are step functions.
    """
    n = trajectory.n_followers
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), (n,))
    total = 0.0
    for i, (ts, vs) in enumerate(zip(trajectory.rank_times, trajectory.rank_values)):
        vs = np.asarray(vs, dtype=np.float64)
        lengths = _segment_lengths(np.asarray(ts, np.float64), trajectory.tf)
        total += 0.5 * s[i] * float(np.sum(vs * vs * lengths))
        total += 0.5 * float(vs[-1] * vs[-1])
    total += 0.5 * q * trajectory.post_count
    return total


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

