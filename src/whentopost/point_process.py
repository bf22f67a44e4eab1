"""The point processes that generate feed traffic.

Time is measured in abstract seconds; every rate in this package is in
events per second.  A sampler returns its event times as one strictly
increasing float64 array: simultaneous events are resolved by nudging
the later one up by one float step (with a warning), so downstream
consumers never see ties.

The self-exciting feed model keeps a single scalar of excitation state.
Its intensity obeys a jump-decay law: each event lifts the intensity by
``alpha`` and between events the intensity relaxes exponentially toward
the constant baseline ``lam0`` at speed ``w``:

    lam(t) = lam0 + (lam(s) - lam0) * exp(-w * (t - s))

A one-row :class:`~whentopost.significance.StepSchedule` drives the
inhomogeneous Poisson feeds of ``sample_piecewise_poisson``, on the
window its knots span.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import sample_hawkes_times
from .significance import StepSchedule

__all__ = [
    "HawkesParams",
    "sample_hawkes",
    "sample_piecewise_poisson",
]


#: Most events one ``sample_hawkes`` draw may hold (40 MB of times); a long
#: enough window outgrows any memory, so the draw stops here.
MAX_HAWKES_EVENTS = 5_000_000


def _dedupe_increasing(times: np.ndarray) -> tuple[np.ndarray, int]:
    """Nudge equal neighbors up by one ulp so the array strictly increases.

    Assumes ``times`` is already sorted (non-strictly).  Returns the fixed
    array and the number of nudged entries.  An entry not above its
    predecessor goes one float step above it; a nudge only raises an
    entry, so it can make a tie only with the next one.  Each tie in the
    input starts a walk that follows its cascade, and the rest of the
    array is never visited.
    """
    times = np.array(times, dtype=np.float64, copy=True)
    nudged = end = 0
    for i in (np.flatnonzero(np.diff(times) <= 0) + 1).tolist():
        if i < end:  # already walked by an earlier tie's cascade
            continue
        while i < times.shape[0] and times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], math.inf)
            nudged += 1
            i += 1
        end = i
    return times, nudged


@dataclass(frozen=True)
class HawkesParams:
    """Self-exciting feed parameters.

    ``baseline`` is the constant rate the intensity relaxes to;
    ``alpha`` is the per-event intensity jump and ``w`` the relaxation
    speed.  Stability (a finite long-run rate) requires ``alpha < w``.
    """

    baseline: float
    alpha: float
    w: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.w <= 0:
            raise ValueError("w must be positive")
        if self.baseline < 0:
            raise ValueError("baseline rate must be nonnegative")
        if self.alpha >= self.w:
            raise ValueError("alpha >= w gives an explosive feed")

    def stationary_rate(self) -> float:
        """Long-run mean rate ``lam0 / (1 - alpha / w)``."""
        return float(self.baseline) / (1.0 - self.alpha / self.w)


def sample_hawkes(
    params: HawkesParams,
    t0: float,
    tf: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one feed realization on (t0, tf] by thinning: its strictly increasing times.

    Deterministic in ``rng``: the same generator state yields the same
    times.  The intensity starts at the baseline (no pre-window
    excitation).  A window holding more than ``MAX_HAWKES_EVENTS`` events
    fails with ``ValueError``.
    """
    if tf < t0:
        raise ValueError("tf must not precede t0")
    if tf == t0:
        return np.empty(0, np.float64)
    cap_hint = min(int(params.stationary_rate() * (tf - t0) * 1.5) + 16, MAX_HAWKES_EVENTS + 1)
    times = sample_hawkes_times(
        float(t0), float(tf), float(params.baseline), float(params.alpha), float(params.w),
        rng, cap_hint, MAX_HAWKES_EVENTS,
    )
    if times.shape[0] > MAX_HAWKES_EVENTS:
        raise ValueError(
            f"the feed on ({t0!r}, {tf!r}] holds more than MAX_HAWKES_EVENTS = {MAX_HAWKES_EVENTS} "
            f"events (alpha = {params.alpha!r}, w = {params.w!r}) - shorten the window or lower alpha"
        )
    return times


def sample_piecewise_poisson(rate: StepSchedule, rng: np.random.Generator) -> np.ndarray:
    """Draw an inhomogeneous Poisson stream on the rate's knots: its strictly increasing times.

    ``rate`` is a one-row table spanning the window.  Segment by segment,
    in order, a Poisson count of mean rate x width, then that many
    uniforms: the stream is a pure function of the generator state.  A
    segment of mean 0 draws nothing, as ``poisson(0.0)`` would.  Then
    every draw lands at once at its segment's start plus uniform x width.
    """
    if rate.values.shape[0] != 1:
        raise ValueError(f"a feed rate is a one-row table, got {rate.values.shape[0]} rows")
    widths = np.diff(rate.knots)
    means = rate.values[0] * widths
    live = np.flatnonzero(means)
    counts = np.zeros(widths.shape[0], np.int64)
    draws = []
    for k, mean in zip(live.tolist(), means[live].tolist()):
        count = counts[k] = rng.poisson(mean)
        if count:
            draws.append(rng.random(count))
    if not draws:
        return np.empty(0, np.float64)
    times = np.sort(np.repeat(rate.knots[:-1], counts) + np.concatenate(draws) * np.repeat(widths, counts))
    times, nudged = _dedupe_increasing(times)
    if nudged:
        warnings.warn(f"nudged {nudged} coincident sample(s) apart", stacklevel=2)
    return times
