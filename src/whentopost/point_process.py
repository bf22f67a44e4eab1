"""Event streams and the point processes that generate feed traffic.

Time is measured in abstract seconds; every rate in this package is in
events per second.  Streams are strictly increasing: simultaneous events
are resolved at construction time by nudging the later one up by one
float step (with a warning), so downstream consumers never see ties.

The self-exciting feed model keeps a single scalar of excitation state.
Its intensity obeys a jump-decay law: each event lifts the intensity by
``alpha`` and between events the intensity relaxes exponentially toward
the (possibly piecewise-constant) baseline at speed ``w``:

    lam(t) = lam0(t) + (lam(s) - lam0(s)) * exp(-w * (t - s))
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import sample_hawkes_times

__all__ = [
    "EventStream",
    "PiecewiseRate",
    "HawkesParams",
    "IntensityState",
    "decay_intensity",
    "apply_jump",
    "sample_hawkes",
    "sample_piecewise_poisson",
    "superpose",
]


#: Most events one ``sample_hawkes`` draw may hold (40 MB of times).  An
#: explosive feed (``alpha >= w``) outgrows any window, so it stops here.
MAX_HAWKES_EVENTS = 5_000_000


def _dedupe_increasing(times: np.ndarray) -> tuple[np.ndarray, int]:
    """Nudge equal neighbors up by one ulp so the array strictly increases.

    Assumes ``times`` is already sorted (non-strictly).  Returns the fixed
    array and the number of nudged entries.
    """
    times = np.array(times, dtype=np.float64, copy=True)
    if np.all(np.diff(times) > 0):
        return times, 0
    nudged = 0
    for i in range(1, times.shape[0]):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], math.inf)
            nudged += 1
    return times, nudged


@dataclass(frozen=True)
class EventStream:
    """A strictly increasing sequence of timestamped events.

    ``sources`` carries a parallel id per event ("who produced it");
    synthetic streams default every source to a single label.
    """

    times: np.ndarray
    sources: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        sources = np.asarray(self.sources)
        if times.ndim != 1:
            raise ValueError("event times must be a 1-d array")
        if sources.shape != times.shape:
            raise ValueError("sources must parallel times")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("event times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sources", sources)

    @classmethod
    def from_times(cls, times, source: str = "feed") -> "EventStream":
        times = np.asarray(times, dtype=np.float64)
        return cls(times, np.full(times.shape, source, dtype=object))

    @classmethod
    def empty(cls) -> "EventStream":
        return cls(np.empty(0, np.float64), np.empty(0, dtype=object))

    def __len__(self) -> int:
        return int(self.times.shape[0])

    def window(self, t0: float, tf: float) -> "EventStream":
        """Events with t0 < t <= tf."""
        mask = (self.times > t0) & (self.times <= tf)
        return EventStream(self.times[mask], self.sources[mask])

    def from_sources(self, wanted) -> "EventStream":
        mask = np.isin(self.sources, list(wanted))
        return EventStream(self.times[mask], self.sources[mask])


@dataclass(frozen=True)
class PiecewiseRate:
    """A nonnegative piecewise-constant rate: ``rates[k]`` on ``[knots[k], knots[k+1])``."""

    knots: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        rates = np.asarray(self.rates, dtype=np.float64)
        if knots.ndim != 1 or rates.ndim != 1:
            raise ValueError("knots and rates must be 1-d arrays")
        if knots.shape[0] != rates.shape[0] + 1:
            raise ValueError("need exactly one more knot than rate segments")
        if knots.shape[0] < 2 or not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(rates < 0):
            raise ValueError("rates must be nonnegative")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "rates", rates)

    @classmethod
    def constant(cls, rate: float, t0: float, tf: float) -> "PiecewiseRate":
        return cls(np.array([t0, tf]), np.array([float(rate)]))

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def segment_index(self, t: float) -> int:
        idx = int(np.searchsorted(self.knots, t, side="right")) - 1
        return min(max(idx, 0), self.rates.shape[0] - 1)

    def rate_at(self, t: float) -> float:
        lo, hi = self.domain
        if t < lo or t > hi:
            raise ValueError(f"time {t} outside rate domain [{lo}, {hi}]")
        return float(self.rates[self.segment_index(t)])

    def covers(self, t0: float, tf: float) -> bool:
        lo, hi = self.domain
        return lo <= t0 and tf <= hi


@dataclass(frozen=True)
class HawkesParams:
    """Self-exciting feed parameters.

    ``baseline`` is a constant rate or a :class:`PiecewiseRate`;
    ``alpha`` is the per-event intensity jump and ``w`` the relaxation
    speed.  Stability (a finite long-run rate) requires ``alpha < w``;
    pass ``allow_unstable=True`` to experiment past that point.
    """

    baseline: float | PiecewiseRate
    alpha: float
    w: float
    allow_unstable: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.w <= 0:
            raise ValueError("w must be positive")
        if isinstance(self.baseline, PiecewiseRate):
            pass
        elif self.baseline < 0:
            raise ValueError("baseline rate must be nonnegative")
        if self.alpha >= self.w and not self.allow_unstable:
            raise ValueError(
                "alpha >= w gives an explosive feed; pass allow_unstable=True "
                "if that is intended"
            )

    def baseline_at(self, t: float) -> float:
        if isinstance(self.baseline, PiecewiseRate):
            return self.baseline.rate_at(t)
        return float(self.baseline)

    def stationary_rate(self) -> float:
        """Long-run mean rate ``lam0 / (1 - alpha / w)`` for a constant baseline."""
        if isinstance(self.baseline, PiecewiseRate):
            raise ValueError("stationary rate is defined for constant baselines")
        if self.alpha >= self.w:
            raise ValueError("no stationary rate: alpha >= w")
        return float(self.baseline) / (1.0 - self.alpha / self.w)


@dataclass(frozen=True)
class IntensityState:
    """Intensity ``current`` at time ``as_of``; never below the baseline."""

    current: float
    as_of: float

    def __post_init__(self):
        if not math.isfinite(self.current) or self.current < 0:
            raise ValueError("intensity must be finite and nonnegative")


def decay_intensity(state: IntensityState, params: HawkesParams, t: float) -> IntensityState:
    """Relax the intensity from ``state.as_of`` to ``t`` with no events between.

    The excitation above the baseline decays by ``exp(-w * dt)``; the
    baseline itself is re-read at ``t``, so baseline steps pass straight
    through to the intensity.
    """
    if t < state.as_of:
        raise ValueError("cannot decay backwards in time")
    excite = state.current - params.baseline_at(state.as_of)
    if excite < 0:
        raise ValueError("intensity below baseline: state is inconsistent")
    new = params.baseline_at(t) + excite * math.exp(-params.w * (t - state.as_of))
    return IntensityState(new, t)


def apply_jump(state: IntensityState, params: HawkesParams) -> IntensityState:
    """Add one event's excitation ``alpha`` at the state's own time."""
    return IntensityState(state.current + params.alpha, state.as_of)


def _baseline_arrays(params: HawkesParams, t0: float, tf: float) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(params.baseline, PiecewiseRate):
        if not params.baseline.covers(t0, tf):
            raise ValueError("baseline rate does not cover the sampling window")
        return params.baseline.knots, params.baseline.rates
    return np.array([t0, tf], np.float64), np.array([float(params.baseline)], np.float64)


def sample_hawkes(
    params: HawkesParams,
    t0: float,
    tf: float,
    rng: np.random.Generator,
    source: str = "feed",
) -> EventStream:
    """Draw one feed realization on (t0, tf] by thinning.

    Deterministic in ``rng``: the same generator state yields the same
    stream.  The intensity starts at the baseline (no pre-window
    excitation).  A window holding more than ``MAX_HAWKES_EVENTS`` events
    fails with ``ValueError``.
    """
    if tf < t0:
        raise ValueError("tf must not precede t0")
    if tf == t0:
        return EventStream.empty()
    knots, rates = _baseline_arrays(params, t0, tf)
    if params.alpha < params.w:
        mean_rate = float(np.max(rates)) / (1.0 - params.alpha / params.w)
    else:
        mean_rate = float(np.max(rates)) * 4.0
    cap_hint = min(int(mean_rate * (tf - t0) * 1.5) + 16, MAX_HAWKES_EVENTS + 1)
    times = sample_hawkes_times(
        float(t0), float(tf), knots, rates, float(params.alpha), float(params.w), rng, cap_hint,
        MAX_HAWKES_EVENTS,
    )
    if times.shape[0] > MAX_HAWKES_EVENTS:
        raise ValueError(
            f"the feed on ({t0!r}, {tf!r}] holds more than MAX_HAWKES_EVENTS = {MAX_HAWKES_EVENTS} "
            f"events (alpha = {params.alpha!r}, w = {params.w!r}) - shorten the window or lower alpha"
        )
    return EventStream.from_times(times, source)


def sample_piecewise_poisson(
    rate: PiecewiseRate,
    t0: float,
    tf: float,
    rng: np.random.Generator,
    source: str = "feed",
) -> EventStream:
    """Draw an inhomogeneous Poisson stream on (t0, tf].

    Per segment: a Poisson count, then that many uniform positions,
    sorted.  Segments are visited in order, so the draw sequence (and
    hence the stream) is a pure function of the generator state.
    """
    if not rate.covers(t0, tf):
        raise ValueError("sampling window falls outside the rate's knots")
    if tf < t0:
        raise ValueError("tf must not precede t0")
    pieces = []
    for k in range(rate.rates.shape[0]):
        a = max(float(rate.knots[k]), t0)
        b = min(float(rate.knots[k + 1]), tf)
        if b <= a:
            continue
        lam = float(rate.rates[k])
        count = int(rng.poisson(lam * (b - a)))
        if count:
            pieces.append(np.sort(a + rng.random(count) * (b - a)))
    if not pieces:
        return EventStream.empty()
    times = np.concatenate(pieces)
    times, nudged = _dedupe_increasing(times)
    if nudged:
        warnings.warn(f"nudged {nudged} coincident sample(s) apart", stacklevel=2)
    return EventStream.from_times(times, source)


def superpose(streams) -> EventStream:
    """Merge streams into one, keeping per-event sources.

    Exact time ties across streams are nudged apart by one float step
    (later stream wins the later slot) with a warning; each input is
    already strictly increasing, so the result is too.
    """
    streams = list(streams)
    if not streams:
        return EventStream.empty()
    times = np.concatenate([s.times for s in streams])
    sources = np.concatenate([s.sources for s in streams]) if times.shape[0] else np.empty(0, object)
    order = np.argsort(times, kind="stable")
    times = times[order]
    sources = sources[order]
    times, nudged = _dedupe_increasing(times)
    if nudged:
        warnings.warn(f"nudged {nudged} coincident event(s) apart", stacklevel=2)
    return EventStream(times, sources)
