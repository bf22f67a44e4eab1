"""Online posting-time control with superposed exponential clocks.

The controller keeps the broadcaster's current rank r_i in each
follower's feed and posts with intensity

    u(t) = sum_i sqrt(s_i(t) / q) * r_i(t)

where s_i(t) weighs how much follower i's attention is worth right now
and q prices each post.  Sampling from u(t) never stores clocks
individually: every unit of rank contributes one exponential clock, the
pending candidate is the minimum tick seen so far, and a rank jump of k
spawns the minimum of k clocks in one draw (one clock at k times the
rate).  Posting resets all ranks, so it also discards every clock.

A candidate commits once the next feed event falls at or after it: no
clock spawned later can tick earlier, so the decision is final and
causal.  State per follower is O(1): the rank and the shared candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import redqueen_posts, _clock_first_time
from .point_process import EventStream
from .feed_sim import merge_feeds

__all__ = [
    "StepSchedule",
    "RedQueenParams",
    "PolicyDecision",
    "RedQueenController",
    "optimal_intensity",
    "next_post_time",
    "run_redqueen_fast",
    "TuneResult",
    "tune_q",
]


@dataclass(frozen=True)
class StepSchedule:
    """Per-follower piecewise-constant weights on a shared time grid.

    ``values[i, k]`` applies on ``[knots[k], knots[k+1])``.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or values.ndim != 2:
            raise ValueError("knots must be 1-d and values 2-d")
        if knots.shape[0] != values.shape[1] + 1:
            raise ValueError("need one more knot than value columns")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float, n_followers: int, t0: float, tf: float) -> "StepSchedule":
        return cls(np.array([t0, tf]), np.full((n_followers, 1), float(value)))

    @property
    def n_followers(self) -> int:
        return int(self.values.shape[0])

    def value_at(self, i: int, t: float) -> float:
        k = int(np.searchsorted(self.knots, t, side="right")) - 1
        k = min(max(k, 0), self.values.shape[1] - 1)
        return float(self.values[i, k])


@dataclass(frozen=True)
class RedQueenParams:
    """Controller parameters: post price ``q`` and attention weights.

    ``significance`` of ``None`` means every follower weighs 1 at all
    times.  A scalar would scale ``q`` equivalently; the schedule form
    exists for time-varying weights.
    """

    q: float
    significance: StepSchedule | None = None

    def __post_init__(self):
        if not (self.q > 0) or not math.isfinite(self.q):
            raise ValueError("q must be positive and finite")

    def clocks(self, n_followers: int, t0: float, tf: float) -> tuple[np.ndarray, np.ndarray]:
        """Knots and per-follower clock rates ``sqrt(s_i / q)`` between them."""
        sched = self.significance
        if sched is None:
            knots = np.array([t0, tf], dtype=np.float64)
            values = np.ones((n_followers, 1))
        else:
            if sched.n_followers != n_followers:
                raise ValueError("significance schedule covers the wrong follower count")
            knots = sched.knots
            values = sched.values
        return knots, np.sqrt(values / self.q)


def optimal_intensity(ranks, params: RedQueenParams, t: float = 0.0) -> float:
    """Posting intensity sum_i sqrt(s_i(t)/q) * r_i(t) for the given ranks."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if params.significance is None:
        s = np.ones(ranks.shape[0])
    else:
        s = np.array([params.significance.value_at(i, t) for i in range(ranks.shape[0])])
    return float(np.sum(np.sqrt(s / params.q) * ranks))


@dataclass(frozen=True)
class PolicyDecision:
    """One committed post decision, with the state that justified it.

    ``post_time`` is ``inf`` when no post falls inside the window.
    ``clock_origin`` is the spawn time of the winning clock and
    ``clock_delta`` the sampled wait that produced the candidate.
    """

    post_time: float
    decided_at: float
    ranks: tuple
    clock_origin: float
    clock_delta: float


class RedQueenController:
    """Event-driven controller implementing the clock sampler.

    Draw order is fixed: one unit exponential per follower with a
    nonzero initial rank (by index), then one per observed feed event.
    The kernel fast path consumes the same order, so both produce
    identical posts from identical generator states.
    """

    def __init__(self, params: RedQueenParams, rng: np.random.Generator, record: bool = False):
        self.params = params
        self.rng = rng
        self.record = record
        self.decisions: list[PolicyDecision] = []
        self._started = False

    def start(self, t0: float, tf: float, n_followers: int, initial_ranks) -> None:
        self.t0 = float(t0)
        self.tf = float(tf)
        self._knots, self._clock_rates = self.params.clocks(n_followers, t0, tf)
        self.ranks = np.asarray(initial_ranks, dtype=np.int64).copy()
        self._candidate = math.inf
        self._winner = (math.nan, math.nan)  # (spawn time, delta) of the min tick
        self._started = True
        for i in range(n_followers):
            if self.ranks[i] > 0:
                self._spawn(self.t0, i, float(self.ranks[i]))

    def _spawn(self, tau: float, i: int, mult: float) -> None:
        e = self.rng.standard_exponential()
        tick = _clock_first_time(tau, i, mult, self._knots, self._clock_rates, self.tf, e)
        if tick < self._candidate:
            self._candidate = tick
            self._winner = (tau, tick - tau)

    @property
    def candidate(self) -> float:
        return self._candidate

    def observe_feed(self, t: float, follower: int) -> None:
        self.ranks[follower] += 1
        self._spawn(t, follower, 1.0)

    def observe_own_post(self, t: float) -> None:
        if self.record:
            self.decisions.append(self._decision(decided_at=t))
        self.ranks[:] = 0
        self._candidate = math.inf
        self._winner = (math.nan, math.nan)

    def _decision(self, decided_at: float) -> PolicyDecision:
        return PolicyDecision(
            post_time=self._candidate,
            decided_at=decided_at,
            ranks=tuple(int(r) for r in self.ranks),
            clock_origin=self._winner[0],
            clock_delta=self._winner[1],
        )


def next_post_time(
    feed,
    params: RedQueenParams,
    rng: np.random.Generator,
    t0: float,
    tf: float,
    initial_ranks=None,
    n_followers: int | None = None,
) -> PolicyDecision:
    """Run the clock sampler over one feed until its first decision commits.

    ``feed`` is an :class:`EventStream` (single follower) or an iterable
    of ``(t, follower_index)`` pairs in time order.  Returns the decision
    with ``post_time == inf`` when no post occurs inside the window; if
    the feed ends first, the pending candidate (already committed, since
    nothing else can precede it) is returned.
    """
    if isinstance(feed, EventStream):
        events = ((float(t), 0) for t in feed.times)
        n = 1
    else:
        events = iter(feed)
        n = n_followers if n_followers is not None else 1
    if initial_ranks is None:
        initial_ranks = np.zeros(n, dtype=np.int64)
    ctl = RedQueenController(params, rng, record=False)
    ctl.start(t0, tf, n, initial_ranks)
    for t, j in events:
        if not (t0 < t <= tf):
            raise ValueError("feed event outside the decision window")
        if ctl.candidate <= t:
            return ctl._decision(decided_at=t)
        ctl.observe_feed(t, j)
    return ctl._decision(decided_at=tf)


def run_redqueen_fast(
    feeds: list[EventStream],
    params: RedQueenParams,
    rng: np.random.Generator,
    t0: float,
    tf: float,
    initial_ranks=None,
    max_posts: int = 2**62,
) -> np.ndarray:
    """Post times from the kernel fast path (same draws as the controller).

    Without numba the kernel is the vectorized NumPy fallback, which draws
    its exponentials in bulk: the posts match the controller's bit for
    bit, but ``rng`` may end further along than the controller leaves it.
    Pass a generator used for this run only, as every caller in the
    package does (a fresh ``policy_rng(seed)`` per call).
    """
    n = len(feeds)
    if initial_ranks is None:
        initial_ranks = np.zeros(n, dtype=np.int64)
    initial_ranks = np.asarray(initial_ranks, dtype=np.int64)
    knots, clock_rates = params.clocks(n, t0, tf)
    feed_t, feed_j = merge_feeds([f.window(t0, tf) for f in feeds])
    return redqueen_posts(
        feed_t,
        feed_j,
        initial_ranks,
        knots,
        clock_rates,
        float(t0),
        float(tf),
        max_posts,
        rng,
    )


@dataclass(frozen=True)
class TuneResult:
    """Outcome of a budget search over q."""

    q: float
    mean_posts: float
    target: float
    converged: bool
    iterations: int
    message: str = ""


def tune_q(
    target_posts: float,
    mean_posts_fn,
    tolerance: float = 0.1,
    q0: float = 1.0,
    max_iter: int = 60,
    q_min: float = 1e-12,
    q_max: float = 1e15,
) -> TuneResult:
    """Find q whose mean post count hits ``target_posts`` within tolerance.

    ``mean_posts_fn(q)`` must average enough seeded runs to be stable;
    calling it with the same q must return the same value (use common
    seeds), which makes the bracketing/bisection on log q well behaved.
    Post counts fall as q rises.  When the target is unreachable the
    search stops at a bracket bound and reports ``converged=False``.
    """
    if not 0 < target_posts < math.inf:
        raise ValueError(f"target_posts must be positive and finite, got {target_posts!r}")
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    evals = 0

    def close(c):
        return abs(c - target_posts) <= tolerance * target_posts

    q = float(q0)
    c = mean_posts_fn(q)
    evals += 1
    best = (abs(c - target_posts), q, c)
    if close(c):
        return TuneResult(q, c, target_posts, True, evals)
    if c > target_posts:
        q_lo, c_lo = q, c
        while True:
            q = q * 4.0
            if q > q_max:
                return TuneResult(
                    q_lo, c_lo, target_posts, False, evals,
                    "target unreachable: post count stays above target up to q_max",
                )
            c = mean_posts_fn(q)
            evals += 1
            if abs(c - target_posts) < best[0]:
                best = (abs(c - target_posts), q, c)
            if close(c):
                return TuneResult(q, c, target_posts, True, evals)
            if c <= target_posts:
                q_hi, c_hi = q, c
                break
            q_lo, c_lo = q, c
    else:
        q_hi, c_hi = q, c
        while True:
            q = q / 4.0
            if q < q_min:
                return TuneResult(
                    q_hi, c_hi, target_posts, False, evals,
                    "target unreachable: post count stays below target down to q_min",
                )
            c = mean_posts_fn(q)
            evals += 1
            if abs(c - target_posts) < best[0]:
                best = (abs(c - target_posts), q, c)
            if close(c):
                return TuneResult(q, c, target_posts, True, evals)
            if c >= target_posts:
                q_lo, c_lo = q, c
                break
            q_hi, c_hi = q, c

    while evals < max_iter:
        q = math.sqrt(q_lo * q_hi)
        c = mean_posts_fn(q)
        evals += 1
        if abs(c - target_posts) < best[0]:
            best = (abs(c - target_posts), q, c)
        if close(c):
            return TuneResult(q, c, target_posts, True, evals)
        if c > target_posts:
            q_lo = q
        else:
            q_hi = q
    _, q_best, c_best = best
    return TuneResult(
        q_best, c_best, target_posts, False, evals,
        "no q within tolerance after max_iter evaluations; returning closest",
    )
