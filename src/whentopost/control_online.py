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

from .kernels import redqueen_posts
from .point_process import EventStream
from .feed_sim import merge_feeds
from .significance import StepSchedule

__all__ = [
    "RedQueenParams",
    "run_redqueen_fast",
    "TuneResult",
    "tune_q",
]


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


def merge_window(feeds: list[EventStream], t0: float, tf: float) -> tuple[np.ndarray, np.ndarray]:
    """The followers' events on (t0, tf] as one time-ordered ``(times, follower)`` pair."""
    return merge_feeds([f.window(t0, tf) for f in feeds])


def run_redqueen_fast(
    feeds: list[EventStream],
    params: RedQueenParams,
    rng: np.random.Generator,
    t0: float,
    tf: float,
    initial_ranks=None,
    max_posts: int = 2**62,
    merged: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Post times from the kernel fast path (same draws as ``RedQueenController``).

    The kernel reads the feeds as one time-ordered stream,
    ``merge_window(feeds, t0, tf)``.  A caller that runs the same feeds at
    many prices builds it once and passes it as ``merged``; otherwise
    every call windows and merges ``feeds`` itself.

    Without numba the kernel is the vectorized NumPy fallback, which draws
    its exponentials in bulk: the posts match the controller's (in
    ``tests/reference.py``) bit for bit, but ``rng`` may end further along
    than the controller leaves it.
    Pass a generator used for this run only, as every caller in the
    package does (a fresh ``policy_rng(seed)`` per call).
    """
    n = len(feeds)
    if initial_ranks is None:
        initial_ranks = np.zeros(n, dtype=np.int64)
    initial_ranks = np.asarray(initial_ranks, dtype=np.int64)
    knots, clock_rates = params.clocks(n, t0, tf)
    feed_t, feed_j = merge_window(feeds, t0, tf) if merged is None else merged
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


#: ``tune_q``'s first price, the prices past which it calls a target
#: unreachable, and the evaluations after which it returns the closest.
Q_START = 1.0
Q_MIN = 1e-12
Q_MAX = 1e15
MAX_ITER = 60


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
    lower_bound_fn=None,
) -> TuneResult:
    """Find q whose mean post count hits ``target_posts`` within tolerance.

    ``mean_posts_fn(q)`` must average enough seeded runs to be stable;
    calling it with the same q must return the same value (use common
    seeds), which makes the bracketing/bisection on log q well behaved.
    Post counts fall as q rises.  The search starts at ``Q_START``; when
    the target is unreachable within ``[Q_MIN, Q_MAX]`` it stops at a
    bracket bound and reports ``converged=False``.

    ``lower_bound_fn(q)``, if given, returns a cheaper value no greater
    than ``mean_posts_fn(q)``, such as the mean of post counts capped a
    little above the target.  A bound above the target and outside the
    tolerance band decides the evaluation: the exact mean lies at least
    as far above the band (``abs(c - target)`` rises with ``c`` above the
    target, in floats too), so the search takes the same step.  Any other
    bound is dropped and ``mean_posts_fn`` called.  Bounds never reach
    the result: the "unreachable up to q_max" return makes the last
    bracket bound exact, and the ``MAX_ITER`` return makes every bound
    exact before picking the first closest evaluation.  The result,
    ``iterations`` included, is the same as without ``lower_bound_fn``;
    an exact re-evaluation is not an iteration.
    """
    if not 0 < target_posts < math.inf:
        raise ValueError(f"target_posts must be positive and finite, got {target_posts!r}")
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    trace = []  # [q, mean posts or its lower bound, exact?] per evaluation, in order

    def close(c):
        return abs(c - target_posts) <= tolerance * target_posts

    def evaluate(q):
        if lower_bound_fn is not None:
            c = lower_bound_fn(q)
            if c > target_posts and not close(c):
                trace.append([q, c, False])
                return c
        c = mean_posts_fn(q)
        trace.append([q, c, True])
        return c

    def exact(entry):
        if not entry[2]:
            entry[1:] = mean_posts_fn(entry[0]), True
        return entry[1]

    q = Q_START
    c = evaluate(q)
    if close(c):
        return TuneResult(q, c, target_posts, True, len(trace))
    if c > target_posts:
        q_lo = q
        while True:
            q = q * 4.0
            if q > Q_MAX:
                return TuneResult(
                    q_lo, exact(trace[-1]), target_posts, False, len(trace),
                    "target unreachable: post count stays above target up to q_max",
                )
            c = evaluate(q)
            if close(c):
                return TuneResult(q, c, target_posts, True, len(trace))
            if c <= target_posts:
                q_hi = q
                break
            q_lo = q
    else:
        q_hi, c_hi = q, c
        while True:
            q = q / 4.0
            if q < Q_MIN:
                return TuneResult(
                    q_hi, c_hi, target_posts, False, len(trace),
                    "target unreachable: post count stays below target down to q_min",
                )
            c = evaluate(q)
            if close(c):
                return TuneResult(q, c, target_posts, True, len(trace))
            if c >= target_posts:
                q_lo = q
                break
            q_hi, c_hi = q, c

    while len(trace) < MAX_ITER:
        q = math.sqrt(q_lo * q_hi)
        c = evaluate(q)
        if close(c):
            return TuneResult(q, c, target_posts, True, len(trace))
        if c > target_posts:
            q_lo = q
        else:
            q_hi = q
    # the first evaluation closest to the target, as strict-< updates in order pick it
    q_best, c_best, _ = min(trace, key=lambda entry: abs(exact(entry) - target_posts))
    return TuneResult(
        q_best, c_best, target_posts, False, len(trace),
        "no q within tolerance after max_iter evaluations; returning closest",
    )
