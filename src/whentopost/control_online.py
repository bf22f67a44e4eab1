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
It reads the followers' events as one timeline, ``Feeds.merged``, which
each :class:`~whentopost.feed_sim.Feeds` computes once for every run.

The controller takes the feeds, the price q and one step table of the
weights s_i(t), whose knots span the feeds' window.  Its kernel reads
the clock rates sqrt(s_i / q) from that table, and the window from the
table's knots alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .feed_sim import Feeds
from .kernels import redqueen_posts
from .significance import StepSchedule

__all__ = [
    "run_redqueen_fast",
    "TuneResult",
    "tune_q",
]


def run_redqueen_fast(
    feeds: Feeds,
    q: float,
    rng: np.random.Generator,
    significance: StepSchedule | None = None,
    max_posts: int = 2**62,
) -> np.ndarray:
    """The controller's post times on the feeds' window, from their initial ranks.

    ``q`` prices each post: finite and normal, since below
    ``sys.float_info.min`` the rates sqrt(s / q) overflow.
    ``significance`` holds a row of attention weights per follower on
    knots from the feeds' ``t0`` to their ``tf`` exactly; ``None`` weighs
    every follower 1 at all times.  The kernel stops after ``max_posts``
    posts.  Its posts match, bit for bit, those of ``RedQueenController``,
    the one-event-at-a-time controller in ``tests/reference.py``.  Without
    numba the kernel is the vectorized NumPy fallback, which draws its
    exponentials in bulk, so ``rng`` may end further along than the
    controller leaves it.  Pass a generator used for this run only, as
    every caller in the package does (a fresh ``policy_rng(seed)`` per
    call).
    """
    if not sys.float_info.min <= q < math.inf:
        raise ValueError(f"q must be positive and finite, at least {sys.float_info.min!r}, got {q!r}")
    t0, tf = feeds.t0, feeds.tf
    if significance is None:
        significance = StepSchedule(np.array([t0, tf]), np.ones((len(feeds), 1)))
    knots, values = significance.knots, significance.values
    if values.shape[0] != len(feeds):
        raise ValueError("significance schedule covers the wrong follower count")
    if not (knots[0] == t0 and knots[-1] == tf):
        raise ValueError(
            f"significance schedule on [{float(knots[0])!r}, {float(knots[-1])!r}] "
            f"does not span the window ({t0!r}, {tf!r}]"
        )
    feed_t, feed_j = feeds.merged
    return redqueen_posts(feed_t, feed_j, feeds.initial_ranks, knots, np.sqrt(values / q), max_posts, rng)


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
    Post counts fall as q rises.  From ``Q_START`` the search steps q by
    4 in the direction its first count calls for until the count crosses
    the target, then bisects; a step past ``Q_MIN`` or ``Q_MAX`` returns
    the last price evaluated with ``converged=False``.

    ``lower_bound_fn(q)``, if given, returns a cheaper value no greater
    than ``mean_posts_fn(q)``, such as the mean of post counts capped a
    little above the target.  A bound above the target and outside the
    tolerance band decides the evaluation: the exact mean lies at least
    as far above the band (``abs(c - target)`` rises with ``c`` above the
    target, in floats too), so the search takes the same step.  Any other
    bound is dropped and ``mean_posts_fn`` called.  Bounds never reach
    the result: the unreachable return makes the last price's count
    exact, and the ``MAX_ITER`` return makes every bound exact before
    picking the first closest evaluation.  The result, ``iterations``
    included, is the same as without ``lower_bound_fn``; an exact
    re-evaluation is not an iteration.
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
    up = c > target_posts  # too many posts: raise q until the count falls below the target
    while not close(c) and (c > target_posts) == up:
        q = q * 4.0 if up else q / 4.0
        if not Q_MIN <= q <= Q_MAX:
            end = "above target up to q_max" if up else "below target down to q_min"
            return TuneResult(
                trace[-1][0], exact(trace[-1]), target_posts, False, len(trace),
                f"target unreachable: post count stays {end}",
            )
        c = evaluate(q)
    q_lo, q_hi = (q / 4.0, q) if up else (q, q * 4.0)  # the last step crossed the target
    while not close(c) and len(trace) < MAX_ITER:
        q = math.sqrt(q_lo * q_hi)
        c = evaluate(q)
        if c > target_posts:
            q_lo = q
        else:
            q_hi = q
    if close(c):
        return TuneResult(q, c, target_posts, True, len(trace))
    # the first evaluation closest to the target, as strict-< updates in order pick it
    q_best, c_best, _ = min(trace, key=lambda entry: abs(exact(entry) - target_posts))
    return TuneResult(
        q_best, c_best, target_posts, False, len(trace),
        "no q within tolerance after max_iter evaluations; returning closest",
    )
