"""Clairvoyant posting schedules for a fully revealed feed.

With the feed known in advance, the best schedule only ever posts at
the window start or immediately after a feed event, so the problem is
discrete: one post/hold decision per stage k = 0..m, where stage 0 is
the window start and stage k >= 1 follows the k-th feed event.
``widths[k]`` is the time until the next stage (or the horizon).

The controlled rank recursion is r_{k+1} = (r_k + 1)(1 - u_k): the
stage's rank is bumped, then cleared if the decision was to post.  The
bump applies at stage 0 too, so the model behaves as if one story
arrived the moment the window opened; r0 is the rank just before.  The
objective charges 0.5*s*widths[k]*r_{k+1}^2 per interval, 0.5*q per
post, and 0.5*r_{m+1}^2 at the horizon.  ``oracle_schedule`` solves it
by backward induction (ties hold).  Each stage posts iff its rank
reaches a threshold, so the induction keeps O(m) values instead of a
quadratic table; its time stays quadratic in the worst case, which
``MAX_ORACLE_STAGES`` bounds.  ``brute_force_schedule`` in
``tests/reference.py`` enumerates every decision vector to cross-check
the induction; both report the cost through the same forward
evaluator, ``schedule_cost``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import oracle_decisions

__all__ = [
    "OracleInstance",
    "OracleSchedule",
    "schedule_cost",
    "oracle_schedule",
    "instance_from_feed",
    "decisions_to_post_times",
]

MAX_ORACLE_STAGES = 20_000


@dataclass(frozen=True)
class OracleInstance:
    """One revealed single-follower feed: initial rank, interval widths, prices."""

    r0: int
    widths: np.ndarray
    q: float
    s: float = 1.0

    def __post_init__(self):
        widths = np.asarray(self.widths, dtype=np.float64)
        if widths.ndim != 1 or widths.shape[0] < 1:
            raise ValueError("need at least one interval width")
        if np.any(widths < 0):
            raise ValueError("interval widths cannot be negative")
        if not np.all(np.isfinite(widths)):
            k = int(np.flatnonzero(~np.isfinite(widths))[0])
            raise ValueError(f"widths must be finite, got {float(widths[k])} at stage {k}")
        if self.r0 < 0:
            raise ValueError("initial rank cannot be negative")
        for name, price in (("q", self.q), ("s", self.s)):
            if not math.isfinite(price):
                raise ValueError(f"{name} must be finite, got {float(price)}")
        if self.q < 0 or self.s < 0:
            raise ValueError("prices cannot be negative")
        object.__setattr__(self, "widths", widths)

    @property
    def n_stages(self) -> int:
        return int(self.widths.shape[0])


@dataclass(frozen=True)
class OracleSchedule:
    """A 0/1 decision per stage plus the cost of replaying those decisions."""

    decisions: np.ndarray
    cost: float

    @property
    def post_count(self) -> int:
        return int(np.sum(self.decisions))


def schedule_cost(decisions, inst: OracleInstance) -> float:
    """Forward objective of one decision vector (the shared evaluator).

    One scalar pass with the float expressions of ``schedule_cost_batch``
    (``tests/reference.py``), so the two agree bit for bit.
    """
    u = np.asarray(decisions, dtype=np.float64)
    if u.shape != (inst.n_stages,):
        raise ValueError("need exactly one decision per stage")
    r = float(inst.r0)
    cost = 0.0
    for w, uk in zip(inst.widths.tolist(), u.tolist()):
        r = (r + 1.0) * (1.0 - uk)
        cost += 0.5 * inst.s * w * (r * r) + 0.5 * inst.q * uk
    return cost + 0.5 * (r * r)


def oracle_schedule(inst: OracleInstance) -> OracleSchedule:
    """Optimal decisions by backward induction; cost via the forward evaluator."""
    if inst.n_stages > MAX_ORACLE_STAGES:
        raise ValueError(
            f"{inst.n_stages} stages: the induction's worst-case work grows "
            f"with the square of the stage count and is capped at "
            f"{MAX_ORACLE_STAGES} stages - shrink the window or thin the feed"
        )
    decisions = oracle_decisions(inst.widths, int(inst.r0), float(inst.q), float(inst.s))
    return OracleSchedule(decisions, schedule_cost(decisions, inst))


def instance_from_feed(
    feed_times: np.ndarray,
    t0: float,
    tf: float,
    q: float,
    s: float = 1.0,
    r0: int = 0,
) -> OracleInstance:
    """Build the stage widths for a revealed feed on (t0, tf]."""
    ts = np.asarray(feed_times, dtype=np.float64)
    ts = ts[(ts > t0) & (ts <= tf)]
    widths = np.diff(np.concatenate([[t0], ts, [tf]]))
    return OracleInstance(r0=r0, widths=widths, q=q, s=s)


def decisions_to_post_times(decisions, feed_times, t0: float, tf: float) -> np.ndarray:
    """Post times for a decision vector: stage 0 posts at the window start,
    stage k >= 1 one float step after the k-th feed event (so the post
    lands on the far side of the event it reacts to), or at ``tf`` when
    that event is at ``tf``, so the post stays in the window (t0, tf]."""
    decisions = np.asarray(decisions)
    feed_times = np.asarray(feed_times, dtype=np.float64)
    if decisions.shape[0] != feed_times.shape[0] + 1:
        raise ValueError("need exactly one decision per stage")
    times = []
    if decisions[0]:
        times.append(t0)
    for k in range(feed_times.shape[0]):
        if decisions[k + 1]:
            times.append(min(np.nextafter(feed_times[k], math.inf), tf))
    return np.asarray(times, dtype=np.float64)
