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
objective charges 0.5*widths[k]*r_{k+1}^2 per interval, 0.5*q per
post, and 0.5*r_{m+1}^2 at the horizon.  ``oracle_schedule`` solves it
by backward induction (ties hold).  Each stage posts iff its rank
reaches a threshold, so the induction keeps O(m) values instead of a
quadratic table.  Its scratch and each stage's scan still reach
``r0 + m + 2`` ranks, so its time stays quadratic in the worst case:
``MAX_ORACLE_STAGES`` caps m, and ``MAX_ORACLE_RANK`` caps r0.  ``brute_force_schedule`` in
``tests/reference.py`` enumerates every decision vector to cross-check
the induction; the two are compared through the same forward evaluator,
``schedule_cost``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .feed_sim import Feeds
from .kernels import oracle_decisions

__all__ = [
    "OracleInstance",
    "schedule_cost",
    "oracle_schedule",
    "instance_from_feed",
    "decisions_to_post_times",
]

MAX_ORACLE_STAGES = 20_000
#: Largest initial rank ``r0`` an instance may start from.
MAX_ORACLE_RANK = MAX_ORACLE_STAGES


@dataclass(frozen=True)
class OracleInstance:
    """One revealed single-follower feed: initial rank, interval widths, post price."""

    r0: int
    widths: np.ndarray
    q: float

    def __post_init__(self):
        widths = np.asarray(self.widths, dtype=np.float64)
        if widths.ndim != 1 or widths.shape[0] < 1:
            raise ValueError("need at least one interval width")
        if np.any(widths < 0):
            raise ValueError("interval widths cannot be negative")
        if not np.all(np.isfinite(widths)):
            k = int(np.flatnonzero(~np.isfinite(widths))[0])
            raise ValueError(f"widths must be finite, got {float(widths[k])} at stage {k}")
        if not 0 <= self.r0 <= MAX_ORACLE_RANK:
            raise ValueError(
                f"initial rank must be in [0, MAX_ORACLE_RANK = {MAX_ORACLE_RANK}], got {self.r0!r}"
            )
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {float(self.q)}")
        if self.q < 0:
            raise ValueError("q cannot be negative")
        object.__setattr__(self, "widths", widths)

    @property
    def n_stages(self) -> int:
        return int(self.widths.shape[0])


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
        cost += 0.5 * w * (r * r) + 0.5 * inst.q * uk
    return cost + 0.5 * (r * r)


def check_stages(n_stages: int) -> None:
    """Reject an instance of more than ``MAX_ORACLE_STAGES`` stages."""
    if n_stages > MAX_ORACLE_STAGES:
        raise ValueError(
            f"{n_stages} stages: the induction's worst-case work grows "
            f"with the square of the stage count and is capped at "
            f"{MAX_ORACLE_STAGES} stages - shrink the window or thin the feed"
        )


def oracle_schedule(inst: OracleInstance) -> np.ndarray:
    """Optimal decisions by backward induction: an ``int8`` 0/1 per stage."""
    check_stages(inst.n_stages)
    return oracle_decisions(inst.widths, int(inst.r0), float(inst.q))


def _one_follower(feeds: Feeds) -> np.ndarray:
    if len(feeds) != 1:
        raise ValueError(f"the clairvoyant schedule solves one follower's feed, got {len(feeds)}")
    return feeds.times


def instance_from_feed(feeds: Feeds, q: float) -> OracleInstance:
    """The stages of one follower's revealed feed, from its initial rank."""
    widths = np.diff(np.concatenate([[feeds.t0], _one_follower(feeds), [feeds.tf]]))
    return OracleInstance(r0=int(feeds.initial_ranks[0]), widths=widths, q=q)


def decisions_to_post_times(decisions, feeds: Feeds) -> np.ndarray:
    """Post times for a decision vector on one follower's feed: stage 0
    posts at the window start, stage k >= 1 one float step after the k-th
    feed event (so the post lands on the far side of the event it reacts
    to), or at ``tf`` when that event is at ``tf``, so the post stays in
    the window."""
    decisions = np.asarray(decisions)
    feed_times = _one_follower(feeds)
    if decisions.shape[0] != feed_times.shape[0] + 1:
        raise ValueError("need exactly one decision per stage")
    after = np.minimum(np.nextafter(feed_times[decisions[1:] != 0], math.inf), feeds.tf)
    return np.concatenate([[feeds.t0] if decisions[0] else [], after])
