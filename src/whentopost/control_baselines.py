"""Reference posting policies the controller is judged against.

* ``uniform_poisson_posts``: a homogeneous Poisson poster whose expected
  count matches the budget - feed-blind.
* ``true_posts_playback``: replay the broadcaster's recorded posts.
* ``segment_offline_posts``: an offline planner that knows the
  followers' summed feed rate on each segment, splits an integer budget
  across segments by greedy marginal gain, and spaces posts evenly
  inside each segment.
"""

from __future__ import annotations

import heapq

import numpy as np

from .significance import StepSchedule

__all__ = [
    "uniform_poisson_posts",
    "true_posts_playback",
    "segment_offline_posts",
]


def uniform_poisson_posts(
    budget: float,
    t0: float,
    tf: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Poisson(budget) many posts, uniformly placed on (t0, tf)."""
    if budget < 0:
        raise ValueError("budget cannot be negative")
    if tf <= t0:
        return np.empty(0, np.float64)
    count = int(rng.poisson(budget))
    return np.sort(t0 + rng.random(count) * (tf - t0))


def true_posts_playback(recorded: np.ndarray) -> np.ndarray:
    """A copy of the recorded posting times, unchanged."""
    return np.array(recorded, dtype=np.float64)


def segment_offline_posts(
    rate: StepSchedule,
    budget: int,
    t0: float,
    tf: float,
) -> np.ndarray:
    """Greedy budget split across segments, posts evenly spaced within each.

    ``rate`` is the followers' summed feed rate, a one-row table covering
    the window.
    Each budget unit goes to the segment whose modeled cost drops the
    most (ties: earliest segment); a segment of length L and total feed
    rate R modeled with n evenly spaced posts costs R * L^2 / (2 * (n + 1))
    (``segment_cost_model`` in ``tests/reference.py``).  A segment given
    n posts places them at its start and every L/n thereafter.
    Deterministic; scaling all rates by one constant changes nothing.
    """
    if budget < 0:
        raise ValueError("budget cannot be negative")
    if rate.values.shape[0] != 1:
        raise ValueError(f"the summed feed rate is a one-row table, got {rate.values.shape[0]} rows")
    if not rate.covers(t0, tf):
        raise ValueError("rate does not cover the posting window")
    # clip the grid to the window; each segment reads the rate it starts in
    knots = rate.knots
    inner = knots[(knots > t0) & (knots < tf)]
    edges = np.concatenate([[t0], inner, [tf]])
    lengths = np.diff(edges)
    seg = np.minimum(np.searchsorted(knots, edges[:-1], side="right") - 1, knots.shape[0] - 2)
    total = rate.values[0, seg]
    nseg = lengths.shape[0]
    alloc = np.zeros(nseg, dtype=np.int64)
    # max-heap on marginal gain; index breaks ties toward earlier segments
    base = total * lengths * lengths / 2.0

    def gain(k: int) -> float:
        n = alloc[k]
        return base[k] * (1.0 / (n + 1.0) - 1.0 / (n + 2.0))

    heap = [(-gain(k), k) for k in range(nseg)]
    heapq.heapify(heap)
    for _ in range(int(budget)):
        g, k = heapq.heappop(heap)
        alloc[k] += 1
        heapq.heappush(heap, (-gain(k), k))
    # post j of segment k sits at edges[k] + j * (lengths[k] / alloc[k]); empty segments repeat nothing
    j = np.arange(alloc.sum()) - np.repeat(np.cumsum(alloc) - alloc, alloc)
    return np.repeat(edges[:-1], alloc) + j * np.repeat(lengths / np.maximum(alloc, 1), alloc)
