"""Feed visibility: where the broadcaster's latest post sits in each feed.

A broadcaster's post sits at some rank in each follower's feed: rank 0
means newest.  Every feed event pushes the broadcaster's latest post
down one slot; the broadcaster posting again puts it back at rank 0.
The rank in follower ``j``'s feed at time ``t`` is therefore the number
of feed events in ``(tau, t]`` where ``tau`` is the broadcaster's last
post at or before ``t`` (counting from the window start, plus any
initial rank, if there is no such post).

Once a policy has placed its posts, ``trajectory_from_posts`` computes
every follower's rank path at once with ``rank_path``; ``merge_feeds``
gives the controller the followers' events as one timeline.  The causal
loop that folds one event at a time (``simulate``) is the reference in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .point_process import EventStream

__all__ = [
    "rank_path",
    "SimulationTrajectory",
    "merge_feeds",
    "trajectory_from_posts",
]


def rank_path(
    feed_times: np.ndarray,
    own_posts: np.ndarray,
    t0: float,
    tf: float,
    initial_rank: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Full rank step function on [t0, tf] for one follower.

    Returns ``(times, values)`` with ``times[0] == t0``; the rank equals
    ``values[k]`` on ``[times[k], times[k+1])`` and on the final
    ``[times[-1], tf]``.  Vectorized; equivalent to folding
    ``rank_step`` (``tests/reference.py``) over the merged event
    sequence.  Assumes no own post shares a timestamp with a feed event
    (loaders and samplers keep all times distinct).
    """
    feed_times = np.asarray(feed_times, dtype=np.float64)
    own_posts = np.asarray(own_posts, dtype=np.float64)
    feed_times = feed_times[(feed_times > t0) & (feed_times <= tf)]
    own_posts = own_posts[(own_posts >= t0) & (own_posts <= tf)]
    change = np.concatenate([feed_times, own_posts])
    order = np.argsort(change, kind="stable")
    change = change[order]
    if change.shape[0] == 0:
        return np.array([t0]), np.array([initial_rank], dtype=np.int64)
    # side="right": a post at exactly t has already reset the rank at t
    post_idx = np.searchsorted(own_posts, change, side="right")
    feed_upto = np.searchsorted(feed_times, change, side="right")
    values = np.empty(change.shape[0], dtype=np.int64)
    no_post = post_idx == 0
    values[no_post] = initial_rank + feed_upto[no_post]
    has = ~no_post
    tau = own_posts[post_idx[has] - 1]
    values[has] = feed_upto[has] - np.searchsorted(feed_times, tau, side="right")
    times = np.concatenate([[t0], change])
    values = np.concatenate([[initial_rank], values])
    # collapse runs where the value did not change (e.g. post at rank 0)
    keep = np.concatenate([[True], values[1:] != values[:-1]])
    return times[keep], values[keep]


def merge_feeds(feeds: list[EventStream]) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-follower streams into (times, follower_index) arrays.

    Cross-follower ties are legitimate simultaneity (one upstream event
    can land in several feeds) and are kept, ordered by follower index.
    """
    if not feeds:
        return np.empty(0, np.float64), np.empty(0, np.int64)
    times = np.concatenate([f.times for f in feeds])
    idx = np.concatenate([np.full(len(f), j, dtype=np.int64) for j, f in enumerate(feeds)])
    order = np.argsort(times, kind="stable")
    return times[order], idx[order]


@dataclass
class SimulationTrajectory:
    """Everything one simulated window produced.

    Rank paths are step functions per follower: ``rank_values[i][k]``
    holds on ``[rank_times[i][k], rank_times[i][k+1])`` and the final
    value holds through ``tf``.
    """

    t0: float
    tf: float
    own_posts: np.ndarray
    feeds: list
    rank_times: list
    rank_values: list

    @property
    def n_followers(self) -> int:
        return len(self.feeds)

    @property
    def post_count(self) -> int:
        return int(self.own_posts.shape[0])


def trajectory_from_posts(
    feeds: list[EventStream],
    post_times: np.ndarray,
    t0: float,
    tf: float,
    initial_ranks=None,
) -> SimulationTrajectory:
    """Build a trajectory for known post times without running the loop.

    Uses the vectorized :func:`rank_path` per follower; equivalent to the
    reference loop ``simulate`` with a ``ScheduledController`` as long as
    no post shares a timestamp with a feed event.
    """
    n = len(feeds)
    if initial_ranks is None:
        initial_ranks = np.zeros(n, dtype=np.int64)
    posts = np.asarray(post_times, dtype=np.float64)
    posts = np.sort(posts[(posts >= t0) & (posts <= tf)])
    realized = [f.window(t0, tf) for f in feeds]
    rank_times = []
    rank_values = []
    for j in range(n):
        ts, vs = rank_path(realized[j].times, posts, t0, tf, int(initial_ranks[j]))
        rank_times.append(ts)
        rank_values.append(vs)
    return SimulationTrajectory(
        t0=t0,
        tf=tf,
        own_posts=posts,
        feeds=realized,
        rank_times=rank_times,
        rank_values=rank_values,
    )
