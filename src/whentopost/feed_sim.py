"""Feed visibility dynamics and the discrete-event simulation loop.

A broadcaster's post sits at some rank in each follower's feed: rank 0
means newest.  Every feed event pushes the broadcaster's latest post
down one slot; the broadcaster posting again puts it back at rank 0.
The rank in follower ``j``'s feed at time ``t`` is therefore the number
of feed events in ``(tau, t]`` where ``tau`` is the broadcaster's last
post at or before ``t`` (counting from the window start, plus any
initial rank, if there is no such post).

``simulate`` advances a single merged timeline of feed events and the
controller's pending post candidate; there is no fixed time step.  The
controller only ever sees events up to the current instant, so its
decisions are causal by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .point_process import EventStream, HawkesParams, PiecewiseRate, sample_hawkes, sample_piecewise_poisson

__all__ = [
    "Network",
    "RankState",
    "rank_step",
    "rank_from_history",
    "rank_path",
    "SimulationTrajectory",
    "simulate",
    "merge_feeds",
    "ScheduledController",
    "trajectory_from_posts",
]


@dataclass(frozen=True)
class Network:
    """Who-follows-whom, as two adjacency maps over string ids."""

    followers_of: dict
    followees_of: dict

    @classmethod
    def from_edges(cls, edges) -> "Network":
        """Build from (broadcaster_id, follower_id) pairs; duplicates collapse."""
        followers_of: dict[str, set] = {}
        followees_of: dict[str, set] = {}
        for b, f in edges:
            followers_of.setdefault(b, set()).add(f)
            followees_of.setdefault(f, set()).add(b)
        return cls(followers_of, followees_of)

    def followers(self, broadcaster: str) -> list:
        return sorted(self.followers_of.get(broadcaster, ()))

    def followees(self, follower: str) -> list:
        return sorted(self.followees_of.get(follower, ()))


@dataclass(frozen=True)
class RankState:
    """Ranks of the broadcaster's latest post, one per follower, at ``as_of``."""

    ranks: np.ndarray
    as_of: float
    last_own_post: float | None = None

    def __post_init__(self):
        ranks = np.asarray(self.ranks, dtype=np.int64)
        if ranks.min(initial=0) < 0:
            raise ValueError("ranks cannot be negative")
        object.__setattr__(self, "ranks", ranks)


def rank_step(state: RankState, t: float, follower: int | None) -> RankState:
    """Fold one event into the rank state.

    ``follower`` is the index whose feed received an event, or ``None``
    for the broadcaster's own post (which resets every rank to 0).
    Events must arrive in time order.
    """
    if t < state.as_of:
        raise ValueError("events must be folded in time order")
    ranks = state.ranks.copy()
    if follower is None:
        ranks[:] = 0
        return _trusted_state(ranks, t, t)
    ranks[follower] += 1
    return _trusted_state(ranks, t, state.last_own_post)


def _trusted_state(ranks: np.ndarray, as_of: float, last_own_post) -> RankState:
    """A :class:`RankState` built without ``__post_init__``.

    For ranks already known to be a non-negative int64 array, such as
    the ones :func:`rank_step` derives from a valid state.
    """
    state = object.__new__(RankState)
    state.__dict__.update(ranks=ranks, as_of=as_of, last_own_post=last_own_post)
    return state


def rank_from_history(
    own_posts: np.ndarray,
    feed_times: np.ndarray,
    t: float,
    initial_rank: int = 0,
) -> int:
    """Rank at ``t`` computed directly from the two event histories.

    Counts feed events in ``(tau, t]`` for ``tau`` the last own post at
    or before ``t``; with no such post, counts from the start and adds
    ``initial_rank``.
    """
    own_posts = np.asarray(own_posts, dtype=np.float64)
    feed_times = np.asarray(feed_times, dtype=np.float64)
    # the array method skips np.searchsorted's Python-level dispatch,
    # which costs more than the search itself on one-event calls
    i = int(own_posts.searchsorted(t, side="right"))
    upto = int(feed_times.searchsorted(t, side="right"))
    if i == 0:
        return initial_rank + upto
    tau = own_posts[i - 1]
    return upto - int(feed_times.searchsorted(tau, side="right"))


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
    :func:`rank_step` over the merged event sequence.  Assumes no own
    post shares a timestamp with a feed event (loaders and samplers
    keep all times distinct).
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
    decisions: list = field(default_factory=list)

    @property
    def n_followers(self) -> int:
        return len(self.feeds)

    @property
    def post_count(self) -> int:
        return int(self.own_posts.shape[0])

    def final_ranks(self) -> np.ndarray:
        return np.array([v[-1] for v in self.rank_values], dtype=np.int64)


class ScheduledController:
    """Posts at fixed times, ignoring the feed entirely."""

    def __init__(self, post_times):
        self._times = np.sort(np.asarray(post_times, dtype=np.float64))
        self._next = 0

    def start(self, t0: float, tf: float, n_followers: int, initial_ranks) -> None:
        self._next = int(np.searchsorted(self._times, t0, side="left"))

    @property
    def candidate(self) -> float:
        if self._next < self._times.shape[0]:
            return float(self._times[self._next])
        return math.inf

    def observe_feed(self, t: float, follower: int) -> None:
        pass

    def observe_own_post(self, t: float) -> None:
        self._next += 1


def trajectory_from_posts(
    feeds: list[EventStream],
    post_times: np.ndarray,
    t0: float,
    tf: float,
    initial_ranks=None,
) -> SimulationTrajectory:
    """Build a trajectory for known post times without running the loop.

    Uses the vectorized :func:`rank_path` per follower; equivalent to
    ``simulate`` with a :class:`ScheduledController` as long as no post
    shares a timestamp with a feed event.
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


def _materialize_feed(feed, t0: float, tf: float, rng: np.random.Generator) -> EventStream:
    if isinstance(feed, EventStream):
        return feed.window(t0, tf)
    if isinstance(feed, HawkesParams):
        return sample_hawkes(feed, t0, tf, rng)
    if isinstance(feed, PiecewiseRate):
        return sample_piecewise_poisson(feed, t0, tf, rng)
    raise TypeError(f"cannot build a feed from {type(feed).__name__}")


def simulate(
    feeds,
    controller,
    t0: float,
    tf: float,
    feed_rngs=None,
    initial_ranks=None,
) -> SimulationTrajectory:
    """Run one window: merged feed events versus the controller's candidate.

    ``feeds`` is one entry per follower: a recorded :class:`EventStream`,
    or a generative model (:class:`HawkesParams` / :class:`PiecewiseRate`)
    sampled here with that follower's generator from ``feed_rngs``.  The
    controller is driven through its protocol: ``start``, ``observe_feed``,
    ``observe_own_post``, and the ``candidate`` property.  Feed streams
    never depend on the controller's generator, so a policy change cannot
    perturb the traffic it is reacting to.

    On equal times the post wins: a candidate at exactly the next feed
    event's time commits first, and the feed event lands after it.
    """
    if tf < t0:
        raise ValueError("tf must not precede t0")
    feeds = list(feeds)
    n = len(feeds)
    if initial_ranks is None:
        initial_ranks = np.zeros(n, dtype=np.int64)
    initial_ranks = np.asarray(initial_ranks, dtype=np.int64)
    if initial_ranks.shape != (n,):
        raise ValueError("need one initial rank per follower")
    realized = []
    for j, feed in enumerate(feeds):
        rng_j = None if feed_rngs is None else feed_rngs[j]
        if not isinstance(feed, EventStream) and rng_j is None:
            raise ValueError("generative feeds need feed_rngs")
        realized.append(_materialize_feed(feed, t0, tf, rng_j))
    feed_t, feed_j = merge_feeds(realized)

    controller.start(t0, tf, n, initial_ranks)
    ranks = initial_ranks.copy()
    posts = []
    rank_times = [[t0] for _ in range(n)]
    rank_values = [[int(initial_ranks[j])] for j in range(n)]
    k = 0
    m = feed_t.shape[0]
    last_t = t0
    while True:
        cand = controller.candidate
        if cand < last_t:
            raise ValueError(f"controller proposed a post at {cand}, before {last_t}")
        t_feed = feed_t[k] if k < m else math.inf
        t_next = min(cand, t_feed)
        if t_next > tf or t_next == math.inf:
            break
        last_t = t_next
        if cand <= t_feed:
            posts.append(cand)
            for j in range(n):
                if rank_values[j][-1] != 0:
                    rank_times[j].append(cand)
                    rank_values[j].append(0)
            ranks[:] = 0
            controller.observe_own_post(cand)
        else:
            j = int(feed_j[k])
            ranks[j] += 1
            rank_times[j].append(t_feed)
            rank_values[j].append(int(ranks[j]))
            controller.observe_feed(t_feed, j)
            k += 1

    return SimulationTrajectory(
        t0=t0,
        tf=tf,
        own_posts=np.asarray(posts, dtype=np.float64),
        feeds=realized,
        rank_times=[np.asarray(ts, dtype=np.float64) for ts in rank_times],
        rank_values=[np.asarray(vs, dtype=np.int64) for vs in rank_values],
        decisions=list(getattr(controller, "decisions", [])),
    )
