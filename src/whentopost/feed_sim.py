"""Feed visibility: where the broadcaster's latest post sits in each feed.

A broadcaster's post sits at some rank in each follower's feed: rank 0
means newest.  Every feed event pushes the broadcaster's latest post
down one slot; the broadcaster posting again puts it back at rank 0.
The rank in follower ``j``'s feed at time ``t`` is therefore the number
of feed events in ``(tau, t]`` where ``tau`` is the broadcaster's last
post at or before ``t`` (counting from the window start, plus any
initial rank, if there is no such post).

Once a policy has placed its posts, ``trajectory_from_posts`` computes
every follower's rank path in one pass over the window's feed events,
laid out follower after follower: a fixed number of NumPy calls per
policy, whatever the number of followers, no sort, and arrays the size
of the feed events plus the followers, whatever the number of posts.  A
feed event's rank is its index in its feed, less the follower's feed
events at or before the last post.  A post only enters a follower's
path where it can take the rank back to 0: the window's first post, and
the first post after each of the follower's feed events.  The paths
come out as one flat table, as :class:`Feeds` lays out events, and
``rank_path`` is the same pass for one follower.  The causal loop
(``simulate``) is the reference in ``tests/reference.py``.

Every layer reads one window as one :class:`Feeds`, made once per feed
realization: the events on ``(t0, tf]``, the window itself and each
follower's starting rank, checked once when it is made.  ``Feeds.cut``
is the one place a feed is cut to the window, and no layer takes the
window or the ranks beside a ``Feeds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

__all__ = [
    "Feeds",
    "rank_path",
    "SimulationTrajectory",
    "trajectory_from_posts",
]


@dataclass(frozen=True, eq=False)
class Feeds:
    """One window ``(t0, tf]``: every follower's feed events on it, follower
    after follower, and the rank each follower starts it at.

    Follower ``j`` owns ``times[bounds[j]:bounds[j + 1]]``, strictly
    increasing, and starts at rank ``initial_ranks[j]`` (``int64``,
    default 0).  The constructor checks all of it once: finite
    ``t0 < tf``, every event in the window, and one nonnegative integer
    rank per follower.  ``len`` is the follower count, and iterating
    yields each follower's times in order.
    """

    times: np.ndarray
    bounds: np.ndarray
    t0: float
    tf: float
    initial_ranks: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        b = np.asarray(self.bounds, dtype=np.int64)
        t0, tf = float(self.t0), float(self.tf)
        if times.ndim != 1 or b.ndim != 1 or b[:1].tolist() != [0] or b[-1] != times.shape[0] or np.any(b[1:] < b[:-1]):
            raise ValueError("feeds need 1-d times, and bounds rising from 0 to the event count")
        if not -math.inf < t0 < tf < math.inf:
            raise ValueError(f"a feed window needs finite t0 < tf, got ({t0!r}, {tf!r}]")
        if times.shape[0] and not (t0 < times.min() and times.max() <= tf):
            raise ValueError(f"feed events must lie in the window ({t0!r}, {tf!r}]; cut them with Feeds.cut")
        n = b.shape[0] - 1
        ranks = np.zeros(n, np.int64) if self.initial_ranks is None else np.asarray(self.initial_ranks)
        if ranks.shape != (n,):
            raise ValueError(f"need one initial rank per feed ({n}), got shape {ranks.shape}")
        if n and ranks.dtype.kind not in "iu":
            raise ValueError(f"initial ranks must be nonnegative integers, got dtype {ranks.dtype}")
        if n and ranks.min() < 0:
            raise ValueError(f"initial ranks must be nonnegative integers, got {int(ranks.min())}")
        self.__dict__.update(times=times, bounds=b, t0=t0, tf=tf, initial_ranks=ranks.astype(np.int64))
        if not np.all((np.diff(times) > 0) | (np.diff(self.follower) > 0)):
            raise ValueError("each follower's event times must be strictly increasing")

    @classmethod
    def cut(cls, streams, t0: float, tf: float, initial_ranks=None) -> "Feeds":
        """The window ``(t0, tf]`` of one strictly increasing times array per follower,
        each follower starting at its entry of ``initial_ranks`` (default 0)."""
        streams = [np.asarray(s, dtype=np.float64) for s in streams]
        times = np.concatenate([np.empty(0), *streams])
        inside = (times > t0) & (times <= tf)
        follower = np.repeat(np.arange(len(streams)), [s.shape[0] for s in streams])[inside]
        bounds = np.append(0, np.cumsum(np.bincount(follower, minlength=len(streams))))
        return cls(times[inside], bounds, t0, tf, initial_ranks)

    def __len__(self) -> int:
        return self.bounds.shape[0] - 1

    def __iter__(self):
        return (self.times[a:b] for a, b in pairwise(self.bounds.tolist()))

    @property
    def follower(self) -> np.ndarray:
        """Each event's follower."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.bounds))

    @cached_property
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """Every event as one timeline, ``(times, follower)`` in time order; computed once.

        One upstream event can land in several feeds: such ties keep follower order.
        """
        order = np.argsort(self.times, kind="stable")
        return self.times[order], self.follower[order]


def _rank_paths(feeds, posts):
    """Every follower's rank step function in one pass.

    ``posts`` holds the sorted posts on the feeds' ``[t0, tf]``.  Returns
    ``(times, values, bounds)``: follower ``j``'s path is
    ``times[bounds[j]:bounds[j + 1]]`` (and the same slice of ``values``),
    the step function ``rank_path`` describes.
    """
    times, values, heads = _merged_entries(feeds, posts)
    # collapse runs where the value did not change (e.g. a post at rank 0)
    keep = np.empty(times.shape[0], bool)
    keep[1:] = values[1:] != values[:-1]
    keep[heads] = True
    bounds = np.zeros(len(feeds) + 1, np.int64)
    np.cumsum(np.add.reduceat(keep, heads, dtype=np.int64), out=bounds[1:])
    return times[keep], values[keep], bounds


def _merged_entries(feeds, posts):
    """Every follower's entries before equal neighbours collapse: ``(times, values, heads)``.

    Follower ``j``'s entries start at ``heads[j]`` with its head
    ``(t0, r0)``, then before each of its feed events and after the last
    one a slot for the first post after the event before (the first post
    of the window, for the first slot).  A slot holds that post, at rank
    0, if it comes no later than the next event; otherwise, or past the
    last post, it repeats the entry before it.  The collapse drops those
    repeats, as it drops every later post before the next event, which a
    slot never holds: each is at rank 0 after a post at rank 0.  A post
    at an event's own time lands in the slot before the event instead of
    after it, but both entries are then at that time at rank 0, so the
    collapse keeps the same one either way.
    """
    feed_times, first, follower = feeds.times, feeds.bounds, feeds.follower
    counts = np.diff(first)
    n = len(feeds)
    m = posts.shape[0]
    e = feed_times.shape[0]
    nonempty = counts > 0
    starts = first[:-1][nonempty]  # each nonempty follower's first event
    index = np.arange(e, dtype=np.int64)
    rank, upto = _feed_ranks(feed_times, follower, index, starts, posts, feeds.initial_ranks)

    heads = 2 * (first[:-1] + np.arange(n))
    feed_slot = 2 * (index + follower) + 2  # the slot before each event is feed_slot - 1
    ends = heads + 2 * counts + 1  # the slot after each follower's last event, its last entry
    after = np.zeros(e, np.int64)  # the first post after the event before
    after[1:] = upto[:-1]
    after[starts] = 0
    last = np.zeros(n, np.int64)
    last[nonempty] = upto[first[1:][nonempty] - 1]
    padded = np.append(posts, np.nan)  # a slot past the last post is dropped, whatever its time

    times = np.empty(2 * (e + n), np.float64)
    values = np.empty(2 * (e + n), np.int64)
    times[heads] = feeds.t0
    values[heads] = feeds.initial_ranks
    times[feed_slot] = feed_times
    values[feed_slot] = rank
    times[feed_slot - 1] = padded[after]
    values[feed_slot - 1] = np.where(upto > after, 0, values[feed_slot - 2])
    times[ends] = padded[last]
    values[ends] = np.where(last < m, 0, values[ends - 1])
    return times, values, heads


def _feed_ranks(feed_times, follower, index, starts, posts, initial_ranks):
    """Each feed event's rank, and the posts at or before it.

    The rank is the follower's events since its first one after the same
    last post (plus ``r0`` before any post), or 0 at a post of the event's
    own time.
    """
    before = np.searchsorted(posts, feed_times, "left")  # posts strictly before each event
    upto = np.searchsorted(posts, feed_times, "right")
    run = np.empty(feed_times.shape[0], bool)
    np.not_equal(before[1:], before[:-1], out=run[1:])
    run[starts] = True
    since = np.where(run, index, 0)
    np.maximum.accumulate(since, out=since)
    rank = index + 1 - since
    rank += np.where(upto == 0, initial_ranks[follower], 0)
    rank[upto > before] = 0
    return rank, upto


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
    sequence, a feed event before an own post at the same time.  Feed
    times must be strictly increasing and own posts sorted.
    """
    traj = trajectory_from_posts(Feeds.cut([feed_times], t0, tf, [initial_rank]), own_posts)
    return traj.times, traj.values


@dataclass(frozen=True, eq=False)
class SimulationTrajectory:
    """Everything one simulated window produced.

    Rank paths are step functions laid out as ``Feeds`` lays out events:
    follower ``j``'s rank is ``values[k]`` from ``times[k]`` to its next
    change point, for ``k`` in ``bounds[j]:bounds[j + 1]``, the last
    through the window's end, ``feeds.tf``.
    """

    own_posts: np.ndarray
    feeds: Feeds
    times: np.ndarray
    values: np.ndarray
    bounds: np.ndarray

    @property
    def post_count(self) -> int:
        return int(self.own_posts.shape[0])

    @property
    def rank_times(self) -> list:
        """Each follower's change points, as views into ``times``."""
        return [self.times[a:b] for a, b in pairwise(self.bounds.tolist())]

    @property
    def rank_values(self) -> list:
        """Each follower's ranks, as views into ``values``."""
        return [self.values[a:b] for a, b in pairwise(self.bounds.tolist())]


def trajectory_from_posts(feeds: Feeds, post_times: np.ndarray) -> SimulationTrajectory:
    """Build a trajectory for known post times without running the loop.

    Computes every follower's rank path on the feeds' window, from each
    follower's initial rank, in one pass (see the module docstring);
    equivalent to the reference loop ``simulate`` with a
    ``ScheduledController`` as long as no post shares a timestamp with a
    feed event.  Posts outside ``[t0, tf]`` are dropped.
    """
    posts = np.asarray(post_times, dtype=np.float64)
    posts = np.sort(posts[(posts >= feeds.t0) & (posts <= feeds.tf)])
    return SimulationTrajectory(posts, feeds, *_rank_paths(feeds, posts))
