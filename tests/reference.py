"""Independent references that tests check production code against.

No command runs this code.  Each piece computes what a production path
in ``src/whentopost`` computes, by another route or one step at a time
(the causal simulation loop and its controller class, the merge of
per-follower streams into one timeline, the step-rate feed sampler
segment by segment, rank folding, the
oracle's value table and exhaustive search, per-follower profiles and
metrics, a profile written one row at a time, an event log read one line
at a time), or reads back a file a command writes.  A few constructors and
lookups that only tests need (an event log coded from a list of string
sources, a constant step table, a step table's value at a time) live
here too, so every setting and method in the package is one a command
uses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from itertools import product
from unittest import mock

import numpy as np

from whentopost import data_io
from whentopost.control_oracle import OracleInstance
from whentopost.data_io import REPORT_HEADER, DataFormatError, EventLog
from whentopost.feed_sim import Feeds, SimulationTrajectory
from whentopost.metrics import MetricsReport
from whentopost.point_process import HawkesParams, _dedupe_increasing, sample_hawkes, sample_piecewise_poisson
from whentopost.significance import NORMALIZATION, SignificanceProfile, StepSchedule, bucket_count


# The oracle: kernels.oracle_decisions and control_oracle.schedule_cost.


def _value_table(widths, r0, q):
    """The full ``(m+2) x (r0+m+2)`` value table, one row per stage."""
    mp1 = widths.shape[0]
    size = r0 + mp1 + 1
    table = np.empty((mp1 + 1, size), np.float64)
    ranks = np.arange(size, dtype=np.float64)
    table[mp1] = 0.5 * ranks * ranks
    bumped_sq = (ranks + 1.0) * (ranks + 1.0)
    for k in range(mp1 - 1, -1, -1):
        post = 0.5 * q + table[k + 1, 0]
        top = r0 + k + 1
        hold = 0.5 * widths[k] * bumped_sq[:top] + table[k + 1, 1 : top + 1]
        table[k, :top] = np.minimum(post, hold)
    return table


def oracle_decisions_table(widths, r0, q):
    """Backward induction over the full ``(m+2) x (r0+m+2)`` value table.

    Same problem and tie rule as ``kernels.oracle_decisions``, solved
    without the threshold argument: every reachable rank of every stage
    gets its value.  Memory is quadratic in the number of stages, so
    this serves as a reference only.
    """
    widths = np.asarray(widths, np.float64)
    mp1 = widths.shape[0]
    table = _value_table(widths, r0, q)
    decisions = np.zeros(mp1, np.int8)
    r = r0
    for k in range(mp1):
        post = 0.5 * q + table[k + 1, 0]
        bumped = r + 1.0
        hold = 0.5 * widths[k] * (bumped * bumped) + table[k + 1, r + 1]
        if post < hold:
            decisions[k] = 1
            r = 0
        else:
            r = r + 1
    return decisions


def oracle_thresholds_table(widths, r0, q):
    """Each stage's threshold ``T_k`` read off the full value table.

    ``T_k`` is the first reachable rank whose hold cost exceeds the
    post cost, or ``r0 + k + 1`` when no reachable rank posts.
    """
    widths = np.asarray(widths, np.float64)
    table = _value_table(widths, r0, q)
    ranks = np.arange(table.shape[1], dtype=np.float64)
    bumped_sq = (ranks + 1.0) * (ranks + 1.0)
    thresholds = []
    for k in range(widths.shape[0]):
        top = r0 + k + 1
        hold = 0.5 * widths[k] * bumped_sq[:top] + table[k + 1, 1 : top + 1]
        posts = np.flatnonzero(0.5 * q + table[k + 1, 0] < hold)
        thresholds.append(int(posts[0]) if posts.size else top)
    return thresholds


MAX_BRUTE_FORCE_STAGES = 22


def schedule_cost_batch(decisions: np.ndarray, inst: OracleInstance) -> np.ndarray:
    """Forward objective of each row of a 0/1 decision matrix (brute force's enumerator)."""
    u = np.asarray(decisions, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != inst.n_stages:
        raise ValueError("decision rows must have one entry per stage")
    r = np.full(u.shape[0], float(inst.r0))
    cost = np.zeros(u.shape[0])
    for k in range(inst.n_stages):
        r = (r + 1.0) * (1.0 - u[:, k])
        cost += 0.5 * inst.widths[k] * (r * r) + 0.5 * inst.q * u[:, k]
    cost += 0.5 * (r * r)
    return cost


def brute_force_schedule(inst: OracleInstance) -> np.ndarray:
    """Exhaustive minimum over all 2^(m+1) decision vectors (small m only): its ``int8`` decisions."""
    m1 = inst.n_stages
    if m1 > MAX_BRUTE_FORCE_STAGES:
        raise ValueError(f"brute force is capped at {MAX_BRUTE_FORCE_STAGES} stages")
    n = 1 << m1
    rows = (np.arange(n, dtype=np.int64)[:, None] >> np.arange(m1)) & 1
    costs = schedule_cost_batch(rows.astype(np.float64), inst)
    return rows[int(np.argmin(costs))].astype(np.int8)


def brute_force_schedule_multi(
    feeds: list[np.ndarray],
    t0: float,
    tf: float,
    q: float,
    r0s=None,
) -> tuple[np.ndarray, float]:
    """Exhaustive schedule search with one rank per follower (tiny scale).

    Decision stages sit at the window start and after each merged feed
    event; ranks evolve physically (a stage only bumps the followers
    whose feeds fired there).  Returns the best 0/1 decision vector and
    its cost 0.5*sum_i integral(r_i^2) + 0.5*q*posts +
    0.5*sum_i r_i(tf)^2.
    """
    n = len(feeds)
    feeds = [np.asarray(f, dtype=np.float64) for f in feeds]
    r0s = np.zeros(n) if r0s is None else np.asarray(r0s, dtype=np.float64)
    merged = np.concatenate(feeds) if n else np.empty(0)
    merged = np.unique(merged[(merged > t0) & (merged <= tf)])
    stages = merged.shape[0] + 1
    if stages > MAX_BRUTE_FORCE_STAGES:
        raise ValueError(f"brute force is capped at {MAX_BRUTE_FORCE_STAGES} stages")
    # bumps[i, k]: how many events follower i's feed got at stage k >= 1
    bumps = np.zeros((n, stages), dtype=np.float64)
    for i, f in enumerate(feeds):
        f = f[(f > t0) & (f <= tf)]
        idx = np.searchsorted(merged, f)
        np.add.at(bumps[i], idx + 1, 1.0)
    widths = np.diff(np.concatenate([[t0], merged, [tf]]))
    best_cost = math.inf
    best = None
    for dec in product((0.0, 1.0), repeat=stages):
        r = r0s.copy()
        cost = 0.0
        for k in range(stages):
            r = (r + bumps[:, k]) * (1.0 - dec[k])
            cost += 0.5 * widths[k] * float(np.sum(r * r)) + 0.5 * q * dec[k]
        cost += 0.5 * float(np.sum(r * r))
        if cost < best_cost:
            best_cost = cost
            best = dec
    return np.asarray(best, dtype=np.int8), float(best_cost)


def replay_feeds_by_mask(events: EventLog, network, broadcaster, t0, tf, max_followees=500):
    """``build_replay_dataset``'s feed times and true post times, one boolean mask per feed.

    Each feed masks the whole log with a table of its followees' codes and
    a mask of the window: a full pass over the log per follower.
    """
    inside = (events.times > t0) & (events.times <= tf)
    ids = events.ids.tolist()

    def from_sources(wanted):
        table = np.array([i in wanted for i in ids], dtype=bool)
        return events.times[inside & table[events.codes]]

    retained = [
        f for f in network.followers(broadcaster)
        if len(network.followees_of.get(f, ())) <= max_followees
    ]
    feeds = [from_sources(set(network.followees_of.get(f, ())) - {broadcaster}) for f in retained]
    return feeds, from_sources({broadcaster})


# Ranks and the causal simulation loop: feed_sim.rank_path and trajectory_from_posts.


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


def merge_feeds(feeds: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-follower feed times into (times, follower_index) arrays.

    Cross-follower ties are legitimate simultaneity (one upstream event
    can land in several feeds) and are kept, ordered by follower index.
    """
    if not feeds:
        return np.empty(0, np.float64), np.empty(0, np.int64)
    times = np.concatenate(feeds)
    idx = np.concatenate([np.full(len(f), j, dtype=np.int64) for j, f in enumerate(feeds)])
    order = np.argsort(times, kind="stable")
    return times[order], idx[order]


def _materialize_feed(feed, t0: float, tf: float, rng: np.random.Generator) -> np.ndarray:
    if isinstance(feed, np.ndarray):
        return feed[(feed > t0) & (feed <= tf)]
    if isinstance(feed, HawkesParams):
        return sample_hawkes(feed, t0, tf, rng)
    if isinstance(feed, StepSchedule):
        times = sample_piecewise_poisson(feed, rng)
        return times[(times > t0) & (times <= tf)]
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

    ``feeds`` is one entry per follower: recorded times (an array),
    or a generative model (:class:`HawkesParams`, or a one-row :class:`StepSchedule` of rates)
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
        if not isinstance(feed, np.ndarray) and rng_j is None:
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
        own_posts=np.asarray(posts, dtype=np.float64),
        feeds=Feeds.cut(realized, t0, tf, initial_ranks),
        times=np.array([t for ts in rank_times for t in ts], dtype=np.float64),
        values=np.array([v for vs in rank_values for v in vs], dtype=np.int64),
        bounds=np.cumsum([0] + [len(ts) for ts in rank_times], dtype=np.int64),
    )


# The controller, one event at a time: control_online.run_redqueen_fast.


def optimal_intensity(ranks, q: float, significance: StepSchedule | None = None, t: float = 0.0) -> float:
    """Posting intensity sum_i sqrt(s_i(t)/q) * r_i(t) for the given ranks; no schedule weighs 1."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if significance is None:
        s = np.ones(ranks.shape[0])
    else:
        s = np.array([value_at(significance, t, i) for i in range(ranks.shape[0])])
    return float(np.sum(np.sqrt(s / q) * ranks))


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

    It posts at price ``q`` with attention weights ``significance``, a
    step table on exactly the window ``start`` is given, or 1 for every
    follower when ``None``.  Draw order is fixed: one unit exponential
    per follower with a nonzero initial rank (by index), then one per
    observed feed event.  The kernel fast path consumes the same order,
    so both produce identical posts from identical generator states.
    """

    def __init__(
        self, q: float, rng: np.random.Generator, significance: StepSchedule | None = None, record: bool = False
    ):
        self.q = q
        self.significance = significance
        self.rng = rng
        self.record = record
        self.decisions: list[PolicyDecision] = []
        self._started = False

    def start(self, t0: float, tf: float, n_followers: int, initial_ranks) -> None:
        self.t0 = float(t0)
        self.tf = float(tf)
        if self.significance is None:
            self._knots, weights = [self.t0, self.tf], np.ones((n_followers, 1))
        else:
            self._knots, weights = self.significance.knots.tolist(), self.significance.values
        self._clock_rates = np.sqrt(weights / self.q).tolist()
        self.ranks = np.asarray(initial_ranks, dtype=np.int64).copy()
        self._candidate = math.inf
        self._winner = (math.nan, math.nan)  # (spawn time, delta) of the min tick
        self._started = True
        for i in range(n_followers):
            if self.ranks[i] > 0:
                self._spawn(self.t0, i, float(self.ranks[i]))

    def _first_tick(self, tau: float, i: int, mult: float, e: float) -> float:
        """When ``mult`` clocks of follower ``i`` spawned at ``tau`` first tick, given unit draw ``e``.

        The cumulative rate from ``tau`` is inverted one segment at a time,
        from the one holding ``tau`` (the last one for ``tau`` at its end);
        ``inf`` if it stays below ``e`` through the last knot.
        """
        knots, rates = self._knots, self._clock_rates[i]
        k = 0
        while k + 1 < len(rates) and knots[k + 1] <= tau:
            k += 1
        t = tau
        for k in range(k, len(rates)):
            rate = rates[k] * mult
            if rate > 0.0:
                cap = rate * (knots[k + 1] - t)
                if e <= cap:
                    return t + e / rate
                e -= cap
            t = knots[k + 1]
        return math.inf

    def _spawn(self, tau: float, i: int, mult: float) -> None:
        tick = self._first_tick(tau, i, mult, self.rng.standard_exponential())
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
    q: float,
    rng: np.random.Generator,
    t0: float,
    tf: float,
    initial_ranks=None,
    n_followers: int | None = None,
    significance: StepSchedule | None = None,
) -> PolicyDecision:
    """Run the clock sampler over one feed until its first decision commits.

    The controller posts at price ``q`` with weights ``significance``.
    ``feed`` is an array of times (single follower) or an iterable of
    ``(t, follower_index)`` pairs in time order.  Returns the decision
    with ``post_time == inf`` when no post occurs inside the window; if
    the feed ends first, the pending candidate (already committed, since
    nothing else can precede it) is returned.
    """
    if isinstance(feed, np.ndarray):
        events = ((float(t), 0) for t in feed)
        n = 1
    else:
        events = iter(feed)
        n = n_followers if n_followers is not None else 1
    if initial_ranks is None:
        initial_ranks = np.zeros(n, dtype=np.int64)
    ctl = RedQueenController(q, rng, significance)
    ctl.start(t0, tf, n, initial_ranks)
    for t, j in events:
        if not (t0 < t <= tf):
            raise ValueError("feed event outside the decision window")
        if ctl.candidate <= t:
            return ctl._decision(decided_at=t)
        ctl.observe_feed(t, j)
    return ctl._decision(decided_at=tf)


# Constructors and lookups that only tests use: logs, step tables, networks.


def coded_log(times, sources) -> EventLog:
    """The :class:`EventLog` of ``times`` (strictly increasing) and one source id per event.

    The ids are listed in order of first appearance, as ``load_events`` lists them.
    """
    code_of: dict = {}
    codes = np.array([code_of.setdefault(s, len(code_of)) for s in sources], dtype=np.int32)
    return EventLog(np.asarray(times, dtype=np.float64), codes, np.array(list(code_of), dtype=object))


def log_sources(log: EventLog) -> list:
    """Each event's source id, ``ids[codes]``."""
    return log.ids[log.codes].tolist()


def constant_schedule(value: float, t0: float, tf: float, rows: int = 1) -> StepSchedule:
    """``value`` on ``[t0, tf]`` in each of ``rows`` rows: a constant feed rate, or constant weights."""
    return StepSchedule(np.array([t0, tf]), np.full((rows, 1), float(value)))


def value_at(schedule: StepSchedule, t: float, row: int = 0) -> float:
    """Row ``row``'s value at ``t``; the last segment includes the last knot, and other times outside fail."""
    lo, hi = schedule.knots[0], schedule.knots[-1]
    if t < lo or t > hi:
        raise ValueError(f"time {t} outside the knots [{lo}, {hi}]")
    k = int(np.searchsorted(schedule.knots, t, side="right")) - 1  # >= 0, as t >= lo
    return float(schedule.values[row, min(k, schedule.values.shape[1] - 1)])


def followees(network, follower: str) -> list:
    return sorted(network.followees_of.get(follower, ()))


# Intensity state, merged streams and the step-rate sampler: point_process.


def dedupe_increasing_loop(times: np.ndarray) -> tuple[np.ndarray, int]:
    """``point_process._dedupe_increasing`` as one Python step per entry."""
    times = np.array(times, dtype=np.float64, copy=True)
    nudged = 0
    for i in range(1, times.shape[0]):
        if times[i] <= times[i - 1]:
            times[i] = np.nextafter(times[i - 1], math.inf)
            nudged += 1
    return times, nudged


def sample_piecewise_poisson_loop(rate: StepSchedule, rng: np.random.Generator) -> np.ndarray:
    """``point_process.sample_piecewise_poisson`` one segment at a time.

    Every segment, zero-rate ones included, draws its Poisson count and
    then that many uniforms, and its sorted times are appended in turn.
    """
    pieces = []
    for k in range(rate.values.shape[1]):
        a = float(rate.knots[k])
        b = float(rate.knots[k + 1])
        count = int(rng.poisson(float(rate.values[0, k]) * (b - a)))
        if count:
            pieces.append(np.sort(a + rng.random(count) * (b - a)))
    if not pieces:
        return np.empty(0, np.float64)
    times, nudged = _dedupe_increasing(np.concatenate(pieces))
    if nudged:
        warnings.warn(f"nudged {nudged} coincident sample(s) apart", stacklevel=2)
    return times


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

    The excitation above the constant baseline decays by ``exp(-w * dt)``.
    """
    if t < state.as_of:
        raise ValueError("cannot decay backwards in time")
    excite = state.current - params.baseline
    if excite < 0:
        raise ValueError("intensity below baseline: state is inconsistent")
    new = params.baseline + excite * math.exp(-params.w * (t - state.as_of))
    return IntensityState(new, t)


def apply_jump(state: IntensityState, params: HawkesParams) -> IntensityState:
    """Add one event's excitation ``alpha`` at the state's own time."""
    return IntensityState(state.current + params.alpha, state.as_of)


def superpose(streams) -> np.ndarray:
    """Merge strictly increasing time arrays into one.

    Exact time ties across streams are nudged apart by one float step
    (later stream wins the later slot) with a warning; each input is
    already strictly increasing, so the result is too.
    """
    times = np.sort(np.concatenate([np.empty(0), *streams]), kind="stable")
    times, nudged = _dedupe_increasing(times)
    if nudged:
        warnings.warn(f"nudged {nudged} coincident event(s) apart", stacklevel=2)
    return times


# Metrics, baselines and profiles.  Per follower: metrics.report_from_trajectory.


def _segment_lengths(times: np.ndarray, tf: float) -> np.ndarray:
    return np.diff(np.concatenate([times, [tf]]))


def position_over_time(times: np.ndarray, values: np.ndarray, tf: float) -> float:
    """Integral of the rank step function from its start through ``tf``."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1 or times.shape[0] == 0:
        raise ValueError("need parallel non-empty times and values")
    if tf < times[-1]:
        raise ValueError("tf precedes the last change point")
    return float(np.sum(values * _segment_lengths(times, tf)))


def time_at_top(times: np.ndarray, values: np.ndarray, tf: float) -> float:
    """Total time the rank step function spends strictly below 1."""
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.shape != values.shape or times.ndim != 1 or times.shape[0] == 0:
        raise ValueError("need parallel non-empty times and values")
    if tf < times[-1]:
        raise ValueError("tf precedes the last change point")
    lengths = _segment_lengths(times, tf)
    return float(np.sum(lengths[values < 1]))


def report_by_follower(trajectory, run: str, seed: int, policy: str) -> MetricsReport:
    """``report_from_trajectory`` one follower at a time: the sums in follower order."""
    n = len(trajectory.feeds)
    if n == 0:
        raise ValueError("trajectory has no followers")
    pot = 0.0
    tat = 0.0
    for ts, vs in zip(trajectory.rank_times, trajectory.rank_values):
        pot += position_over_time(ts, vs, trajectory.feeds.tf)
        tat += time_at_top(ts, vs, trajectory.feeds.tf)
    return MetricsReport(
        run=run, seed=seed, policy=policy, posts=trajectory.post_count,
        position_over_time=pot / n, time_at_top=tat / n,
    )


def average_position(trajectory) -> float:
    """Time-averaged rank, averaged over followers."""
    total = 0.0
    horizon = trajectory.feeds.tf - trajectory.feeds.t0
    if horizon <= 0:
        raise ValueError("empty window has no average position")
    for ts, vs in zip(trajectory.rank_times, trajectory.rank_values):
        total += position_over_time(ts, vs, trajectory.feeds.tf)
    return total / (len(trajectory.feeds) * horizon)


def quadratic_control_cost(trajectory, q: float) -> float:
    """0.5*sum_i integral(r_i^2) + 0.5*q*posts + 0.5*sum_i r_i(tf)^2.

    The quadratic loss the posting policies trade off, evaluated on the
    realized trajectory.  Exact: rank paths are step functions.
    """
    total = 0.0
    for ts, vs in zip(trajectory.rank_times, trajectory.rank_values):
        vs = np.asarray(vs, dtype=np.float64)
        lengths = _segment_lengths(np.asarray(ts, np.float64), trajectory.feeds.tf)
        total += 0.5 * float(np.sum(vs * vs * lengths))
        total += 0.5 * float(vs[-1] * vs[-1])
    total += 0.5 * q * trajectory.post_count
    return total


def segment_totals_by_value_at(rates, edges: np.ndarray) -> np.ndarray:
    """The one-row rates' sum on each segment ``[edges[k], edges[k+1])``: one ``value_at`` per rate and segment.

    Added rate by rate from zero, as ``scenarios._empirical_segment_rate``
    adds its followers' rates.
    """
    total = np.zeros(edges.shape[0] - 1)
    for r in rates:
        for k in range(total.shape[0]):
            total[k] += value_at(r, edges[k])
    return total


def empirical_segment_rates_by_histogram(feeds, t0: float, tf: float, n_segments: int) -> list:
    """Each feed's rate on ``n_segments`` equal segments, by ``np.histogram`` counts.

    ``feeds`` yields one times array per follower (a ``Feeds`` does);
    ``scenarios._empirical_segment_rate`` is their sum.
    """
    knots = np.linspace(t0, tf, n_segments + 1)
    return [StepSchedule(knots, [np.histogram(times, bins=knots)[0] / np.diff(knots)]) for times in feeds]


def segment_offline_posts_loop(rate: StepSchedule, budget: int) -> np.ndarray:
    """``segment_offline_posts`` one post at a time.

    Each budget unit goes to the first segment of the largest marginal
    gain, recomputed for every segment; then each segment's posts are
    appended one by one, post ``j`` at ``edges[k] + j * step``.
    """
    edges = rate.knots
    lengths = np.diff(edges)
    base = rate.values[0] * lengths * lengths / 2.0
    alloc = np.zeros(lengths.shape[0], dtype=np.int64)
    for _ in range(int(budget)):
        alloc[np.argmax(base * (1.0 / (alloc + 1.0) - 1.0 / (alloc + 2.0)))] += 1
    times = []
    for k in range(lengths.shape[0]):
        n = int(alloc[k])
        if n == 0:
            continue
        step = lengths[k] / n
        for j in range(n):
            times.append(edges[k] + j * step)
    return np.asarray(times, dtype=np.float64)


def segment_cost_model(total_rates: np.ndarray, lengths: np.ndarray, alloc: np.ndarray) -> float:
    """Expected position-over-time under the planner's model.

    Within a segment of length L and aggregate feed rate R, n posts cut
    it into n+1 spans; a span of length g accrues R * g^2 / 2 rank-time
    (rank grows linearly from each reset).  Even spacing is optimal, so
    a segment scores R * L^2 / (2 * (n + 1)).
    """
    alloc = np.asarray(alloc, dtype=np.float64)
    return float(np.sum(total_rates * lengths * lengths / (2.0 * (alloc + 1.0))))


def _normalize_counts(counts: np.ndarray, laplace: float) -> np.ndarray:
    """Turn one follower's float64 bucket counts into weights, in place.

    Laplace-smoothed frequencies, divided by their maximum.  An all-zero
    row is an empty activity log: it becomes the flat profile, with a
    warning.
    """
    total = counts.sum()
    if total == 0:
        warnings.warn("empty activity log: falling back to a flat profile", stacklevel=3)
        counts[:] = 1.0
        return counts
    counts += laplace
    counts /= total + laplace * counts.shape[0]
    counts /= counts.max()
    return counts


def bucket_index(abs_seconds, granularity: str):
    """Bucket of an absolute time (UNIX seconds), from its weekday and its hour.

    1970-01-01, day 0, was a Thursday; Monday is weekday 0.  The package
    takes both granularities from one formula on whole buckets since 1970.
    """
    abs_seconds = np.asarray(abs_seconds, dtype=np.float64)
    weekday = (np.floor_divide(abs_seconds, 86_400).astype(np.int64) + 3) % 7
    if granularity == "weekday":
        return weekday
    if granularity == "weekday-hour":
        return weekday * 24 + np.floor_divide(abs_seconds, 3_600).astype(np.int64) % 24
    raise ValueError(f"unknown granularity {granularity!r}")


def bucket_weights(
    times: np.ndarray,
    epoch: float,
    granularity: str,
    laplace: float = 1.0,
) -> np.ndarray:
    """Max-normalized smoothed bucket frequencies of one activity log.

    ``times`` are seconds relative to ``epoch``.  With ``laplace=0`` an
    unvisited bucket is exactly 0 (useful for hard quiet periods); an
    entirely empty log yields a flat all-ones profile with a warning.
    """
    if not 0 <= laplace < math.inf:
        raise ValueError("laplace smoothing must be finite and nonnegative")
    b = bucket_count(granularity)
    times = np.asarray(times, dtype=np.float64)
    counts = np.bincount(bucket_index(epoch + times, granularity), minlength=b)
    return _normalize_counts(counts.astype(np.float64), laplace)


# Readers of the files the commands write.


def read_report_csv(path) -> list[MetricsReport]:
    reports = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != REPORT_HEADER.split(","):
            raise DataFormatError(f"{path}: unexpected report header {header}")
        for row in reader:
            if len(row) != 8:
                raise DataFormatError(f"{path}: bad report row {row}")
            reports.append(
                MetricsReport(
                    run=row[0],
                    seed=int(row[1]),
                    policy=row[2],
                    posts=int(row[3]),
                    position_over_time=float(row[4]),
                    time_at_top=float(row[5]),
                    normalized_position=float(row[6]) if row[6] else None,
                    normalized_time_at_top=float(row[7]) if row[7] else None,
                )
            )
    return reports


def read_profile_csv(path) -> SignificanceProfile:
    """Read a profile ``write_profile_csv`` wrote; the ``#`` lines before the header are its metadata."""
    meta: dict[str, str] = {}
    # newline="": a quoted id keeps its "\r" and "\n"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip().split(" ")[0] if value else ""
            line = fh.readline()
        for key in ("granularity", "epoch", "laplace"):
            if key not in meta:
                raise DataFormatError(f"{path}: profile metadata is missing {key!r}")
        reader = csv.reader(itertools.chain([line], fh))
        header = next(reader, None)
        if header != ["follower_id", "bucket_index", "value"]:
            raise DataFormatError(f"{path}: unexpected profile header {header}")
        granularity = meta["granularity"]
        b = bucket_count(granularity)
        rows: dict = {}  # each follower's weights, in the order the file lists them
        for row in reader:
            if len(row) != 3:
                raise DataFormatError(f"{path}: bad profile row {row}")
            fid, idx, val = row[0], int(row[1]), float(row[2])
            rows.setdefault(fid, np.zeros(b))[idx] = val
    return SignificanceProfile(
        granularity=granularity,
        epoch=float(meta["epoch"]),
        ids=tuple(rows),
        values=np.array(list(rows.values())).reshape(len(rows), b),
        laplace=float(meta["laplace"]),
    )


def write_profile_csv_by_rows(profile, path):
    """``write_profile_csv`` as one ``csv.writerow`` and one ``repr`` per row; the bytes must match.

    Each row is written with a ``"\\r\\n"`` terminator, so that csv quotes
    an id holding ``"\\r"``, and is then ended with ``"\\n"``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# granularity = {profile.granularity}\n")
        fh.write(f"# epoch = {float(profile.epoch)!r}\n")
        fh.write(f"# laplace = {float(profile.laplace)!r}\n")
        fh.write(
            f"# normalization = {NORMALIZATION} "
            "(each follower's peak bucket is scaled to 1; values are not probabilities)\n"
        )
        row = io.StringIO()
        writer = csv.writer(row, lineterminator="\r\n")

        def writerow(cells):
            row.seek(0)
            row.truncate()
            writer.writerow(cells)
            fh.write(row.getvalue()[:-2] + "\n")

        writerow(["follower_id", "bucket_index", "value"])
        for fid, vec in zip(profile.ids, profile.values):
            for b in range(vec.shape[0]):
                writerow([fid, b, repr(float(vec[b]))])


@contextlib.contextmanager
def per_line_only():
    """Make ``load_events`` read every chunk with one ``json.loads`` a line, as if no line were canonical."""
    with mock.patch.object(data_io, "_CANONICAL_EVENT", re.compile(r"(?!)")):
        yield
