"""Canned experiment setups: synthetic feeds and log replays.

Each runner takes a config dataclass, which checked its fields and its
policies when it was built, and builds its feeds (sampled, or cut from
a recorded log) into one competition.  ``_compete`` settles it into one
``(config, reports, details)`` per run, the details holding tuned prices
and realized budgets: both synthetic runners return that list, a replay
its one ``(reports, details)``.  ``POLICIES`` maps each policy name to
the function placing its posts for one seed.  A replay also brings its
recorded posts, which every replayed report is normalized against, and
its dataset's significance profile, unrolled on the window.

Randomness discipline: the feed for (seed, follower j) comes from
generator ``[seed, 1, j]``, the posting policy for a seed from
``[seed, 2]``, and feed-blind baselines from ``[seed, 3]`` - separate
streams, so changing the policy can never perturb the traffic it reacts
to.

Budgets follow the competition protocol: the online controller's price
q is tuned so its mean post count hits the budget, its realized mean
then becomes the budget every baseline must match.  The clairvoyant
schedule gets its own price search against the same budget.  A replay
requesting none of ``redqueen``, ``uniform`` and ``segment-offline``
runs no controller; its budget is the recorded post count.

A competition holds only what is fixed for one command: per seed, the
:class:`~whentopost.feed_sim.Feeds` (window and initial ranks included)
and, where ``segment-offline`` is requested, the rate the offline planner
is told; a replay's significance schedule and recorded posts; and a
memo.  ``_compete`` settles a list of runs on it (a single run, every
budget of a sweep, a replay), each run keeping its realized budget and
prices to itself.  A replay's one ``Feeds`` serves every seed, so it is
merged, and its segment rate built, once.  The memo keeps the
controller's posts per ``(q, seed)`` and the clairvoyant schedule per
``(q, Feeds)`` for the price searches, the run at the settled price and
every later budget; a replay's seeds, sharing one ``Feeds``, share its
schedules.  That changes no output: each controller run draws from a
fresh ``policy_rng(seed)`` and the backward induction is deterministic.
A price search runs the controller capped a little above the largest
budget of its sweep: a run that reaches the cap shows the price too
cheap without its exact count, and one that ends short of it is the
whole run, kept for every later reader.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .control_baselines import segment_offline_posts, true_posts_playback, uniform_poisson_posts
from .control_online import run_redqueen_fast, tune_q
from .control_oracle import MAX_ORACLE_RANK, check_stages, decisions_to_post_times, instance_from_feed, oracle_schedule
from .data_io import ReplayDataset
from .feed_sim import Feeds, trajectory_from_posts
from .metrics import normalize_report, report_from_trajectory
from .point_process import MAX_HAWKES_EVENTS, HawkesParams, sample_hawkes, sample_piecewise_poisson
from .significance import StepSchedule

__all__ = [
    "POLICIES",
    "feed_rng",
    "policy_rng",
    "baseline_rng",
    "HawkesScenarioConfig",
    "SinusoidScenarioConfig",
    "ReplayConfig",
    "run_one_follower_hawkes",
    "run_multi_follower_sinusoid",
    "run_replay",
]

_FEED_TAG = 1
_POLICY_TAG = 2
_BASELINE_TAG = 3


def feed_rng(seed: int, follower: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _FEED_TAG, follower]))


def policy_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _POLICY_TAG]))


def baseline_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _BASELINE_TAG]))


class ScenarioError(ValueError):
    """The requested scenario/policy combination cannot run."""


#: Domains of the numeric config fields, whichever configs have them.  A
#: subnormal q would overflow the controller's clock rates sqrt(s / q).
_POSITIVE = ("budget", "q", "target_posts", "lambda0", "w", "target_feed_events", "horizon")
_NONNEGATIVE = ("alpha", "peak_per_hour", "tune_tol")
_LEAST = {"offline_segments": 1, "initial_rank": 0, "followers": 1, "q": sys.float_info.min}
#: Largest sizes a user sets, checked with the domains before any sampling or allocation.
MAX_OFFLINE_SEGMENTS = 100_000
MAX_FOLLOWERS = 10_000  # of the sinusoid scenario
MAX_HORIZON = 366 * 86_400.0  # the sinusoid scenario's window, seconds
_MOST = {"offline_segments": MAX_OFFLINE_SEGMENTS, "followers": MAX_FOLLOWERS, "horizon": MAX_HORIZON,
         "target_feed_events": MAX_HAWKES_EVENTS}


def _check_domain(cfg) -> None:
    """Reject an empty seed list, then the first numeric field of ``cfg`` outside its domain, by name."""
    if not cfg.seeds:
        raise ScenarioError("need at least one seed")
    for f in fields(cfg):
        name, value = f.name, getattr(cfg, f.name)
        if value is None:
            continue
        if name in _POSITIVE and not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if name in _NONNEGATIVE and not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        if name in _LEAST and value < _LEAST[name]:
            raise ValueError(f"{name} must be at least {_LEAST[name]}, got {value!r}")
        if name in _MOST and value > _MOST[name]:
            raise ValueError(f"{name} must be at most {_MOST[name]!r}, got {value!r}")


def _check_policies(cfg) -> None:
    """Reject the first policy of ``cfg`` not in ``POLICIES``, or not among its scenario's."""
    for p in cfg.policies:
        if p not in POLICIES:
            raise ScenarioError(f"unknown policy {p!r}; choose from {', '.join(POLICIES)}")
        if p not in cfg.allowed_policies:
            raise ScenarioError(f"policy {p!r} is not available in the {cfg.scenario} scenario")


def _empirical_segment_rate(feeds: Feeds, n_segments: int) -> StepSchedule:
    """The feeds' summed event rate on ``n_segments`` equal segments of their window, one row.

    Each feed's rate on a segment is its event count there over the
    segment's length, with the counts ``np.histogram(times, bins=knots)``
    gives a sorted feed (the last segment includes its right edge).  The
    rates are added follower by follower from zero: ``np.unique`` lists
    the (follower, segment) cells holding events in follower order, and
    ``np.bincount`` adds weights one at a time in that order.  A cell
    without events would add 0.0, which changes no sum of such rates.
    """
    knots = np.linspace(feeds.t0, feeds.tf, n_segments + 1)
    segment = np.searchsorted(knots[1:-1], feeds.times, "right")
    cell, count = np.unique(feeds.follower * n_segments + segment, return_counts=True)
    segment = cell % n_segments
    rates = count / np.diff(knots)[segment]
    return StepSchedule(knots, np.bincount(segment, weights=rates, minlength=n_segments)[None])


# ---------------------------------------------------------------------------
# the competition driver and its policy table
# ---------------------------------------------------------------------------


@dataclass
class _Competition:
    """What is fixed for one command: its feeds and every evaluation made on them.

    ``feeds[seed]`` holds the followers' :class:`Feeds`, their window and
    initial ranks; ``offline_rate[seed]`` the followers' summed rate the
    segment-offline planner is told, ``None`` where no policy reads it.
    ``redqueen(q, seed)`` computes each ``(q, seed)`` once and
    ``oracle(q, seed)`` each ``(q, feeds[seed])``, and both keep it in
    ``memo``.
    """

    feeds: dict
    offline_rate: dict
    significance: StepSchedule | None = None
    recorded: np.ndarray | None = None  # replay only: the broadcaster's true post times
    memo: dict = field(default_factory=dict)

    def redqueen(self, q: float, seed: int, cap: int = 2**62) -> np.ndarray:
        """The controller's post times at price ``q`` on ``seed``'s feeds.

        With ``cap``, a run stopped at ``cap`` posts will do unless the whole
        run is known: either way the first ``cap`` posts, or every post.  A
        stopped run is kept under its own key; one that ends with fewer
        posts is the whole run, kept as such, and never runs again.
        """
        key = ("redqueen", q, seed)
        if key not in self.memo and key + (cap,) not in self.memo:
            posts = run_redqueen_fast(self.feeds[seed], q, policy_rng(seed), self.significance, max_posts=cap)
            posts.flags.writeable = False  # shared by every reader of the memo
            self.memo[key if posts.shape[0] < cap else key + (cap,)] = posts
        whole = self.memo.get(key)
        return whole if whole is not None else self.memo[key + (cap,)]

    def oracle(self, q: float, seed: int) -> np.ndarray:
        """The clairvoyant decisions at price ``q`` on ``seed``'s (single) feed.

        It starts from the follower's initial rank, as the controller does.
        The induction draws nothing, so it is kept per ``Feeds``: seeds
        sharing one (a replay's) solve it once.
        """
        key = ("oracle", q, self.feeds[seed])
        if key not in self.memo:
            decisions = self.memo[key] = oracle_schedule(instance_from_feed(self.feeds[seed], q))
            decisions.flags.writeable = False  # shared by every reader of the memo
        return self.memo[key]


#: Policy name -> post times for one seed of a competition, given by name
#: one run's settled prices and ``realized``, the budget every baseline
#: matches.  The controller and the clairvoyant schedule come from the
#: competition's memo, whose misses (like every other entry) look their
#: functions up as module globals at call time, so a rebound module
#: attribute (a tracer's wrapper, say) sees every call.
POLICIES = {
    "redqueen": lambda c, seed, redqueen_q, **_: c.redqueen(redqueen_q, seed),
    "oracle": lambda c, seed, oracle_q, **_: decisions_to_post_times(c.oracle(oracle_q, seed), c.feeds[seed]),
    "uniform": lambda c, seed, realized, **_: uniform_poisson_posts(
        realized, c.feeds[seed].t0, c.feeds[seed].tf, baseline_rng(seed)
    ),
    "segment-offline": lambda c, seed, realized, **_: segment_offline_posts(c.offline_rate[seed], int(round(realized))),
    "true-posts": lambda c, seed, **_: true_posts_playback(c.recorded),
}


def _tune(cfg, target: float, count, at_most=None):
    """Price whose mean of ``count(q, seed)`` over the seeds hits ``target``.

    ``at_most(q, seed)``, if given, is no more than ``count(q, seed)`` and
    cheaper to get; its mean is ``tune_q``'s ``lower_bound_fn``.
    """

    def mean(count):
        return lambda q: sum(count(q, seed) for seed in cfg.seeds) / len(cfg.seeds)

    bound = None if at_most is None else mean(at_most)
    return tune_q(target, mean(count), tolerance=cfg.tune_tol, lower_bound_fn=bound)


def _compete(comp: _Competition, runs: list, details: dict) -> list:
    """Settle each run ``(cfg, label, target)`` on ``comp``, and report every policy on every seed.

    Returns one ``(cfg, reports, details)`` per run, each run's details
    being ``details`` plus its prices.  The controller runs with
    ``cfg.q``, or with the price tuned so its mean post count hits
    ``target``; synthetic scenarios always run it.  Each price search
    caps its controller runs for the largest target in ``runs``, so the
    searches of a sweep read the same runs back.
    """
    n_recorded = 0 if comp.recorded is None else len(comp.recorded)
    settled = []
    for cfg, label, target in runs:
        info = dict(details)
        realized, redqueen_q, oracle_q = float(n_recorded), math.nan, math.nan
        if "oracle" in cfg.policies:  # before any controller run: stage 0, and one per feed event
            check_stages(max(f.times.shape[0] for f in comp.feeds.values()) + 1)
        if comp.recorded is None or any(p in ("redqueen", "uniform", "segment-offline") for p in cfg.policies):
            redqueen_q = cfg.q
            if redqueen_q is None:
                if target <= 0:
                    raise ScenarioError("no recorded posts to match: pass q or target_posts explicitly")
                # a seed that reaches ``cap`` posts puts the mean above the
                # tolerance band of every budget tuned on this competition
                ceiling = max(t for _, _, t in runs if t is not None)
                band = len(cfg.seeds) * ceiling * (1 + cfg.tune_tol)
                cap = math.floor(min(band, 2.0**62)) + 1
                tuned = info["redqueen_tune"] = _tune(
                    cfg, target, lambda q, s: comp.redqueen(q, s).shape[0],
                    lambda q, s: min(comp.redqueen(q, s, cap).shape[0], cap),
                )
                redqueen_q = tuned.q
            realized = float(np.mean([comp.redqueen(redqueen_q, seed).shape[0] for seed in comp.feeds]))
            info["redqueen_q"] = redqueen_q
            info["realized_budget"] = realized

        if "oracle" in cfg.policies:
            oracle_target = realized if realized > 0 else float(max(n_recorded, 1))
            info["oracle_tune"] = _tune(cfg, oracle_target, lambda q, s: int(comp.oracle(q, s).sum()))
            oracle_q = info["oracle_tune"].q

        def play(seed, policy):
            posts = POLICIES[policy](comp, seed, realized=realized, redqueen_q=redqueen_q, oracle_q=oracle_q)
            return report_from_trajectory(trajectory_from_posts(comp.feeds[seed], posts), label, seed, policy)

        # a replay's feeds and recorded posts are the same for every seed, so
        # its true-posts report is the reference's on each seed
        reference = None if comp.recorded is None else play(cfg.seeds[0], "true-posts")
        reports = []
        for seed in cfg.seeds:
            for policy in cfg.policies:
                if reference is not None and policy == "true-posts":
                    report = dataclasses.replace(reference, seed=seed)
                else:
                    report = play(seed, policy)
                reports.append(report if reference is None else normalize_report(report, reference))
        settled.append((cfg, reports, info))
    return settled


def _sweep(cfg, budgets) -> list:
    """The runs ``_compete`` settles for ``cfg``, or for ``cfg`` at each of ``budgets``, every config checked."""
    configs = [cfg] if budgets is None else [dataclasses.replace(cfg, budget=b) for b in budgets]
    return [(c, c.run_label, c.budget) for c in configs]


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------


class _SyntheticConfig:
    """The ``budget``/``q``, domain and policy checks and run label both synthetic configs share."""

    def __post_init__(self):
        if (self.budget is None) == (self.q is None):
            raise ScenarioError("set exactly one of budget or q")
        _check_domain(self)
        _check_policies(self)

    @property
    def run_label(self) -> str:
        knob = f"budget={_spell(self.budget)}" if self.budget is not None else f"q={_spell(self.q)}"
        return f"{self._label}:{knob}"


def _spell(x: float) -> str:
    """``x`` in ``:g`` form when that reads back as ``x``, else its ``repr``.

    Distinct budgets or prices then get distinct run labels, while every
    label ``:g`` spells exactly stays as it was.
    """
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _synthetic_details(feeds_by_seed: dict) -> dict:
    feeds = list(feeds_by_seed.values())
    return {"horizon": feeds[0].tf, "mean_feed_events": float(np.mean([f.times.shape[0] for f in feeds]))}


@dataclass(frozen=True)
class HawkesScenarioConfig(_SyntheticConfig):
    """Single follower whose feed excites itself (bursty traffic)."""

    seeds: tuple
    policies: tuple = ("redqueen", "oracle", "uniform")
    budget: float | None = None
    q: float | None = None
    lambda0: float = 10.0
    alpha: float = 1.0
    w: float = 10.0
    target_feed_events: float = 1000.0
    tune_tol: float = 0.1
    offline_segments: int = 10

    scenario = _label = "one-follower-hawkes"  # _label: what its run labels start with
    allowed_policies = ("redqueen", "oracle", "uniform", "segment-offline")

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.horizon < math.inf:
            raise ValueError(
                f"horizon = target_feed_events / stationary feed rate must be positive and "
                f"finite, got {self.horizon!r} (lambda0={self.lambda0!r}, "
                f"target_feed_events={self.target_feed_events!r})"
            )

    @property
    def horizon(self) -> float:
        params = HawkesParams(self.lambda0, self.alpha, self.w)
        return self.target_feed_events / params.stationary_rate()


def run_one_follower_hawkes(cfg: HawkesScenarioConfig, budgets=None) -> list:
    """One ``(config, reports, details)``, for ``cfg`` or for each of ``budgets`` on one set of feeds."""
    runs = _sweep(cfg, budgets)  # a bad budget fails before any sampling
    params = HawkesParams(cfg.lambda0, cfg.alpha, cfg.w)
    t0, tf = 0.0, cfg.horizon
    streams = {seed: sample_hawkes(params, t0, tf, feed_rng(seed, 0)) for seed in cfg.seeds}
    feeds_by_seed = {seed: Feeds.cut([times], t0, tf) for seed, times in streams.items()}
    wanted = "segment-offline" in cfg.policies
    rates = {seed: _empirical_segment_rate(f, cfg.offline_segments) if wanted else None
             for seed, f in feeds_by_seed.items()}
    return _compete(_Competition(feeds_by_seed, rates), runs, _synthetic_details(feeds_by_seed))


@dataclass(frozen=True)
class SinusoidScenarioConfig(_SyntheticConfig):
    """N followers with phase-shifted half-sinusoid daily activity."""

    seeds: tuple
    followers: int = 5
    policies: tuple = ("redqueen", "uniform")
    budget: float | None = None
    q: float | None = None
    peak_per_hour: float = 10.0
    horizon: float = 86_400.0
    tune_tol: float = 0.1

    scenario = "multi-follower-sinusoid"
    allowed_policies = ("redqueen", "uniform", "segment-offline")

    def __post_init__(self):
        super().__post_init__()
        # the feed events a seed holds if every follower stays at the peak rate
        peak_events = self.followers * self.peak_per_hour * self.horizon / 3600.0
        if peak_events > MAX_HAWKES_EVENTS:
            raise ValueError(
                f"followers x peak_per_hour x horizon / 3600 must be at most MAX_HAWKES_EVENTS = "
                f"{MAX_HAWKES_EVENTS}, got {peak_events!r}"
            )

    @property
    def _label(self) -> str:
        return f"{self.scenario}:followers={self.followers}"


#: Segments of one day in the sinusoid scenario's piecewise rates: hours.
_SEGMENTS_PER_DAY = 24


def _sinusoid_rate(cfg: SinusoidScenarioConfig, phase: float) -> StepSchedule:
    """Hourly rate on ``[0, horizon]``, one row, tracing one day's half sinusoid from ``phase``."""
    seg_len = 86_400.0 / _SEGMENTS_PER_DAY
    n_total = int(math.ceil(cfg.horizon / seg_len))
    knots = np.arange(n_total + 1) * seg_len
    knots[-1] = cfg.horizon
    peak = cfg.peak_per_hour / 3600.0
    segs = (np.arange(n_total) + phase) % _SEGMENTS_PER_DAY
    return StepSchedule(knots, peak * np.sin(math.pi * segs / _SEGMENTS_PER_DAY)[None])


def run_multi_follower_sinusoid(cfg: SinusoidScenarioConfig, budgets=None) -> list:
    """As ``run_one_follower_hawkes``, on the sinusoid scenario's feeds."""
    runs = _sweep(cfg, budgets)
    t0, tf = 0.0, cfg.horizon
    rate_by_seed = {}
    feeds_by_seed = {}
    for seed in cfg.seeds:
        total = 0.0
        feeds = []
        for j in range(cfg.followers):
            rng = feed_rng(seed, j)
            phase = rng.uniform(0.0, _SEGMENTS_PER_DAY)
            rate = _sinusoid_rate(cfg, phase)
            total = total + rate.values  # follower by follower, as _empirical_segment_rate adds
            feeds.append(sample_piecewise_poisson(rate, rng))
        # the offline planner is told the followers' true summed rate here
        rate_by_seed[seed] = StepSchedule(rate.knots, total)
        feeds_by_seed[seed] = Feeds.cut(feeds, t0, tf)
    return _compete(_Competition(feeds_by_seed, rate_by_seed), runs, _synthetic_details(feeds_by_seed))


# ---------------------------------------------------------------------------
# replayed logs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayConfig:
    """Replay one broadcaster's window against recorded feeds."""

    seeds: tuple
    policies: tuple = ("redqueen", "true-posts")
    q: float | None = None  # None: tune to the recorded post count
    target_posts: float | None = None
    tune_tol: float = 0.1
    offline_segments: int = 10
    initial_rank: int = 0

    scenario = "replay"
    allowed_policies = tuple(POLICIES)  # the oracle on a one-follower dataset only

    def __post_init__(self):
        if self.q is not None and self.target_posts is not None:
            raise ScenarioError("set at most one of q and target_posts")
        _check_domain(self)
        _check_policies(self)
        if "oracle" in self.policies and self.initial_rank > MAX_ORACLE_RANK:
            raise ValueError(
                f"initial_rank must be at most MAX_ORACLE_RANK = {MAX_ORACLE_RANK} "
                f"for the oracle policy, got {self.initial_rank!r}"
            )


def run_replay(cfg: ReplayConfig, dataset: ReplayDataset):
    n = len(dataset.follower_ids)
    if "oracle" in cfg.policies and n != 1:
        raise ScenarioError(
            "the clairvoyant schedule solves a single follower; this replay has "
            f"{n} followers - restrict the dataset or drop the oracle policy"
        )
    # the one window every seed and policy reads, from the requested rank
    feeds = dataclasses.replace(dataset.feeds, initial_ranks=np.full(n, cfg.initial_rank, np.int64))
    details: dict = {"followers": n, "true_posts": len(dataset.true_posts)}

    significance = None if dataset.profile is None else dataset.profile.step_schedule(feeds.t0, feeds.tf)

    # the feeds are the same on every seed, and so is their segment rate
    wanted = "segment-offline" in cfg.policies
    rate = _empirical_segment_rate(feeds, cfg.offline_segments) if wanted else None
    comp = _Competition(
        dict.fromkeys(cfg.seeds, feeds), dict.fromkeys(cfg.seeds, rate), significance, dataset.true_posts
    )
    target = cfg.target_posts if cfg.target_posts is not None else float(len(dataset.true_posts))
    [(_, reports, details)] = _compete(comp, [(cfg, f"replay:{dataset.broadcaster}", target)], details)
    return reports, details
