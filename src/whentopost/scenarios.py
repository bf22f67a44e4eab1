"""Canned experiment setups: synthetic feeds and log replays.

Each runner takes a config dataclass, checks the requested policies
against the ones its scenario allows and builds its feeds (sampled, or
cut from a recorded log) into one competition; one driver, ``_compete``,
then runs every policy over every seed and returns per-run metric
reports plus a details dict (tuned prices, realized budgets).
``POLICIES`` maps each policy name to the function placing its posts for
one seed.  A replay also brings its significance schedule and recorded
posts, which every replayed report is normalized against.

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

A synthetic runner samples each seed's feeds into one
:class:`~whentopost.feed_sim.Feeds`, which carries the window and each
follower's initial rank to every policy and score; a replay's one
``Feeds``, made with ``initial_rank``, serves every seed, so it is
merged, and its segment rate built, once.  A
runner given ``budgets`` settles every budget of the sweep on one
competition.  The competition also computes
each evaluation once: the controller's posts and the clairvoyant
schedule are kept per ``(policy, q, seed)``, and the price searches, the
run at the settled price and every later budget read them back.  That
changes no output: each controller run draws from a fresh
``policy_rng(seed)`` and the backward induction is deterministic, so a
second run at the same price would repeat the first bit for bit.  The
memo lives and dies with its competition, one command's worth.  A price
search runs the controller capped a little above the largest budget
tuned on the competition: a run that reaches the cap shows the price
too cheap without its exact count, and one that ends short of it is the
whole run, kept for every later reader.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .control_baselines import segment_offline_posts, true_posts_playback, uniform_poisson_posts
from .control_online import RedQueenParams, run_redqueen_fast, tune_q
from .control_oracle import MAX_ORACLE_RANK, decisions_to_post_times, instance_from_feed, oracle_schedule
from .data_io import ReplayDataset
from .feed_sim import Feeds, trajectory_from_posts
from .metrics import normalize_report, report_from_trajectory
from .point_process import HawkesParams, PiecewiseRate, sample_hawkes, sample_piecewise_poisson
from .significance import StepSchedule, estimate_significance

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


#: Domains of the numeric config fields, whichever configs have them.
_POSITIVE = ("budget", "q", "target_posts", "lambda0", "w", "target_feed_events", "horizon")
_NONNEGATIVE = ("alpha", "peak_per_hour", "tune_tol")
_LEAST = {"offline_segments": 1, "initial_rank": 0}


def _check_domain(cfg) -> None:
    """Reject the first numeric field of ``cfg`` outside its domain, by name."""
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


def _check_policies(policies, allowed, scenario: str):
    for p in policies:
        if p not in POLICIES:
            raise ScenarioError(f"unknown policy {p!r}; choose from {', '.join(POLICIES)}")
        if p not in allowed:
            raise ScenarioError(f"policy {p!r} is not available in the {scenario} scenario")


def _empirical_segment_rate(feeds: Feeds, n_segments: int) -> PiecewiseRate:
    """The feeds' summed event rate on ``n_segments`` equal segments of their window.

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
    return PiecewiseRate(knots, np.bincount(segment, weights=rates, minlength=n_segments))


# ---------------------------------------------------------------------------
# the competition driver and its policy table
# ---------------------------------------------------------------------------


@dataclass
class _Competition:
    """One scenario's feeds, every evaluation made on them, and one budget's prices.

    ``feeds(seed)`` gives the followers' :class:`Feeds`, their window and
    initial ranks; ``offline_rate(seed)`` the followers' summed rate the
    segment-offline planner is told.
    ``redqueen(q, seed)`` and ``oracle(q, seed)`` compute each
    ``(policy, q, seed)`` once and keep it in ``memo``.  ``_compete``
    settles ``realized``, ``redqueen_q`` and ``oracle_q`` for one budget
    at a time; a sweep sets ``ceiling`` first, so that every budget's
    search caps its runs alike and reads the same runs back.
    """

    feeds: Callable
    offline_rate: Callable
    significance: StepSchedule | None = None
    recorded: np.ndarray | None = None  # replay only: the broadcaster's true post times
    realized: float = 0.0  # the budget every baseline matches
    ceiling: float = 0.0  # the largest budget tuned to on this competition, for a sweep
    redqueen_q: float = math.nan
    oracle_q: float = math.nan
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
            params = RedQueenParams(q=q, significance=self.significance)
            posts = run_redqueen_fast(self.feeds(seed), params, policy_rng(seed), max_posts=cap)
            posts.flags.writeable = False  # shared by every reader of the memo
            self.memo[key if posts.shape[0] < cap else key + (cap,)] = posts
        whole = self.memo.get(key)
        return whole if whole is not None else self.memo[key + (cap,)]

    def oracle(self, q: float, seed: int) -> np.ndarray:
        """The clairvoyant decisions at price ``q`` on ``seed``'s (single) feed.

        It starts from the follower's initial rank, as the controller does.
        """
        key = ("oracle", q, seed)
        if key not in self.memo:
            decisions = self.memo[key] = oracle_schedule(instance_from_feed(self.feeds(seed), q))
            decisions.flags.writeable = False  # shared by every reader of the memo
        return self.memo[key]


#: Policy name -> post times for one seed of a competition.  The controller
#: and the clairvoyant schedule come from the competition's memo, whose
#: misses (like every other entry) look their functions up as module
#: globals at call time, so a rebound module attribute (a tracer's
#: wrapper, say) sees every call.
POLICIES = {
    "redqueen": lambda c, seed: c.redqueen(c.redqueen_q, seed),
    "oracle": lambda c, seed: decisions_to_post_times(c.oracle(c.oracle_q, seed), c.feeds(seed)),
    "uniform": lambda c, seed: uniform_poisson_posts(
        c.realized, c.feeds(seed).t0, c.feeds(seed).tf, baseline_rng(seed)
    ),
    "segment-offline": lambda c, seed: segment_offline_posts(
        c.offline_rate(seed), int(round(c.realized)), c.feeds(seed).t0, c.feeds(seed).tf
    ),
    "true-posts": lambda c, seed: true_posts_playback(c.recorded),
}


def _tune(cfg, target: float, count, at_most=None):
    """Price whose mean of ``count(q, seed)`` over the seeds hits ``target``.

    ``at_most(q, seed)``, if given, is no more than ``count(q, seed)`` and
    cheaper to get; its mean is ``tune_q``'s ``lower_bound_fn``.
    """

    def mean(count):
        return lambda q: sum(count(q, seed) for seed in cfg.seeds) / len(cfg.seeds)

    return tune_q(
        target,
        mean(count),
        tolerance=cfg.tune_tol,
        lower_bound_fn=None if at_most is None else mean(at_most),
    )


def _compete(cfg, comp: _Competition, label: str, details: dict, target: float | None):
    """Settle one budget's prices on ``comp``, then report every policy on every seed.

    The controller runs with ``cfg.q``, or with the price tuned so its
    mean post count hits ``target``; synthetic scenarios always run it.
    """
    n_recorded = 0 if comp.recorded is None else len(comp.recorded)
    comp.realized = float(n_recorded)
    comp.redqueen_q = comp.oracle_q = math.nan
    budgeted = any(p in ("redqueen", "uniform", "segment-offline") for p in cfg.policies)
    if comp.recorded is None or budgeted:
        q = cfg.q
        if q is None:
            if target <= 0:
                raise ScenarioError("no recorded posts to match: pass q or target_posts explicitly")
            # a seed that reaches ``cap`` posts puts the mean above the
            # tolerance band of every budget tuned on this competition
            band = len(cfg.seeds) * max(target, comp.ceiling) * (1 + cfg.tune_tol)
            cap = math.floor(min(band, 2.0**62)) + 1
            tuned = details["redqueen_tune"] = _tune(
                cfg, target, lambda q, s: comp.redqueen(q, s).shape[0],
                lambda q, s: min(comp.redqueen(q, s, cap).shape[0], cap),
            )
            q = tuned.q
        comp.redqueen_q = q
        comp.realized = float(
            np.mean([comp.redqueen(q, seed).shape[0] for seed in dict.fromkeys(cfg.seeds)])
        )
        details["redqueen_q"] = q
        details["realized_budget"] = comp.realized

    if "oracle" in cfg.policies:
        oracle_target = comp.realized if comp.realized > 0 else float(max(n_recorded, 1))
        tuned = details["oracle_tune"] = _tune(
            cfg, oracle_target, lambda q, s: int(comp.oracle(q, s).sum())
        )
        comp.oracle_q = tuned.q

    def play(seed, policy):
        posts = POLICIES[policy](comp, seed)
        return report_from_trajectory(trajectory_from_posts(comp.feeds(seed), posts), label, seed, policy)

    # a replay's feeds and recorded posts are the same for every seed, so
    # its true-posts report is the reference's on each seed
    reference = None if comp.recorded is None else play(0, "true-posts")
    reports = []
    for seed in cfg.seeds:
        for policy in cfg.policies:
            if reference is not None and policy == "true-posts":
                report = dataclasses.replace(reference, seed=seed)
            else:
                report = play(seed, policy)
            reports.append(report if reference is None else normalize_report(report, reference))
    return reports, details


def _sweep(cfg, comp: _Competition, details: dict, budgets):
    """``_compete`` on ``cfg``; with ``budgets``, once per budget on the one competition.

    A sweep checks every budget's config before it runs any, and returns
    one ``(config, reports, details)`` per budget, in order.
    """
    if budgets is None:
        return _compete(cfg, comp, cfg.run_label, details, cfg.budget)
    configs = [dataclasses.replace(cfg, budget=b) for b in budgets]
    comp.ceiling = max(c.budget for c in configs)
    return [(c, *_compete(c, comp, c.run_label, dict(details), c.budget)) for c in configs]


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------


class _SyntheticConfig:
    """The ``budget``/``q``/``seeds`` checks and run label both synthetic configs share."""

    def __post_init__(self):
        if (self.budget is None) == (self.q is None):
            raise ScenarioError("set exactly one of budget or q")
        if not self.seeds:
            raise ScenarioError("need at least one seed")
        _check_domain(self)

    @property
    def run_label(self) -> str:
        knob = f"budget={_spell(self.budget)}" if self.budget is not None else f"q={_spell(self.q)}"
        return f"{self._scenario}:{knob}"


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

    _scenario = "one-follower-hawkes"

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


def run_one_follower_hawkes(cfg: HawkesScenarioConfig, budgets=None):
    """``(reports, details)`` of ``cfg``.

    With ``budgets`` the run is a sweep over one set of feeds: one
    ``(config, reports, details)`` per budget, each config being ``cfg``
    with that budget.
    """
    _check_policies(
        cfg.policies, ("redqueen", "oracle", "uniform", "segment-offline"), "one-follower-hawkes"
    )
    params = HawkesParams(cfg.lambda0, cfg.alpha, cfg.w)
    t0, tf = 0.0, cfg.horizon
    streams = {seed: sample_hawkes(params, t0, tf, feed_rng(seed, 0)) for seed in cfg.seeds}
    feeds_by_seed = {seed: Feeds.cut([times], t0, tf) for seed, times in streams.items()}
    comp = _Competition(
        feeds_by_seed.__getitem__,
        lambda seed: _empirical_segment_rate(feeds_by_seed[seed], cfg.offline_segments),
    )
    return _sweep(cfg, comp, _synthetic_details(feeds_by_seed), budgets)


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

    def __post_init__(self):
        super().__post_init__()
        if self.followers < 1:
            raise ScenarioError("need at least one follower")

    @property
    def _scenario(self) -> str:
        return f"multi-follower-sinusoid:followers={self.followers}"


#: Segments of one day in the sinusoid scenario's piecewise rates: hours.
_SEGMENTS_PER_DAY = 24


def _sinusoid_rate(cfg: SinusoidScenarioConfig, phase: float) -> PiecewiseRate:
    """Hourly piecewise rate tracing one day's half sinusoid from ``phase``."""
    seg_len = 86_400.0 / _SEGMENTS_PER_DAY
    n_total = int(math.ceil(cfg.horizon / seg_len))
    knots = np.arange(n_total + 1) * seg_len
    knots[-1] = max(knots[-1], cfg.horizon)
    peak = cfg.peak_per_hour / 3600.0
    segs = (np.arange(n_total) + phase) % _SEGMENTS_PER_DAY
    rates = peak * np.sin(math.pi * segs / _SEGMENTS_PER_DAY)
    return PiecewiseRate(knots, rates)


def run_multi_follower_sinusoid(cfg: SinusoidScenarioConfig, budgets=None):
    """``(reports, details)`` of ``cfg``; a sweep over ``budgets`` as in ``run_one_follower_hawkes``."""
    _check_policies(
        cfg.policies, ("redqueen", "uniform", "segment-offline"), "multi-follower-sinusoid"
    )
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
            total = total + rate.rates  # follower by follower, as _empirical_segment_rate adds
            feeds.append(sample_piecewise_poisson(rate, t0, tf, rng))
        # the offline planner is told the followers' true summed rate here
        rate_by_seed[seed] = PiecewiseRate(rate.knots, total)
        feeds_by_seed[seed] = Feeds.cut(feeds, t0, tf)
    comp = _Competition(feeds_by_seed.__getitem__, rate_by_seed.__getitem__)
    return _sweep(cfg, comp, _synthetic_details(feeds_by_seed), budgets)


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
    significance: str | None = None  # None, "weekday" or "weekday-hour"
    laplace: float = 1.0
    tune_tol: float = 0.1
    offline_segments: int = 10
    initial_rank: int = 0

    def __post_init__(self):
        if not self.seeds:
            raise ScenarioError("need at least one seed")
        if self.q is not None and self.target_posts is not None:
            raise ScenarioError("set at most one of q and target_posts")
        _check_domain(self)


def run_replay(cfg: ReplayConfig, dataset: ReplayDataset):
    _check_policies(cfg.policies, POLICIES, "replay")
    n = len(dataset.follower_ids)
    if "oracle" in cfg.policies:
        if cfg.initial_rank > MAX_ORACLE_RANK:
            raise ValueError(
                f"initial_rank must be at most MAX_ORACLE_RANK = {MAX_ORACLE_RANK} "
                f"for the oracle policy, got {cfg.initial_rank!r}"
            )
        if n != 1:
            raise ScenarioError(
                "the clairvoyant schedule solves a single follower; this replay has "
                f"{n} followers - restrict the dataset or drop the oracle policy"
            )
    # the one window every seed and policy reads, from the requested rank
    feeds = dataclasses.replace(dataset.feeds, initial_ranks=np.full(n, cfg.initial_rank, np.int64))
    details: dict = {"followers": n, "true_posts": len(dataset.true_posts)}

    significance = None
    if cfg.significance is not None:
        profile = estimate_significance(
            dataset.events,
            dataset.follower_ids,
            epoch=dataset.epoch,
            granularity=cfg.significance,
            laplace=cfg.laplace,
        )
        significance = profile.step_schedule(feeds.t0, feeds.tf)

    # the feeds are the same on every seed, and so is their segment rate
    wanted = "segment-offline" in cfg.policies
    rate = _empirical_segment_rate(feeds, cfg.offline_segments) if wanted else None
    comp = _Competition(
        lambda seed: feeds, lambda seed: rate, significance=significance, recorded=dataset.true_posts
    )
    target = cfg.target_posts if cfg.target_posts is not None else float(len(dataset.true_posts))
    return _compete(cfg, comp, f"replay:{dataset.broadcaster}", details, target)
