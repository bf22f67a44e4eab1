"""Canned experiment setups: synthetic feeds and log replays.

Each runner takes a config dataclass, checks the requested policies
against the ones its scenario allows and builds its feeds (sampled, or
cut from a recorded log) into one competition; one driver, ``_compete``,
then runs every policy over every seed and returns per-run metric
reports plus a details dict (tuned prices, realized budgets).
``POLICIES`` maps each policy name to the function placing its posts for
one seed.  A replay also brings its significance schedule, initial ranks
and recorded posts, which every replayed report is normalized against.

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

A synthetic runner given ``budgets`` settles every budget of the sweep
on one competition: each seed's feeds are sampled once, and merged once
into the stream the controller reads.  The competition also computes
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
from .control_online import RedQueenParams, StepSchedule, merge_window, run_redqueen_fast, tune_q
from .control_oracle import (
    OracleSchedule,
    decisions_to_post_times,
    instance_from_feed,
    oracle_schedule,
)
from .data_io import ReplayDataset
from .feed_sim import trajectory_from_posts
from .metrics import normalize_report, report_from_trajectory
from .point_process import EventStream, HawkesParams, PiecewiseRate, sample_hawkes, sample_piecewise_poisson
from .significance import estimate_significance

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
_LEAST = {"offline_segments": 1, "segments_per_day": 1, "initial_rank": 0}


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


def _empirical_segment_rates(feeds, t0, tf, n_segments: int) -> list[PiecewiseRate]:
    knots = np.linspace(t0, tf, n_segments + 1)
    out = []
    for f in feeds:
        counts, _ = np.histogram(f.times, bins=knots)
        out.append(PiecewiseRate(knots, counts / np.diff(knots)))
    return out


# ---------------------------------------------------------------------------
# the competition driver and its policy table
# ---------------------------------------------------------------------------


@dataclass
class _Competition:
    """One scenario's feeds, every evaluation made on them, and one budget's prices.

    ``feeds(seed)`` gives one stream per follower; ``offline_rates(seed)``
    the per-follower rates the segment-offline planner is told.
    ``redqueen(q, seed)`` and ``oracle(q, seed)`` compute each
    ``(policy, q, seed)`` once and keep it in ``memo``.  ``_compete``
    settles ``realized``, ``redqueen_q`` and ``oracle_q`` for one budget
    at a time; a sweep sets ``ceiling`` first, so that every budget's
    search caps its runs alike and reads the same runs back.
    """

    t0: float
    tf: float
    feeds: Callable
    offline_rates: Callable
    significance: StepSchedule | None = None
    initial_ranks: np.ndarray | None = None
    recorded: EventStream | None = None  # replay only: the broadcaster's true posts
    realized: float = 0.0  # the budget every baseline matches
    ceiling: float = 0.0  # the largest budget tuned to on this competition, for a sweep
    redqueen_q: float = math.nan
    oracle_q: float = math.nan
    memo: dict = field(default_factory=dict)

    def _once(self, key, compute):
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def merged_feed(self, seed):
        """``seed``'s feeds on (t0, tf] as the controller reads them, merged once."""
        return self._once(("feed", seed), lambda: merge_window(self.feeds(seed), self.t0, self.tf))

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
            posts = run_redqueen_fast(
                self.feeds(seed), params, policy_rng(seed), self.t0, self.tf,
                initial_ranks=self.initial_ranks, max_posts=cap, merged=self.merged_feed(seed),
            )
            posts.flags.writeable = False  # shared by every reader of the memo
            self.memo[key if posts.shape[0] < cap else key + (cap,)] = posts
        whole = self.memo.get(key)
        return whole if whole is not None else self.memo[key + (cap,)]

    def oracle(self, q: float, seed: int) -> OracleSchedule:
        """The clairvoyant schedule at price ``q`` on ``seed``'s (single) feed."""

        def run():
            inst = instance_from_feed(self.feeds(seed)[0].times, self.t0, self.tf, q=q)
            schedule = oracle_schedule(inst)
            schedule.decisions.flags.writeable = False
            return schedule

        return self._once(("oracle", q, seed), run)


#: Policy name -> post times for one seed of a competition.  The controller
#: and the clairvoyant schedule come from the competition's memo, whose
#: misses (like every other entry) look their functions up as module
#: globals at call time, so a rebound module attribute (a tracer's
#: wrapper, say) sees every call.
POLICIES = {
    "redqueen": lambda c, seed: c.redqueen(c.redqueen_q, seed),
    "oracle": lambda c, seed: decisions_to_post_times(
        c.oracle(c.oracle_q, seed).decisions, c.feeds(seed)[0].times, c.t0
    ),
    "uniform": lambda c, seed: uniform_poisson_posts(c.realized, c.t0, c.tf, baseline_rng(seed)),
    "segment-offline": lambda c, seed: segment_offline_posts(
        c.offline_rates(seed), int(round(c.realized)), c.t0, c.tf
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
        max_iter=cfg.tune_max_iter,
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
            cfg, oracle_target, lambda q, s: comp.oracle(q, s).post_count
        )
        comp.oracle_q = tuned.q

    def play(seed, policy):
        posts = POLICIES[policy](comp, seed)
        traj = trajectory_from_posts(
            comp.feeds(seed), posts, comp.t0, comp.tf, initial_ranks=comp.initial_ranks
        )
        return report_from_trajectory(traj, label, seed, policy)

    reference = None if comp.recorded is None else play(0, "true-posts")
    reports = []
    for seed in cfg.seeds:
        for policy in cfg.policies:
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


def _synthetic_details(feeds_by_seed: dict, tf: float) -> dict:
    return {
        "horizon": tf,
        "mean_feed_events": float(
            np.mean([sum(len(f) for f in feeds) for feeds in feeds_by_seed.values()])
        ),
    }


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
    tune_max_iter: int = 60
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
    feeds_by_seed = {
        seed: [sample_hawkes(params, t0, tf, feed_rng(seed, 0))] for seed in cfg.seeds
    }
    comp = _Competition(
        t0, tf, feeds_by_seed.__getitem__,
        lambda seed: _empirical_segment_rates(feeds_by_seed[seed], t0, tf, cfg.offline_segments),
    )
    return _sweep(cfg, comp, _synthetic_details(feeds_by_seed, tf), budgets)


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
    segments_per_day: int = 24
    tune_tol: float = 0.1
    tune_max_iter: int = 60

    def __post_init__(self):
        super().__post_init__()
        if self.followers < 1:
            raise ScenarioError("need at least one follower")

    @property
    def _scenario(self) -> str:
        return f"multi-follower-sinusoid:followers={self.followers}"


def _sinusoid_rate(cfg: SinusoidScenarioConfig, phase: float) -> PiecewiseRate:
    """Hourly piecewise rate tracing one day's half sinusoid from ``phase``."""
    nseg = cfg.segments_per_day
    seg_len = 86_400.0 / nseg
    n_total = int(math.ceil(cfg.horizon / seg_len))
    knots = np.arange(n_total + 1) * seg_len
    knots[-1] = max(knots[-1], cfg.horizon)
    peak = cfg.peak_per_hour / 3600.0
    segs = (np.arange(n_total) + phase) % nseg
    rates = peak * np.sin(math.pi * segs / nseg)
    return PiecewiseRate(knots, rates)


def run_multi_follower_sinusoid(cfg: SinusoidScenarioConfig, budgets=None):
    """``(reports, details)`` of ``cfg``; a sweep over ``budgets`` as in ``run_one_follower_hawkes``."""
    _check_policies(
        cfg.policies, ("redqueen", "uniform", "segment-offline"), "multi-follower-sinusoid"
    )
    t0, tf = 0.0, cfg.horizon
    rates_by_seed = {}
    feeds_by_seed = {}
    for seed in cfg.seeds:
        rates = []
        feeds = []
        for j in range(cfg.followers):
            rng = feed_rng(seed, j)
            phase = rng.uniform(0.0, cfg.segments_per_day)
            rate = _sinusoid_rate(cfg, phase)
            rates.append(rate)
            feeds.append(sample_piecewise_poisson(rate, t0, tf, rng))
        rates_by_seed[seed] = rates
        feeds_by_seed[seed] = feeds
    # the offline planner is told the true rates here
    comp = _Competition(t0, tf, feeds_by_seed.__getitem__, rates_by_seed.__getitem__)
    return _sweep(cfg, comp, _synthetic_details(feeds_by_seed, tf), budgets)


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
    tune_max_iter: int = 60
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
    t0, tf = dataset.t0, dataset.tf
    n = len(dataset.follower_ids)
    if "oracle" in cfg.policies and n != 1:
        raise ScenarioError(
            "the clairvoyant schedule solves a single follower; this replay has "
            f"{n} followers - restrict the dataset or drop the oracle policy"
        )
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
        significance = profile.step_schedule(dataset.follower_ids, t0, tf)

    comp = _Competition(
        t0, tf, lambda seed: dataset.feeds,
        lambda seed: _empirical_segment_rates(dataset.feeds, t0, tf, cfg.offline_segments),
        significance=significance,
        initial_ranks=np.full(n, cfg.initial_rank, dtype=np.int64),
        recorded=dataset.true_posts,
    )
    target = cfg.target_posts if cfg.target_posts is not None else float(len(dataset.true_posts))
    return _compete(cfg, comp, f"replay:{dataset.broadcaster}", details, target)
