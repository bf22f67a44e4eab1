"""Policy dispatch and the competition protocol of the scenario runners."""

import dataclasses
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from reference import coded_log, empirical_segment_rates_by_histogram, merge_feeds, segment_totals_by_value_at

from whentopost import feed_sim, scenarios
from whentopost.cli import main
from whentopost.control_online import run_redqueen_fast, tune_q
from whentopost.data_io import Network, build_replay_dataset, load_events, load_network
from whentopost.feed_sim import Feeds
from whentopost.kernels import redqueen_posts
from whentopost.metrics import report_from_trajectory
from whentopost.significance import estimate_significance
from whentopost.scenarios import (
    HawkesScenarioConfig,
    ReplayConfig,
    ScenarioError,
    SinusoidScenarioConfig,
    run_multi_follower_sinusoid,
    run_one_follower_hawkes,
    run_replay,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "replay_small"

ALL_POLICIES = ("redqueen", "oracle", "uniform", "segment-offline", "true-posts")


def fixture_dataset(network_path=FIXTURE / "network.csv"):
    return build_replay_dataset(
        load_events(FIXTURE / "events.jsonl"), load_network(network_path),
        "alice", 345600.0, 0.0, 240.0,
    )


@pytest.fixture
def one_follower(tmp_path):
    """The fixture window with ``bob`` as the broadcaster's only follower."""
    network = tmp_path / "network.csv"
    network.write_text("alice,bob\nwire,bob\nlocal1,bob\n", encoding="utf-8")
    shutil.copy(FIXTURE / "events.jsonl", tmp_path / "events.jsonl")
    dataset = fixture_dataset(network)
    assert dataset.follower_ids == ["bob"]
    return dataset


def run_hawkes(policies):
    [(_, reports, details)] = run_one_follower_hawkes(
        HawkesScenarioConfig(seeds=(0,), policies=policies, q=2.0, target_feed_events=40.0)
    )
    return reports, details


def run_sinusoid(policies):
    [(_, reports, details)] = run_multi_follower_sinusoid(
        SinusoidScenarioConfig(seeds=(0,), policies=policies, q=1e9, followers=2, horizon=7200.0)
    )
    return reports, details


def run_fixture_replay(policies):
    return run_replay(ReplayConfig(seeds=(0,), policies=policies, q=100.0), fixture_dataset())


SCENARIOS = {
    "one-follower-hawkes": (run_hawkes, {"redqueen", "oracle", "uniform", "segment-offline"}),
    "multi-follower-sinusoid": (run_sinusoid, {"redqueen", "uniform", "segment-offline"}),
    "replay": (run_fixture_replay, set(ALL_POLICIES) - {"oracle"}),  # oracle: one follower only
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_policy_allowed_or_denied_per_scenario(scenario, policy):
    run, allowed = SCENARIOS[scenario]
    if policy in allowed:
        reports, _ = run((policy,))
        assert [r.policy for r in reports] == [policy]
        assert all(math.isfinite(r.position_over_time) for r in reports)
    elif scenario == "replay":
        with pytest.raises(ScenarioError, match="the clairvoyant schedule solves a single follower; "
                                                "this replay has 2 followers"):
            run((policy,))
    else:
        with pytest.raises(ScenarioError) as err:
            run((policy,))
        assert str(err.value) == f"policy {policy!r} is not available in the {scenario} scenario"


@pytest.mark.parametrize("run", [run_hawkes, run_sinusoid, run_fixture_replay])
def test_unknown_policy_message_lists_the_table(run):
    with pytest.raises(ScenarioError) as err:
        run(("redqueen", "bogus"))
    assert str(err.value) == (
        "unknown policy 'bogus'; choose from redqueen, oracle, uniform, segment-offline, true-posts"
    )
    assert tuple(scenarios.POLICIES) == ALL_POLICIES


def test_replay_runs_the_oracle_on_a_one_follower_dataset(one_follower):
    cfg = ReplayConfig(seeds=(0, 1), policies=("oracle", "redqueen", "true-posts"))
    reports, details = run_replay(cfg, one_follower)
    assert [(r.seed, r.policy) for r in reports] == [
        (s, p) for s in (0, 1) for p in ("oracle", "redqueen", "true-posts")
    ]
    assert details["followers"] == 1
    assert details["oracle_tune"].converged
    assert details["oracle_tune"].target == details["realized_budget"]
    for r in reports:
        if r.policy == "true-posts":
            assert r.normalized_position == 1.0
        if r.policy == "oracle":  # clairvoyant: never worse than the recorded posts here
            assert r.normalized_position < 1.0


def test_replay_with_only_true_posts_runs_no_controller(one_follower, monkeypatch):
    def no_controller(*args, **kwargs):
        raise AssertionError("the controller ran")

    monkeypatch.setattr(scenarios, "run_redqueen_fast", no_controller)
    reports, details = run_replay(ReplayConfig(seeds=(0,), policies=("true-posts",)), fixture_dataset())
    assert [r.policy for r in reports] == ["true-posts"]
    assert details == {"followers": 2, "true_posts": 4}

    # the oracle's budget is then the recorded post count
    _, details = run_replay(ReplayConfig(seeds=(0,), policies=("oracle", "true-posts")), one_follower)
    assert "redqueen_q" not in details and "realized_budget" not in details
    assert details["oracle_tune"].target == 4.0


def test_oracle_falls_back_to_the_recorded_count_when_the_controller_never_posts(one_follower):
    cfg = ReplayConfig(seeds=(0,), policies=("oracle", "redqueen"), q=1e12)
    _, details = run_replay(cfg, one_follower)
    assert details["realized_budget"] == 0.0
    assert details["oracle_tune"].target == 4.0  # recorded posts, not 1


def too_many_stages(run, monkeypatch):
    """The oracle's stage error from ``run()``, and the controller runs made before it."""
    runs = []
    controller = scenarios.run_redqueen_fast

    def counted(*args, **kwargs):
        runs.append(args)
        return controller(*args, **kwargs)

    monkeypatch.setattr(scenarios, "run_redqueen_fast", counted)
    with pytest.raises(ValueError, match=r"stages: .* capped at 20000 stages") as err:
        run()
    return str(err.value), len(runs)


def test_the_oracle_stage_cap_fails_a_hawkes_run_before_the_controller(monkeypatch):
    cfg = HawkesScenarioConfig(seeds=(0,), policies=("redqueen", "oracle"), budget=50.0, target_feed_events=25000.0)
    message, runs = too_many_stages(lambda: run_one_follower_hawkes(cfg), monkeypatch)
    assert message.startswith("24836 stages: ") and runs == 0


def test_the_oracle_stage_cap_fails_a_replay_before_the_controller(monkeypatch):
    rng = np.random.default_rng(4)
    sources = rng.permutation(["wire"] * 20_000 + ["alice"] * 10)
    log = coded_log(np.sort(rng.uniform(0.0, 1000.0, sources.shape[0])), sources)
    dataset = build_replay_dataset(log, Network.from_edges([("alice", "bob"), ("wire", "bob")]),
                                   "alice", 0.0, 0.0, 1000.0)
    cfg = ReplayConfig(seeds=(0,), policies=("oracle", "redqueen", "true-posts"))
    message, runs = too_many_stages(lambda: run_replay(cfg, dataset), monkeypatch)
    assert message.startswith("20001 stages: ") and runs == 0


@pytest.mark.parametrize("initial_rank", [2, 5])
def test_replay_tunes_the_controller_on_the_initial_ranks_it_reports(initial_rank):
    cfg = ReplayConfig(seeds=tuple(range(10)), initial_rank=initial_rank)
    _, details = run_replay(cfg, fixture_dataset())
    target = 4.0  # the fixture's recorded post count
    assert details["redqueen_tune"].converged
    assert abs(details["realized_budget"] - target) <= cfg.tune_tol * target


DOMAIN_ERRORS = [
    (HawkesScenarioConfig, {"budget": math.nan}, "budget must be positive and finite"),
    (HawkesScenarioConfig, {"q": -1.0}, "q must be positive and finite"),
    (HawkesScenarioConfig, {"q": 1.0, "alpha": math.nan}, "alpha must be finite and nonnegative"),
    (HawkesScenarioConfig, {"q": 1.0, "w": math.inf}, "w must be positive and finite"),
    (SinusoidScenarioConfig, {"q": 1.0, "peak_per_hour": -1.0}, "peak_per_hour must be finite and nonnegative"),
    (SinusoidScenarioConfig, {"budget": 3.0, "tune_tol": math.inf}, "tune_tol must be finite and nonnegative"),
    (ReplayConfig, {"offline_segments": 0}, "offline_segments must be at least 1"),
    (ReplayConfig, {"q": math.nan}, "q must be positive and finite"),
    (SinusoidScenarioConfig, {"q": 1.0, "followers": 0}, "followers must be at least 1, got 0"),
]


@pytest.mark.parametrize(
    "cls, fields, message", DOMAIN_ERRORS, ids=[f"{c.__name__}-{m.split()[0]}" for c, _, m in DOMAIN_ERRORS]
)
def test_configs_reject_out_of_domain_fields_by_name(cls, fields, message):
    with pytest.raises(ValueError, match=message):
        cls(seeds=(0,), **fields)


def test_config_combination_errors_keep_their_messages():
    with pytest.raises(ScenarioError, match="set exactly one of budget or q"):
        SinusoidScenarioConfig(seeds=(0,))
    with pytest.raises(ScenarioError, match="need at least one seed"):
        HawkesScenarioConfig(seeds=(), q=1.0)
    with pytest.raises(ScenarioError, match="set at most one of q and target_posts"):
        ReplayConfig(seeds=(0,), q=1.0, target_posts=3.0)


# ---------------------------------------------------------------------------
# one competition per sweep: every (policy, q, seed) evaluated once
# ---------------------------------------------------------------------------

SWEEP = ["simulate", "--scenario", "one-follower-hawkes", "--seeds", "0-1", "--feed-events", "60",
         "--policy", "redqueen", "--policy", "oracle", "--policy", "uniform", "--policy", "segment-offline"]


def counted_cli_run(monkeypatch, argv, out):
    """Run the CLI with counting wrappers on the controller and the oracle.

    Like the benchmark's tracer, the wrappers rebind the ``scenarios``
    module attributes, so they see every evaluation the competition runs.
    Returns the stdout status and a Counter of ``(policy, q, feed bytes)``.
    """
    calls = Counter()
    oracle, controller = scenarios.oracle_schedule, scenarios.run_redqueen_fast

    def counted_oracle(inst):
        calls["oracle", inst.q, inst.widths.tobytes()] += 1
        return oracle(inst)

    def counted_controller(feeds, q, *args, **kwargs):
        calls["redqueen", q, feeds.times.tobytes()] += 1
        return controller(feeds, q, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(scenarios, "oracle_schedule", counted_oracle)
        m.setattr(scenarios, "run_redqueen_fast", counted_controller)
        result = CliRunner().invoke(main, argv + ["--out", str(out)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout), calls


def test_a_budget_sweep_evaluates_each_policy_price_and_seed_once(tmp_path, monkeypatch):
    status, calls = counted_cli_run(monkeypatch, SWEEP + ["--budget", "3,6,12"], tmp_path / "sweep.csv")
    assert set(calls.values()) == {1}

    singles, single_calls = [], Counter()
    for b in ("3", "6", "12"):
        out = tmp_path / f"budget-{b}.csv"
        single_status, got = counted_cli_run(monkeypatch, SWEEP + ["--budget", b], out)
        singles.append((out.read_bytes(), single_status["details"]))
        single_calls.update(got)
    # the sweep runs exactly the evaluations the single-budget runs need, once each
    assert set(calls) == set(single_calls)
    assert sum(single_calls.values()) > sum(calls.values())
    for policy in ("redqueen", "oracle"):
        assert any(n > 1 for (p, *_), n in single_calls.items() if p == policy)

    # and writes the three runs' reports and details, unchanged; the report
    # file orders its rows by run label, so the runs concatenate in that order
    singles.sort(key=lambda single: list(single[1]))
    header = singles[0][0].splitlines(keepends=True)[0]
    expected = header + b"".join(data[len(header):] for data, _ in singles)
    assert (tmp_path / "sweep.csv").read_bytes() == expected
    assert status["details"] == {k: v for _, details in singles for k, v in details.items()}


def test_a_replay_solves_the_oracle_once_per_price_for_all_its_seeds(one_follower, monkeypatch):
    # a replay's seeds share one Feeds, and the induction draws nothing
    calls = Counter()
    oracle = scenarios.oracle_schedule

    def counted(inst):
        calls[inst.q] += 1
        return oracle(inst)

    monkeypatch.setattr(scenarios, "oracle_schedule", counted)
    _, details = run_replay(ReplayConfig(seeds=(0, 1, 2), policies=("oracle", "true-posts")), one_follower)
    assert set(calls.values()) == {1}
    assert len(calls) == details["oracle_tune"].iterations


def test_the_hawkes_runner_builds_the_planner_rate_only_for_segment_offline(monkeypatch):
    built = []
    rate = scenarios._empirical_segment_rate
    monkeypatch.setattr(scenarios, "_empirical_segment_rate", lambda *args: built.append(args) or rate(*args))
    for policies, count in ((("redqueen", "uniform"), 0), (("uniform", "segment-offline"), 2)):
        built.clear()
        run_one_follower_hawkes(HawkesScenarioConfig(seeds=(0, 1), policies=policies, q=2.0, target_feed_events=40.0))
        assert len(built) == count


def test_a_library_sweep_matches_single_budget_runs():
    cfg = HawkesScenarioConfig(seeds=(0, 1), budget=3.0, target_feed_events=60.0,
                               policies=("redqueen", "oracle", "uniform"))
    runs = run_one_follower_hawkes(cfg, budgets=(3.0, 6.0))
    assert [c.budget for c, _, _ in runs] == [3.0, 6.0]
    for c, reports, details in runs:
        assert c == dataclasses.replace(cfg, budget=c.budget)
        assert [(c, reports, details)] == run_one_follower_hawkes(c)


def test_a_sweep_checks_every_budget_before_it_runs(monkeypatch):
    def no_controller(*args, **kwargs):
        raise AssertionError("the controller ran")

    monkeypatch.setattr(scenarios, "run_redqueen_fast", no_controller)
    cfg = SinusoidScenarioConfig(seeds=(0,), budget=3.0, followers=2, horizon=7200.0)
    with pytest.raises(ValueError, match="budget must be positive and finite, got nan"):
        run_multi_follower_sinusoid(cfg, budgets=(3.0, math.nan))


def test_a_sweep_checks_every_budget_before_it_samples(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a feed was sampled")

    monkeypatch.setattr(scenarios, "sample_hawkes", no_sampling)
    monkeypatch.setattr(scenarios, "sample_piecewise_poisson", no_sampling)
    runs = [
        (run_one_follower_hawkes, HawkesScenarioConfig(seeds=(0,), budget=3.0)),
        (run_multi_follower_sinusoid, SinusoidScenarioConfig(seeds=(0,), budget=3.0)),
    ]
    for run, cfg in runs:
        with pytest.raises(ValueError, match="budget must be positive and finite, got nan"):
            run(cfg, budgets=(3.0, math.nan))


def test_the_memo_is_read_only_and_per_competition():
    feeds = Feeds.cut([[1.0, 2.0, 3.0]], 0.0, 4.0)

    def competition():
        return scenarios._Competition({0: feeds}, {0: None})

    comp = competition()
    posts = comp.redqueen(0.5, 0)
    assert posts.shape[0] > 0
    assert comp.redqueen(0.5, 0) is posts
    assert not posts.flags.writeable
    decisions = comp.oracle(0.5, 0)
    assert comp.oracle(0.5, 0) is decisions and decisions.dtype == np.int8
    assert not decisions.flags.writeable
    other = competition()
    assert other.memo == {}
    assert other.redqueen(0.5, 0) is not posts
    assert other.redqueen(0.5, 0).tobytes() == posts.tobytes()


def weekday_replay_setup():
    """Three followers over four days, their weekday weights and initial ranks."""
    rng = np.random.default_rng(17)
    t0, tf = 3_600.0, 4 * 86_400.0
    feeds = [np.sort(rng.uniform(0.0, tf + 7_200.0, 400)) for _ in range(3)]
    ids = ["a", "b", "c"]
    own = np.sort(rng.uniform(-8 * 86_400.0, 0.0, 600))
    log = coded_log(own, np.array(ids, dtype=object)[rng.integers(0, 3, own.shape[0])])
    epoch = 1_700_000_000.0
    schedule = estimate_significance(log, ids, epoch=epoch, granularity="weekday").step_schedule(t0, tf)
    assert schedule.knots.shape[0] > 3  # day edges inside the window
    return feeds, t0, tf, schedule, np.array([0, 2, 5], dtype=np.int64)


def count_merges(monkeypatch) -> list:
    """Record every ``Feeds`` whose merged timeline is computed, once per computation."""
    merges = []
    merge = feed_sim.Feeds.merged.func

    def counted(feeds):
        merges.append(feeds)
        return merge(feeds)

    monkeypatch.setattr(feed_sim.Feeds.merged, "func", counted)
    return merges


def test_the_controller_reads_a_feed_merged_once_per_competition(monkeypatch):
    streams, t0, tf, schedule, ranks = weekday_replay_setup()
    merges = count_merges(monkeypatch)
    feeds_by_seed = {seed: Feeds.cut(streams, t0, tf, ranks) for seed in (0, 1)}
    comp = scenarios._Competition(feeds_by_seed, dict.fromkeys(feeds_by_seed), significance=schedule)
    for seed in (0, 1):
        for q in (0.25, 4.0, 64.0):
            # the per-call path: window and merge the followers' streams on every run
            feed_t, feed_j = merge_feeds([f[(f > t0) & (f <= tf)] for f in streams])
            clock_rates = np.sqrt(schedule.values / q)
            want = redqueen_posts(feed_t, feed_j, ranks, schedule.knots, clock_rates, 2**62, scenarios.policy_rng(seed))
            assert want.shape[0] > 0
            assert comp.redqueen(q, seed).tobytes() == want.tobytes()
            direct = run_redqueen_fast(feeds_by_seed[seed], q, scenarios.policy_rng(seed), schedule)
            assert direct.tobytes() == want.tobytes()
    # once per Feeds, not once per price
    assert len(merges) == 2 and all(m is feeds_by_seed[seed] for m, seed in zip(merges, (0, 1)))


def test_a_replay_merges_its_feeds_and_builds_their_segment_rate_once(monkeypatch):
    merges = count_merges(monkeypatch)
    rates = []
    rate = scenarios._empirical_segment_rate

    def counted_rate(feeds, *args):
        rates.append(feeds)
        return rate(feeds, *args)

    monkeypatch.setattr(scenarios, "_empirical_segment_rate", counted_rate)
    dataset = fixture_dataset()
    cfg = ReplayConfig(seeds=(0, 1, 2), policies=("redqueen", "segment-offline", "true-posts"))
    reports, details = run_replay(cfg, dataset)
    assert details["redqueen_tune"].iterations > 1
    assert [r.policy for r in reports].count("segment-offline") == 3
    # the one window the replay made from the dataset's feeds and its initial rank
    assert len(merges) == 1 and merges[0].times is dataset.feeds.times
    assert len(rates) == 1 and rates[0] is merges[0]


# ---------------------------------------------------------------------------
# price searches decided by capped controller runs
# ---------------------------------------------------------------------------

REPLAY_WEEK = ["replay", "--significance", "weekday", "--seeds", "0-2",
               "--policy", "redqueen", "--policy", "uniform", "--policy", "true-posts"]


def test_a_replay_runs_each_price_and_seed_whole_at_most_once(genlog_manifest, tmp_path, monkeypatch):
    runs = Counter()
    controller = scenarios.run_redqueen_fast

    def counted(feeds, q, rng, *args, max_posts=2**62, **kwargs):
        runs[q, str(rng.bit_generator.state), max_posts < 2**62] += 1
        return controller(feeds, q, rng, *args, max_posts=max_posts, **kwargs)

    def replay(out):
        argv = REPLAY_WEEK + ["--manifest", str(genlog_manifest), "--out", str(out)]
        result = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == 0, result.output
        return json.loads(result.stdout)["details"], out.read_bytes()

    with monkeypatch.context() as m:
        m.setattr(scenarios, "run_redqueen_fast", counted)
        details, report = replay(tmp_path / "capped.csv")
    tuned = details["redqueen_tune"]
    assert tuned["converged"] and tuned["iterations"] > 3
    # one run per price the search tried and seed, capped or whole, and no
    # other: the settled price's capped runs were whole, and the reports
    # read them back
    assert set(runs.values()) == {1}
    assert len({key[:2] for key in runs}) == len(runs) == 3 * tuned["iterations"]
    assert sum(key[0] == tuned["q"] for key in runs) == 3
    assert all(capped for _, _, capped in runs)

    # and a search given no lower bounds prints the same tune and writes the same report
    def exact_only(target, mean_posts_fn, lower_bound_fn, **kwargs):
        return tune_q(target, mean_posts_fn, **kwargs)

    monkeypatch.setattr(scenarios, "tune_q", exact_only)
    assert replay(tmp_path / "exact.csv") == (details, report)


@pytest.mark.parametrize("n_followers", [0, 1, 2, 60])
def test_feeds_merge_and_segment_rate_match_the_per_follower_references(n_followers):
    # the merged timeline is the reference merge of one stream per follower;
    # the segment rate is the histogram rate of each feed, summed one
    # value_at per follower and segment in follower order
    rng = np.random.default_rng(41 + n_followers)
    for i in range(40):
        t0, tf = sorted(rng.uniform(0.0, 100.0, 2))
        segments = 1 if i % 4 == 0 else int(rng.integers(2, 40))
        knots = np.linspace(t0, tf, segments + 1)
        # events on the knots (both ends, so at t0 too, which the cut drops, and
        # at tf) and between them, tied across followers; some feeds empty
        pool = np.concatenate([knots, rng.uniform(t0, tf, 40)])
        streams = [np.unique(rng.choice(pool, int(rng.integers(0, 30)))) for _ in range(n_followers)]
        if i % 3 == 0 and n_followers:
            streams[0] = np.empty(0)
        feeds = Feeds.cut(streams, t0, tf)
        want_t, want_j = merge_feeds([np.asarray(f) for f in feeds])
        got_t, got_j = feeds.merged
        assert got_t.tobytes() == want_t.tobytes() and got_j.tobytes() == want_j.tobytes()
        got = scenarios._empirical_segment_rate(feeds, segments)
        want = segment_totals_by_value_at(empirical_segment_rates_by_histogram(feeds, t0, tf, segments), knots)
        assert got.knots.tobytes() == knots.tobytes() and got.values.tobytes() == want.tobytes()


def test_a_replay_scores_its_recorded_posts_once(monkeypatch):
    calls = []
    scored = feed_sim.trajectory_from_posts

    def counted(feeds, posts):
        calls.append(posts.tobytes())
        return scored(feeds, posts)

    monkeypatch.setattr(scenarios, "trajectory_from_posts", counted)
    seeds = (0, 1, 2)
    cfg = ReplayConfig(seeds=seeds, policies=("true-posts", "uniform"), q=100.0)
    dataset = fixture_dataset()
    reports, _ = run_replay(cfg, dataset)
    recorded = dataset.true_posts.tobytes()
    assert calls.count(recorded) == 1 and len(calls) == 1 + len(seeds)
    reference = report_from_trajectory(scored(dataset.feeds, dataset.true_posts), "", 0, "")
    for seed, report in zip(seeds, (r for r in reports if r.policy == "true-posts")):
        assert report.seed == seed
        assert (report.position_over_time, report.time_at_top) == (
            reference.position_over_time, reference.time_at_top
        )
        assert report.normalized_position == report.normalized_time_at_top == 1.0


def test_the_sinusoid_rate_spans_the_horizon():
    # hourly knots from 0, the last one on the horizon, whole hour or not
    for horizon in (1.0, 3600.0, 5400.0, 43200.0, 86400.5):
        rate = scenarios._sinusoid_rate(SinusoidScenarioConfig(seeds=(0,), q=1.0, horizon=horizon), 3.5)
        n = rate.values.shape[1]
        assert n == math.ceil(horizon / 3600.0)
        assert rate.knots.tolist() == [3600.0 * k for k in range(n)] + [horizon]
