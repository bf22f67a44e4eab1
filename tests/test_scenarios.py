"""Policy dispatch and the competition protocol of the scenario runners."""

import math
import shutil
from pathlib import Path

import pytest

from whentopost import scenarios
from whentopost.data_io import build_replay_dataset, load_events, load_network
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
    return run_one_follower_hawkes(
        HawkesScenarioConfig(seeds=(0,), policies=policies, q=2.0, target_feed_events=40.0)
    )


def run_sinusoid(policies):
    return run_multi_follower_sinusoid(
        SinusoidScenarioConfig(seeds=(0,), policies=policies, q=1e9, followers=2, horizon=7200.0)
    )


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
    (SinusoidScenarioConfig, {"q": 1.0, "segments_per_day": 0}, "segments_per_day must be at least 1"),
    (SinusoidScenarioConfig, {"budget": 3.0, "tune_tol": math.inf}, "tune_tol must be finite and nonnegative"),
    (ReplayConfig, {"offline_segments": 0}, "offline_segments must be at least 1"),
    (ReplayConfig, {"q": math.nan}, "q must be positive and finite"),
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
    with pytest.raises(ScenarioError, match="need at least one follower"):
        SinusoidScenarioConfig(seeds=(0,), q=1.0, followers=0)
    with pytest.raises(ScenarioError, match="set at most one of q and target_posts"):
        ReplayConfig(seeds=(0,), q=1.0, target_posts=3.0)
