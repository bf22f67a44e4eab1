"""End-to-end command line checks on tiny workloads."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from reference import read_profile_csv, read_report_csv

from whentopost.cli import main

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "replay_small"

SMALL_SIM = [
    "simulate",
    "--scenario", "one-follower-hawkes",
    "--policy", "redqueen",
    "--policy", "uniform",
    "--q", "4.0",
    "--seeds", "0-2",
    "--feed-events", "40",
]


def run_ok(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output + result.stderr
    return result


def test_simulate_writes_report_and_echoes_json(tmp_path):
    out = tmp_path / "report.csv"
    result = run_ok(SMALL_SIM + ["--out", str(out)])
    payload = json.loads(result.output)
    assert payload["written"] == str(out)
    assert payload["rows"] == 6  # 3 seeds x 2 policies
    reports = read_report_csv(out)
    assert len(reports) == 6
    assert sorted(set(r.policy for r in reports)) == ["redqueen", "uniform"]


def test_simulate_reruns_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_ok(SMALL_SIM + ["--out", str(out1)])
    run_ok(SMALL_SIM + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rejects_budget_with_q(tmp_path):
    result = CliRunner().invoke(
        main, SMALL_SIM + ["--budget", "5", "--out", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert "exactly one" in err["message"]


def test_simulate_repeated_budget_writes_one_row(tmp_path):
    out = tmp_path / "r.csv"
    result = run_ok([
        "simulate", "--scenario", "one-follower-hawkes", "--policy", "redqueen",
        "--budget", "3,3.0,3", "--feed-events", "40", "--seeds", "0", "--out", str(out),
    ])
    assert json.loads(result.output)["rows"] == 1
    assert [r.run for r in read_report_csv(out)] == ["one-follower-hawkes:budget=3"]


def test_simulate_budgets_close_together_get_distinct_labels(tmp_path):
    # 3 and 3.0000001 both print as 3 with :g; each keeps its own row and tune
    out = tmp_path / "r.csv"
    result = run_ok([
        "simulate", "--scenario", "one-follower-hawkes", "--policy", "redqueen",
        "--budget", "3,3.0000001", "--feed-events", "40", "--seeds", "0", "--out", str(out),
    ])
    labels = ["one-follower-hawkes:budget=3", "one-follower-hawkes:budget=3.0000001"]
    assert [r.run for r in read_report_csv(out)] == labels
    details = json.loads(result.output)["details"]
    assert sorted(details) == labels
    assert [details[label]["redqueen_tune"]["target"] for label in labels] == [3.0, 3.0000001]


def test_simulate_rejects_bad_seed_range(tmp_path):
    result = CliRunner().invoke(
        main, SMALL_SIM + ["--seeds", "5-2", "--out", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"] == "ValueError"


def test_config_file_matches_explicit_flags(tmp_path):
    out_flags = tmp_path / "flags.csv"
    out_config = tmp_path / "config.csv"
    run_ok(SMALL_SIM + ["--out", str(out_flags)])
    config = {
        "simulate": {
            "scenario": "one-follower-hawkes",
            "policies": ["redqueen", "uniform"],
            "q": 4.0,
            "seeds": "0-2",
            "feed_events": 40,
        }
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_ok(["--config", str(cfg_path), "simulate", "--out", str(out_config)])
    assert out_flags.read_bytes() == out_config.read_bytes()


def test_config_rejects_non_object(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("[1, 2]", encoding="utf-8")
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "simulate",
                                       "--scenario", "one-follower-hawkes",
                                       "--out", str(tmp_path / "r.csv")])
    assert result.exit_code == 2
    assert json.loads(result.stderr)["error"] == "ConfigError"


def test_tune_q_converges_on_small_scenario():
    result = run_ok([
        "tune-q",
        "--scenario", "one-follower-hawkes",
        "--target", "5",
        "--tol", "0.2",
        "--seeds", "0-3",
        "--feed-events", "40",
    ])
    payload = json.loads(result.output)
    assert payload["converged"] is True
    assert abs(payload["mean_posts"] - 5.0) <= 0.2 * 5.0
    assert payload["q"] > 0
    assert payload["realized_budget"] == payload["mean_posts"]


def test_tune_q_unreachable_target_exits_3():
    result = CliRunner().invoke(main, [
        "tune-q",
        "--scenario", "one-follower-hawkes",
        "--target", "100000",
        "--seeds", "0",
        "--feed-events", "30",
    ])
    assert result.exit_code == 3
    payload = json.loads(result.output)
    assert payload["converged"] is False


def test_replay_normalizes_true_posts_to_one(tmp_path):
    out = tmp_path / "replay.csv"
    summary = tmp_path / "summary.csv"
    result = run_ok([
        "replay",
        "--manifest", str(FIXTURE / "manifest.txt"),
        "--seeds", "0-2",
        "--out", str(out),
        "--summary", str(summary),
    ])
    payload = json.loads(result.output)
    assert payload["rows"] == 6
    reports = read_report_csv(out)
    for r in reports:
        if r.policy == "true-posts":
            assert r.normalized_position == 1.0
            assert r.normalized_time_at_top == 1.0
            assert r.posts == 4
    lines = summary.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("run,policy,metric")
    assert len(lines) == 1 + 2 * 2  # 2 policies x 2 metrics


def test_replay_reruns_byte_identical(tmp_path):
    args = [
        "replay",
        "--manifest", str(FIXTURE / "manifest.txt"),
        "--seeds", "0-1",
        "--q", "1000.0",
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_ok(args + ["--out", str(out1)])
    run_ok(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_replay_missing_manifest_is_usage_error(tmp_path):
    result = CliRunner().invoke(main, [
        "replay", "--manifest", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "r.csv"),
    ])
    assert result.exit_code == 2


def test_estimate_significance_profiles_all_sources(tmp_path):
    out = tmp_path / "profile.csv"
    result = run_ok([
        "estimate-significance",
        "--events", str(FIXTURE / "events.jsonl"),
        "--epoch", "345600.0",
        "--granularity", "weekday",
        "--out", str(out),
    ])
    payload = json.loads(result.output)
    assert payload["followers"] == 4  # alice, local1, local2, wire
    profile = read_profile_csv(out)
    assert profile.granularity == "weekday"
    assert set(profile.values) == {"alice", "local1", "local2", "wire"}
    # fixture events all land on the epoch's first day
    for values in profile.values.values():
        assert values[0] == 1.0


def test_estimate_significance_follower_filter(tmp_path):
    out = tmp_path / "profile.csv"
    run_ok([
        "estimate-significance",
        "--events", str(FIXTURE / "events.jsonl"),
        "--epoch", "0.0",
        "--follower", "wire",
        "--laplace", "0.0",
        "--out", str(out),
    ])
    profile = read_profile_csv(out)
    assert set(profile.values) == {"wire"}
    assert profile.laplace == 0.0


def run_failing(args):
    """Invoke a command expected to fail; return its one-line JSON error."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])


@pytest.mark.parametrize("bad", ["Infinity", "NaN"])
def test_non_finite_event_time_fails_with_line_number(tmp_path, bad):
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 1.0, "src": "a"}\n{"t": %s, "src": "b"}\n' % bad, encoding="utf-8")
    err = run_failing([
        "estimate-significance", "--events", str(events), "--epoch", "0.0",
        "--out", str(tmp_path / "profile.csv"),
    ])
    assert err["error"] == "DataFormatError"
    assert f"{events}:2: event time must be finite" in err["message"]
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("line", ['{"t": 1%s, "src": "b"}', '{"t":1%s,"src":"b"}'])
def test_oversized_integer_event_time_fails_with_line_number(tmp_path, line):
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 1.0, "src": "a"}\n' + line % ("0" * 400) + "\n", encoding="utf-8")
    err = run_failing([
        "estimate-significance", "--events", str(events), "--epoch", "0.0",
        "--out", str(tmp_path / "profile.csv"),
    ])
    assert err["error"] == "DataFormatError"
    assert err["message"] == f"{events}:2: bad event line (int too large to convert to float)"


def test_deeply_nested_event_line_fails_with_line_number(tmp_path):
    events = tmp_path / "events.jsonl"
    events.write_text('{"t": 1.0, "src": "a"}\n' + "[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    err = run_failing([
        "estimate-significance", "--events", str(events), "--epoch", "0.0",
        "--out", str(tmp_path / "profile.csv"),
    ])
    assert err["error"] == "DataFormatError"
    assert err["message"].startswith(f"{events}:2: bad event line (maximum recursion depth")
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("epoch", ["inf", "nan"])
def test_non_finite_epoch_flag_fails(tmp_path, epoch):
    err = run_failing([
        "estimate-significance", "--events", str(FIXTURE / "events.jsonl"),
        "--epoch", epoch, "--out", str(tmp_path / "profile.csv"),
    ])
    assert err["error"] == "ValueError"
    assert "epoch must be finite" in err["message"]
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_non_finite_target_posts_fails(tmp_path, target):
    err = run_failing([
        "replay", "--manifest", str(FIXTURE / "manifest.txt"), "--seeds", "0",
        "--target-posts", target, "--out", str(tmp_path / "r.csv"),
    ])
    assert err["error"] == "ValueError"
    assert "target_posts must be positive and finite" in err["message"]
    assert not (tmp_path / "r.csv").exists()


def test_non_finite_manifest_window_fails_with_line_number(tmp_path):
    manifest = tmp_path / "manifest.txt"
    text = (FIXTURE / "manifest.txt").read_text(encoding="utf-8")
    manifest.write_text(text.replace("tf = 240.0", "tf = inf"), encoding="utf-8")
    for name in ("events.jsonl", "network.csv"):
        (tmp_path / name).write_bytes((FIXTURE / name).read_bytes())
    err = run_failing([
        "replay", "--manifest", str(manifest), "--seeds", "0", "--out", str(tmp_path / "r.csv"),
    ])
    assert err["error"] == "DataFormatError"
    assert f"{manifest}:6: tf must be finite" in err["message"]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("name, what", [("network.csv", "network"), ("manifest.txt", "manifest")])
def test_invalid_utf8_in_replay_input_fails_with_line_and_column(tmp_path, name, what):
    for each in ("events.jsonl", "network.csv", "manifest.txt"):
        (tmp_path / each).write_bytes((FIXTURE / each).read_bytes())
    lines = (tmp_path / name).read_bytes().split(b"\n")
    lines[1] = lines[1][:3] + b"\xff" + lines[1][3:]
    (tmp_path / name).write_bytes(b"\n".join(lines))
    err = run_failing([
        "replay", "--manifest", str(tmp_path / "manifest.txt"), "--seeds", "0",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert err["error"] == "DataFormatError"
    assert err["message"].endswith(
        f"{name}:2: bad {what} line (invalid UTF-8 at column 4: invalid start byte)"
    )
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("exc_type", [TypeError, RuntimeError, MemoryError])
def test_unexpected_errors_keep_the_json_error_contract(tmp_path, monkeypatch, exc_type):
    def broken(*args, **kwargs):
        raise exc_type("boom")

    monkeypatch.setattr("whentopost.cli.estimate_significance", broken)
    err = run_failing([
        "estimate-significance", "--events", str(FIXTURE / "events.jsonl"),
        "--epoch", "0.0", "--out", str(tmp_path / "profile.csv"),
    ])
    assert err == {"error": exc_type.__name__, "message": "boom"}


REPLAY = ["replay", "--manifest", str(FIXTURE / "manifest.txt"), "--seeds", "0"]
SIM_BUDGET = [
    "simulate", "--scenario", "one-follower-hawkes", "--budget", "4", "--seeds", "0",
    "--feed-events", "40",
]
SIM_SINUSOID = [
    "simulate", "--scenario", "multi-follower-sinusoid", "--q", "1e9", "--seeds", "0",
    "--followers", "2",
]


@pytest.mark.parametrize(
    "args, message",
    [
        (REPLAY + ["--initial-rank", "-1"], "initial_rank must be at least 0, got -1"),
        (REPLAY + ["--target-posts", "-3"], "target_posts must be positive and finite, got -3.0"),
        (REPLAY + ["--tune-tol", "nan"], "tune_tol must be finite and nonnegative, got nan"),
        (REPLAY + ["--offline-segments", "0"], "offline_segments must be at least 1, got 0"),
        (SIM_BUDGET + ["--tune-tol", "nan"], "tune_tol must be finite and nonnegative, got nan"),
        (SIM_BUDGET + ["--tune-tol", "-1"], "tune_tol must be finite and nonnegative, got -1.0"),
        (SIM_BUDGET + ["--feed-events", "nan"], "target_feed_events must be positive and finite, got nan"),
        (SIM_BUDGET + ["--feed-events", "inf"], "target_feed_events must be positive and finite, got inf"),
        (SIM_BUDGET + ["--feed-lambda0", "nan"], "lambda0 must be positive and finite, got nan"),
        (SIM_BUDGET + ["--offline-segments", "0"], "offline_segments must be at least 1, got 0"),
        (SIM_BUDGET + ["--feed-lambda0", "1e-320"],
         "horizon = target_feed_events / stationary feed rate must be positive and finite, "
         "got inf (lambda0=1e-320, target_feed_events=40.0)"),
        (SIM_SINUSOID + ["--horizon", "nan"], "horizon must be positive and finite, got nan"),
        (SIM_SINUSOID + ["--horizon", "inf"], "horizon must be positive and finite, got inf"),
        (["tune-q", "--scenario", "one-follower-hawkes", "--target", "4", "--tol", "nan"],
         "tune_tol must be finite and nonnegative, got nan"),
    ],
    ids=[
        "replay-initial-rank", "replay-target-posts", "replay-tune-tol", "replay-offline-segments",
        "simulate-tune-tol-nan", "simulate-tune-tol-negative", "simulate-feed-events-nan",
        "simulate-feed-events-inf", "simulate-feed-lambda0-nan", "simulate-offline-segments",
        "simulate-feed-lambda0-tiny",
        "simulate-horizon-nan", "simulate-horizon-inf", "tune-q-tol-nan",
    ],
)
def test_out_of_domain_scenario_input_names_the_field(tmp_path, args, message):
    out = tmp_path / "r.csv"
    if args[0] != "tune-q":
        args = args + ["--out", str(out)]
    err = run_failing(args)
    assert err == {"error": "ValueError", "message": message}
    assert not out.exists()
