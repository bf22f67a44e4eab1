"""End-to-end command line checks on tiny workloads."""

import csv
import dataclasses
import gc
import json
import math
import shutil
import warnings
import weakref
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from reference import read_profile_csv, read_report_csv

from whentopost import cli, data_io, scenarios
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
    # the config's message: the command does not check the pair itself
    result = CliRunner().invoke(
        main, SMALL_SIM + ["--budget", "5", "--out", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err == {"error": "ScenarioError", "message": "set exactly one of budget or q"}
    assert not (tmp_path / "r.csv").exists()


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


@pytest.mark.parametrize(
    "seeds, message",
    [
        ("5-2", "bad seed range '5-2'"),
        # each malformed part is named, not a parse error of a piece of it
        ("-1", "bad seed '-1': a seed is a nonnegative integer N, or a range N-M"),
        ("0,-3-5", "bad seed '-3-5': a seed is a nonnegative integer N, or a range N-M"),
        ("0-2,x", "bad seed 'x'"),
        # rejected by its count, before a list of that size is built
        ("0-99999999999", "the seed list names 100000000000 seeds, more than MAX_SEEDS = 100000"),
        ("0-60000,0-60000", "names 120002 seeds"),  # repeats count
    ],
)
def test_simulate_rejects_bad_seed_range(tmp_path, seeds, message):
    result = CliRunner().invoke(
        main, SMALL_SIM + ["--seeds", seeds, "--out", str(tmp_path / "r.csv")]
    )
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    err = json.loads(result.stderr)
    assert err["error"] == "ValueError" and message in err["message"]
    assert not (tmp_path / "r.csv").exists()


def test_a_seed_list_may_name_max_seeds():
    assert cli._parse_seeds(f"0-{cli.MAX_SEEDS - 1}") == tuple(range(cli.MAX_SEEDS))


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


@pytest.mark.parametrize(
    "text, message",
    [("[1, 2]", "must be an object keyed by command"), ('{"simulate": 3}', "of objects of flag defaults")],
)
def test_config_rejects_non_object(tmp_path, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "simulate",
                                       "--scenario", "one-follower-hawkes",
                                       "--out", str(tmp_path / "r.csv")])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    err = json.loads(result.stderr)
    assert err["error"] == "ConfigError" and message in err["message"]


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


@pytest.mark.parametrize(
    "args, label",
    [
        (["simulate", "--scenario", "multi-follower-sinusoid", "--budget", "3", "--seeds", "0",
          "--followers", "2", "--horizon", "7200", "--peak-per-hour", "0"],
         "multi-follower-sinusoid:followers=2:budget=3"),
        (["replay", "--manifest", str(FIXTURE / "manifest.txt"), "--seeds", "0", "--target-posts", "1e6",
          "--summary", "s.csv"], "replay:alice"),
    ],
    ids=["simulate", "replay"],
)
def test_an_unconverged_price_search_fails_before_writing(tmp_path, monkeypatch, args, label):
    # no feed events to react to, or more posts than any price gives: tune-q
    # would exit 3 with its result; these commands write nothing and exit 3
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args + ["--out", "r.csv"])
    assert result.exit_code == 3 and result.stdout == ""
    [line] = result.stderr.splitlines()
    assert json.loads(line) == {
        "error": "NotConverged",
        "message": f"{label}: target unreachable: post count stays below target down to q_min",
    }
    assert not any(tmp_path.iterdir())


def test_without_standalone_mode_a_bad_config_and_a_missed_budget_raise_and_tune_q_returns_3(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)

    def call(args):
        return main.main(args=args, prog_name="whentopost", standalone_mode=False)

    (tmp_path / "cfg.json").write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="must be an object keyed by command") as bad_config:
        call(["--config", "cfg.json", "simulate", "--scenario", "one-follower-hawkes", "--out", "r.csv"])
    assert isinstance(bad_config.value, ValueError)
    with pytest.raises(cli.NotConverged, match="stays below target down to q_min") as missed:
        call(["simulate", "--scenario", "multi-follower-sinusoid", "--budget", "3", "--seeds", "0",
              "--followers", "2", "--horizon", "7200", "--peak-per-hour", "0", "--out", "r.csv"])
    assert isinstance(missed.value, RuntimeError) and missed.value.exit_code == 3
    assert call(["tune-q", "--scenario", "one-follower-hawkes", "--target", "100000", "--seeds", "0",
                 "--feed-events", "30"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["converged"] is False and err == ""  # no JSON error line: the caller reports
    assert not (tmp_path / "r.csv").exists()


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


def test_replay_frees_the_log_and_the_graph_before_the_run(tmp_path, monkeypatch):
    loaded = []
    for name in ("load_events", "load_network"):
        def load(path, real=getattr(data_io, name)):
            result = real(path)
            loaded.append(weakref.ref(result))
            return result

        monkeypatch.setattr(data_io, name, load)
    alive = []

    def run_replay(cfg, dataset, real=scenarios.run_replay):
        gc.collect()
        alive.extend(ref() is not None for ref in loaded)
        return real(cfg, dataset)

    monkeypatch.setattr(scenarios, "run_replay", run_replay)
    run_ok([
        "replay", "--manifest", str(FIXTURE / "manifest.txt"), "--significance", "weekday",
        "--seeds", "0", "--q", "1000.0", "--out", str(tmp_path / "r.csv"),
    ])
    assert len(loaded) == 2 and alive == [False, False]


def warned_run(args):
    """``run_ok(args)``'s warning messages, every one recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_ok(args)
    return [str(w.message) for w in caught]


@pytest.mark.parametrize("granularity", ["weekday", "weekday-hour"])
def test_replay_weighs_its_followers_by_the_profile_estimate_significance_writes(
    genlog_manifest, tmp_path, monkeypatch, granularity
):
    man = data_io.load_manifest(genlog_manifest)
    # a retained follower with no event in the log: one flat fallback in each command
    network = tmp_path / "network.csv"
    network.write_text(man.network_path.read_text(encoding="utf-8") + f"{man.broadcaster},silent\n",
                       encoding="utf-8")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"events = {man.events_path}\nnetwork = {network}\nepoch = {man.epoch!r}\n"
        f"t0 = {man.t0!r}\ntf = {man.tf!r}\nbroadcaster = {man.broadcaster}\n", encoding="utf-8",
    )
    datasets = []

    def run_replay(cfg, dataset, real=scenarios.run_replay):
        datasets.append(dataset)
        return real(cfg, dataset)

    monkeypatch.setattr(scenarios, "run_replay", run_replay)
    replay_warned = warned_run([
        "replay", "--manifest", str(manifest), "--significance", granularity, "--policy", "true-posts",
        "--seeds", "0", "--out", str(tmp_path / "r.csv"),
    ])
    [dataset] = datasets
    assert "silent" in dataset.follower_ids and len(dataset.follower_ids) > 1
    followers = [arg for f in dataset.follower_ids for arg in ("--follower", f)]
    profile_warned = warned_run([
        "estimate-significance", "--events", str(man.events_path), "--epoch", repr(man.epoch),
        "--granularity", granularity, *followers, "--out", str(tmp_path / "p.csv"),
    ])
    got, want = dataset.profile, read_profile_csv(tmp_path / "p.csv")
    assert got.ids == want.ids == tuple(dataset.follower_ids)
    assert (got.granularity, got.epoch, got.laplace) == (want.granularity, want.epoch, want.laplace)
    assert got.values.tobytes() == want.values.tobytes()
    assert replay_warned == profile_warned == ["empty activity log: falling back to a flat profile"]


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
    assert profile.ids == ("alice", "local1", "local2", "wire")
    # fixture events all land on the epoch's first day
    assert np.all(profile.values[:, 0] == 1.0)


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
    assert profile.ids == ("wire",)
    assert profile.laplace == 0.0


def test_estimate_significance_counts_a_repeated_follower_once(tmp_path):
    out = tmp_path / "profile.csv"
    result = run_ok([
        "estimate-significance",
        "--events", str(FIXTURE / "events.jsonl"),
        "--epoch", "0.0",
        "--follower", "wire", "--follower", "local1", "--follower", "wire",
        "--out", str(out),
    ])
    assert json.loads(result.output)["followers"] == 2
    profile = read_profile_csv(out)
    assert profile.ids == ("wire", "local1")
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4 + 1 + 2 * 7


def run_failing(args):
    """Invoke a command expected to fail; return its one-line JSON error."""
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])


#: Each command's required flags, and a flag of each kind a usage error can hit:
#: (flag, bad type), (flag, bad choice) and (flag, missing file); ``--config``
#: is the group's file, for a command with none of its own.
USAGE = {
    "simulate": (["--scenario", "one-follower-hawkes", "--out", "r.csv"],
                 ("--feed-events", "abc"), ("--scenario", "bogus"), None),
    "tune-q": (["--scenario", "one-follower-hawkes", "--target", "5"],
               ("--target", "abc"), ("--scenario", "bogus"), None),
    "replay": (["--manifest", str(FIXTURE / "manifest.txt"), "--out", "r.csv"],
               ("--q", "abc"), ("--significance", "bogus"), ("--manifest", "/nonexistent")),
    "estimate-significance": (["--events", str(FIXTURE / "events.jsonl"), "--epoch", "0", "--out", "p.csv"],
                              ("--epoch", "abc"), ("--granularity", "bogus"), ("--events", "/nonexistent")),
}


@pytest.mark.parametrize("kind", ["bad type", "bad choice", "unknown option", "missing file"])
@pytest.mark.parametrize("command", list(USAGE))
def test_usage_errors_fail_with_the_json_error(tmp_path, monkeypatch, command, kind):
    monkeypatch.chdir(tmp_path)
    required, bad_type, bad_choice, missing_file = USAGE[command]
    group = []
    if kind == "unknown option":
        flag, args = "--bogus", required + ["--bogus", "1"]
    elif kind == "missing file" and missing_file is None:
        flag, group, args = "--config", ["--config", "/nonexistent"], required
    else:
        flag, value = {"bad type": bad_type, "bad choice": bad_choice, "missing file": missing_file}[kind]
        args = required + [flag, value]
    err = run_failing(group + [command, *args])
    assert sorted(err) == ["error", "message"]
    assert err["error"] == ("NoSuchOption" if kind == "unknown option" else "BadParameter")
    assert flag in err["message"]
    assert not any(tmp_path.iterdir())  # nothing written


def test_the_group_main_keeps_click_s_calling_conventions(tmp_path):
    # the benchmark's worker calls main.main(args=..., prog_name=...) and reads SystemExit
    args = ["estimate-significance", "--events", str(FIXTURE / "events.jsonl"), "--epoch", "0"]
    with pytest.raises(SystemExit) as done:
        main.main(args=args + ["--out", str(tmp_path / "p.csv")], prog_name="whentopost")
    assert done.value.code in (0, None) and (tmp_path / "p.csv").exists()
    with pytest.raises(SystemExit) as failed:
        main.main(args=args + ["--bogus"], prog_name="whentopost")
    assert failed.value.code == 2
    # without standalone mode click's exception reaches the caller
    with pytest.raises(click.NoSuchOption):
        main.main(args=args + ["--bogus"], prog_name="whentopost", standalone_mode=False)
    # so does a command's own error, which standalone mode turns into the JSON line
    bad_budget = with_flag(SIM_BUDGET, "--budget", "nan") + ["--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as failed:
        main.main(args=bad_budget, prog_name="whentopost")
    assert failed.value.code == 2
    assert run_failing(bad_budget) == {"error": "ValueError", "message": "budget must be positive and finite, got nan"}
    with pytest.raises(ValueError, match="budget must be positive and finite, got nan"):
        main.main(args=bad_budget, prog_name="whentopost", standalone_mode=False)
    assert not (tmp_path / "r.csv").exists()
    # a bare call is a usage error too
    assert run_failing([]) == {"error": "UsageError", "message": "Missing command."}


def test_an_interrupt_fails_with_one_json_line(tmp_path, monkeypatch):
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.data_io, "load_events", interrupted)
    result = CliRunner().invoke(main, ["estimate-significance", "--events", str(FIXTURE / "events.jsonl"),
                                       "--epoch", "0", "--out", str(tmp_path / "p.csv")])
    assert result.exit_code == 1
    assert json.loads(result.stderr) == {"error": "Abort", "message": "interrupted"}


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


@pytest.mark.parametrize(
    "flags, named",
    [(["--epoch", "1e300"], "epoch"), (["--epoch", "-1e300"], "epoch"),
     (["--epoch", str(2.0**53 + 2**30)], "epoch"), (["--epoch", "0", "--laplace", "1e308"], "laplace")],
)
def test_out_of_range_calendar_input_fails_up_front(tmp_path, flags, named):
    # no time past 2**53 s is bucketed, and no smoothing overflows its sum
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = run_failing([
            "estimate-significance", "--events", str(FIXTURE / "events.jsonl"),
            *flags, "--out", str(tmp_path / "profile.csv"),
        ])
    assert err["error"] == "ValueError" and err["message"].startswith(named), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "profile.csv").exists()


def test_a_replay_manifest_epoch_out_of_calendar_range_fails(tmp_path):
    for name in ("events.jsonl", "network.csv"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    text = (FIXTURE / "manifest.txt").read_text(encoding="utf-8")
    (tmp_path / "manifest.txt").write_text(text.replace("epoch = 345600.0", "epoch = 1e300"), encoding="utf-8")
    err = run_failing([
        "replay", "--manifest", str(tmp_path / "manifest.txt"), "--seeds", "0",
        "--significance", "weekday", "--out", str(tmp_path / "r.csv"),
    ])
    assert err["error"] == "ValueError" and err["message"].startswith("epoch 1e+300 puts a time outside"), err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("window", [
    # the day edge just before tf rounds onto tf in window time; the one just after t0 onto t0
    "epoch = -52501.620103042675\nt0 = 52501.62010304269\ntf = 138901.6201030427",
    "epoch = 5361.042261382834\nt0 = -264561.04226138286\ntf = -178161.04226138286",
])
def test_a_weekday_replay_runs_on_a_window_whose_end_rounds_onto_a_day_edge(tmp_path, window):
    for name in ("events.jsonl", "network.csv"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    text = (FIXTURE / "manifest.txt").read_text(encoding="utf-8")
    text = text.replace("epoch = 345600.0\nt0 = 0.0\ntf = 240.0", window)
    assert window in text
    (tmp_path / "manifest.txt").write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the followers have no activity in the log: flat profiles
        run_ok([
            "replay", "--manifest", str(tmp_path / "manifest.txt"), "--q", "1.0", "--policy", "redqueen",
            "--seeds", "0", "--significance", "weekday", "--out", str(tmp_path / "r.csv"),
        ])
    assert [r.policy for r in read_report_csv(tmp_path / "r.csv")] == ["redqueen"]


@pytest.mark.parametrize("target", ["nan", "inf"])
def test_non_finite_target_posts_fails(tmp_path, target):
    err = run_failing([
        "replay", "--manifest", str(FIXTURE / "manifest.txt"), "--seeds", "0",
        "--target-posts", target, "--out", str(tmp_path / "r.csv"),
    ])
    assert err["error"] == "ValueError"
    assert "target_posts must be positive and finite" in err["message"]
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--policy", "bogus"], {
            "error": "ScenarioError",
            "message": "unknown policy 'bogus'; choose from redqueen, oracle, uniform, segment-offline, true-posts",
        }),
        (["--policy", "oracle", "--initial-rank", "1000000000"], {
            "error": "ValueError",
            "message": "initial_rank must be at most MAX_ORACLE_RANK = 20000 for the oracle policy, got 1000000000",
        }),
    ],
    ids=["unknown-policy", "oracle-initial-rank"],
)
def test_replay_refuses_its_config_before_it_reads_the_manifest(tmp_path, flags, error):
    # the manifest names an events file that is not there: reading it would fail
    shutil.copy(FIXTURE / "manifest.txt", tmp_path / "manifest.txt")
    out = tmp_path / "r.csv"
    err = run_failing([
        "replay", "--manifest", str(tmp_path / "manifest.txt"), "--seeds", "0", *flags, "--out", str(out),
    ])
    assert err == error
    assert not out.exists()


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
        # the oracle's scratch grows with its initial rank: refused before any price search
        (REPLAY + ["--policy", "oracle", "--initial-rank", "1000000000"],
         "initial_rank must be at most MAX_ORACLE_RANK = 20000 for the oracle policy, got 1000000000"),
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
        # one message for a bad budget, whichever bad value it is
        *[(SIM_BUDGET[:4] + [f"4,{v}"] + SIM_BUDGET[5:], f"budget must be positive and finite, got {float(v)!r}")
          for v in ("nan", "inf", "-inf", "0", "-1")],
        (["tune-q", "--scenario", "one-follower-hawkes", "--target", "4", "--tol", "nan"],
         "tune_tol must be finite and nonnegative, got nan"),
    ],
    ids=[
        "replay-initial-rank", "replay-target-posts", "replay-tune-tol", "replay-offline-segments",
        "replay-oracle-initial-rank",
        "simulate-tune-tol-nan", "simulate-tune-tol-negative", "simulate-feed-events-nan",
        "simulate-feed-events-inf", "simulate-feed-lambda0-nan", "simulate-offline-segments",
        "simulate-feed-lambda0-tiny",
        "simulate-horizon-nan", "simulate-horizon-inf",
        "simulate-budget-nan", "simulate-budget-inf", "simulate-budget--inf", "simulate-budget-0",
        "simulate-budget--1", "tune-q-tol-nan",
    ],
)
def test_out_of_domain_scenario_input_names_the_field(tmp_path, args, message):
    out = tmp_path / "r.csv"
    if args[0] != "tune-q":
        args = args + ["--out", str(out)]
    err = run_failing(args)
    assert err == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize(
    "config, field, cap, args, flag",
    [
        (scenarios.HawkesScenarioConfig, "offline_segments", scenarios.MAX_OFFLINE_SEGMENTS, SIM_BUDGET,
         "--offline-segments"),
        (scenarios.ReplayConfig, "offline_segments", scenarios.MAX_OFFLINE_SEGMENTS, REPLAY, "--offline-segments"),
        (scenarios.SinusoidScenarioConfig, "followers", scenarios.MAX_FOLLOWERS, SIM_SINUSOID, "--followers"),
        (scenarios.SinusoidScenarioConfig, "horizon", scenarios.MAX_HORIZON, SIM_SINUSOID, "--horizon"),
        (scenarios.HawkesScenarioConfig, "target_feed_events", scenarios.MAX_HAWKES_EVENTS, SIM_BUDGET,
         "--feed-events"),
    ],
    ids=["simulate-offline-segments", "replay-offline-segments", "simulate-followers", "simulate-horizon",
         "simulate-feed-events"],
)
def test_a_size_is_accepted_at_its_cap_and_refused_past_it(tmp_path, config, field, cap, args, flag):
    knob = {} if config is scenarios.ReplayConfig else {"q": 1.0}
    assert getattr(config(seeds=(0,), **knob, **{field: cap}), field) == cap
    [option] = [p for p in main.commands[args[0]].params if flag in p.opts]
    for value in (cap + 1, 10**18):
        out = tmp_path / "r.csv"
        err = run_failing(with_flag(args, flag, str(value)) + ["--out", str(out)])
        got = option.type(str(value))  # as click reads the flag
        assert err == {"error": "ValueError", "message": f"{field} must be at most {cap!r}, got {got!r}"}
        assert not out.exists()


def test_the_sinusoid_feed_at_its_peak_rate_is_capped(tmp_path):
    # 5000 followers x 100 events an hour x 10 hours is MAX_HAWKES_EVENTS exactly
    limit = scenarios.MAX_HAWKES_EVENTS
    assert 5000 * 100.0 * 36_000.0 / 3600 == limit
    scenarios.SinusoidScenarioConfig(seeds=(0,), q=1.0, followers=5000, peak_per_hour=100.0, horizon=36_000.0)
    err = run_failing(SIM_SINUSOID + [
        "--followers", "5000", "--peak-per-hour", "100.5", "--horizon", "36000", "--out", str(tmp_path / "r.csv"),
    ])
    assert err == {"error": "ValueError", "message": (
        f"followers x peak_per_hour x horizon / 3600 must be at most MAX_HAWKES_EVENTS = {limit}, got 5025000.0"
    )}
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "name, args",
    [("HawkesScenarioConfig", SIM_BUDGET), ("SinusoidScenarioConfig", SIM_SINUSOID), ("ReplayConfig", REPLAY)],
)
def test_every_config_field_is_set_by_its_command(tmp_path, monkeypatch, name, args):
    # a field no command sets is a setting nobody can change
    real = getattr(scenarios, name)
    calls = []

    def recorder(**kwargs):
        calls.append(set(kwargs))
        return real(**kwargs)

    monkeypatch.setattr(scenarios, name, recorder)
    run_ok(args + ["--out", str(tmp_path / "r.csv")])
    assert calls == [{f.name for f in dataclasses.fields(real)}]


def test_replay_oracle_plans_from_the_initial_rank(tmp_path):
    # the fixture window with bob as alice's only follower; the clairvoyant
    # schedule starts from the rank the controller and the scores start from
    for name in ("events.jsonl", "manifest.txt"):
        shutil.copy(FIXTURE / name, tmp_path / name)
    (tmp_path / "network.csv").write_text("alice,bob\nwire,bob\nlocal1,bob\n", encoding="utf-8")
    runs = {}
    for rank in (0, 5):
        out = tmp_path / f"rank{rank}.csv"
        result = run_ok([
            "replay", "--manifest", str(tmp_path / "manifest.txt"), "--seeds", "0",
            "--policy", "oracle", "--policy", "true-posts", "--initial-rank", str(rank), "--out", str(out),
        ])
        [oracle] = [r for r in read_report_csv(out) if r.policy == "oracle"]
        runs[rank] = json.loads(result.output)["details"]["oracle_tune"]["q"], oracle
    q0, at0 = runs[0]
    q5, at5 = runs[5]
    assert (q0, at0.posts, at0.position_over_time) == (152.2185107203483, 4, 150.00000000000017)
    # planned from rank 0, the four posts would score 376.25 from rank 5
    assert (q5, at5.posts) == (256.0, 4)
    assert at5.position_over_time == pytest.approx(227.0)


# ---------------------------------------------------------------------------
# every numeric flag at values outside or at the edge of its domain
# ---------------------------------------------------------------------------

SIM_HAWKES_ALL = [
    "simulate", "--scenario", "one-follower-hawkes", "--budget", "4", "--seeds", "0", "--feed-events", "40",
    "--policy", "redqueen", "--policy", "oracle", "--policy", "uniform", "--policy", "segment-offline",
]
SIM_SINUSOID_SMALL = [
    "simulate", "--scenario", "multi-follower-sinusoid", "--budget", "3", "--seeds", "0",
    "--followers", "2", "--horizon", "7200", "--policy", "redqueen", "--policy", "uniform",
    "--policy", "segment-offline",
]
TUNE_HAWKES = ["tune-q", "--scenario", "one-follower-hawkes", "--target", "4", "--seeds", "0", "--feed-events", "40"]
TUNE_SINUSOID = [
    "tune-q", "--scenario", "multi-follower-sinusoid", "--target", "3", "--seeds", "0",
    "--followers", "2", "--horizon", "7200",
]
REPLAY_ALL = REPLAY + [
    "--significance", "weekday", "--policy", "redqueen", "--policy", "uniform",
    "--policy", "segment-offline", "--policy", "true-posts",
]
PROFILE = ["estimate-significance", "--events", str(FIXTURE / "events.jsonl"), "--epoch", "0"]
_HAWKES_FLAGS = ["--feed-lambda0", "--feed-alpha", "--feed-w", "--feed-events", "--offline-segments"]
_SINUSOID_FLAGS = ["--followers", "--peak-per-hour", "--horizon"]

#: name -> (small run, the numeric flags it exercises): every numeric flag of
#: every command, each with a run in which it takes effect.
NUMERIC_RUNS = {
    "simulate-hawkes": (SIM_HAWKES_ALL, ["--budget", "--q", "--tune-tol", *_HAWKES_FLAGS]),
    "simulate-sinusoid": (SIM_SINUSOID_SMALL, _SINUSOID_FLAGS),
    "tune-q-hawkes": (TUNE_HAWKES, ["--target", "--tol", *_HAWKES_FLAGS]),
    "tune-q-sinusoid": (TUNE_SINUSOID, _SINUSOID_FLAGS),
    "replay": (REPLAY_ALL, ["--q", "--target-posts", "--laplace", "--tune-tol", "--initial-rank",
                            "--offline-segments", "--max-followees"]),
    "estimate-significance": (PROFILE, ["--epoch", "--laplace"]),
}
#: "huge" is an integer literal, so that int flags parse it too.
EDGE_VALUES = ["nan", "inf", "-inf", "-1", "0", "1000000000000000000"]


def with_flag(args, flag, value):
    """``args`` with ``flag`` set to ``value``; a price replaces the budget, which excludes it."""
    args = list(args)
    if flag == "--q" and "--budget" in args:
        del args[args.index("--budget") : args.index("--budget") + 2]
    if flag in args:
        args[args.index(flag) + 1] = value
        return args
    return args + [flag, value]


def assert_finite_json(value, where):
    if isinstance(value, float):
        assert math.isfinite(value), where
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_finite_json(item, f"{where}.{key}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            assert_finite_json(item, f"{where}[{k}]")


def assert_finite_rows(path):
    """Every number in a report or profile CSV is finite; an empty cell is a missing ratio."""
    rows = [r for r in path.read_text(encoding="utf-8").splitlines() if not r.startswith("#")]
    header, *body = list(csv.reader(rows))
    numeric = [k for k, name in enumerate(header) if name not in ("run", "policy", "follower_id")]
    for row in body:
        for k in numeric:
            assert row[k] == "" or math.isfinite(float(row[k])), (header[k], row)


def test_every_numeric_flag_is_in_the_edge_value_table():
    covered = {}
    for args, flags in NUMERIC_RUNS.values():
        covered.setdefault(args[0], set()).update(flags)
    for name, command in main.commands.items():
        numeric = {
            opt.opts[0] for opt in command.params
            if isinstance(opt.type, (click.types.FloatParamType, click.types.IntParamType))
            or opt.name == "budget"
        }
        assert covered[name] == numeric, name


@pytest.mark.parametrize("value", EDGE_VALUES)
@pytest.mark.parametrize(
    "args, flag",
    [(args, flag) for args, flags in NUMERIC_RUNS.values() for flag in flags],
    ids=[f"{name}{flag}" for name, (_, flags) in NUMERIC_RUNS.items() for flag in flags],
)
def test_every_numeric_flag_at_an_edge_value_runs_clean_or_fails_with_one_json_line(
    tmp_path, args, flag, value
):
    # exit 0 with finite numbers everywhere, or a nonzero exit with exactly
    # one JSON object on stderr; tune-q's documented exit 3 (no converged
    # price) prints its finite result on stdout
    out = tmp_path / "out.csv"
    argv = with_flag(args, flag, value) + ([] if args[0] == "tune-q" else ["--out", str(out)])
    result = CliRunner().invoke(main, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    if result.exit_code == 0 or (args[0] == "tune-q" and result.exit_code == 3):
        assert_finite_json(json.loads(result.stdout), "stdout")
        if args[0] != "tune-q":
            assert_finite_rows(out)
    else:
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        err = json.loads(lines[0])
        assert sorted(err) == ["error", "message"] and result.stdout == ""
        assert not out.exists()
