"""Tests for the benchmark's own code (not part of the package's suite).

Run:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import genlog  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _files(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.fixture(scope="module")
def log7(tmp_path_factory):
    """The benchmark's generated log for seed 7: (directory, summary)."""
    d = tmp_path_factory.mktemp("log7")
    return d, genlog.generate(7, d)


def test_generator_is_deterministic_per_seed(tmp_path, log7):
    d, summary = log7
    assert genlog.generate(7, tmp_path / "again") == summary
    assert _files(tmp_path / "again") == _files(d)
    genlog.generate(8, tmp_path / "other")
    assert _files(tmp_path / "other")["events.jsonl"] != _files(d)["events.jsonl"]


def test_generator_writes_the_package_formats(log7):
    sys.path.insert(0, str(BENCH.parent / "src"))
    from whentopost import data_io

    d, summary = log7
    man = data_io.load_manifest(d / "manifest.txt")
    events = data_io.load_events(man.events_path)
    network = data_io.load_network(man.network_path)
    assert len(events) == summary["events"]
    ds = data_io.build_replay_dataset(events, network, man.broadcaster, man.epoch, man.t0, man.tf)
    assert len(ds.follower_ids) == summary["followers_kept"] == genlog.FOLLOWERS
    assert len(network.followers(man.broadcaster)) == summary["followers"]
    assert len(ds.true_posts) == summary["true_posts"]


def _span(i, parent, name, start, end, **attrs):
    return {"run": "r", "id": i, "parent": parent, "name": name, "start": start, "end": end, "attrs": attrs}


def _tree():
    # cli [0, 10]
    #   scenarios.run_replay [1, 9]
    #     control_online.tune_q [2, 6]
    #       control_online.run_redqueen_fast [2.5, 4]
    #         kernels.redqueen_posts [3, 4]
    #       control_online.run_redqueen_fast [4.5, 5.5]
    #         kernels.redqueen_posts [4.5, 5]
    #     feed_sim.trajectory_from_posts [7, 8]
    return [
        _span(0, None, "cli", 0.0, 10.0),
        _span(1, 0, "scenarios.run_replay", 1.0, 9.0),
        _span(2, 1, "control_online.tune_q", 2.0, 6.0, evals=2),
        _span(3, 2, "control_online.run_redqueen_fast", 2.5, 4.0),
        _span(4, 3, "kernels.redqueen_posts", 3.0, 4.0, feed_events=100, posts=4),
        _span(5, 2, "control_online.run_redqueen_fast", 4.5, 5.5),
        _span(6, 5, "kernels.redqueen_posts", 4.5, 5.0, feed_events=300, posts=6),
        _span(7, 1, "feed_sim.trajectory_from_posts", 7.0, 8.0, rank_changes=11),
    ]


def test_self_time_subtracts_children():
    selfs = tracer.self_times(_tree())
    assert selfs == {0: 2.0, 1: 3.0, 2: 1.5, 3: 0.5, 4: 1.0, 5: 0.5, 6: 0.5, 7: 1.0}
    assert sum(selfs.values()) == 10.0  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "cli", 0.0, 10.0),
        _span(1, 0, "a", 1.0, 5.0),
        _span(2, 0, "b", 4.0, 6.0),
        _span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_on_a_hand_built_tree():
    m = tracer.layer_metrics(_tree())
    assert m["control_online.run_redqueen_fast.s"] == 2.5
    assert m["control_online.run_redqueen_fast.calls"] == 2
    assert m["control_online.run_redqueen_fast.feed_events"] == 400
    assert m["control_online.run_redqueen_fast.posts"] == 10
    assert m["control_online.run_redqueen_fast.us_per_event"] == pytest.approx(2.5 / 400 * 1e6)
    assert m["control_online.tune_q.evals"] == 2
    assert m["feed_sim.trajectory_from_posts.rank_changes"] == 11
    assert m["cli.self_s"] == 2.0
    assert m["scenarios.self_s"] == 3.0
    assert m["layer.controller.self_s"] == 4.0
    assert m["layer.dispatch.self_s"] == 5.0
    assert m["layer.oracle.self_s"] == 0.0
    assert tracer.top_layer(m) == "dispatch"


def test_layer_of_uses_the_longest_prefix():
    assert tracer.layer_of("kernels.oracle_decisions") == "oracle"
    assert tracer.layer_of("kernels.redqueen_posts") == "controller"
    assert tracer.layer_of("control_oracle.schedule_cost") == "oracle"
    assert tracer.layer_of("cli") == "dispatch"


GOOD_REPLAY = (
    "run,seed,policy,posts,position_over_time,time_at_top,normalized_position,normalized_time_at_top\n"
    "replay:b,0,redqueen,41,100.5,2000.25,0.5,1.5\n"
    "replay:b,0,true-posts,40,201.0,1333.5,1.0,1.0\n"
)
GOOD_SUMMARY = (
    "run,policy,metric,n,mean,stderr,median,q25,q75\n"
    "replay:b,redqueen,position_over_time,1,100.5,0.0,100.5,100.5,100.5\n"
    "replay:b,redqueen,time_at_top,1,2000.25,0.0,2000.25,2000.25,2000.25\n"
    "replay:b,true-posts,position_over_time,1,201.0,0.0,201.0,201.0,201.0\n"
    "replay:b,true-posts,time_at_top,1,1333.5,0.0,1333.5,1333.5,1333.5\n"
)
STATUS = json.dumps({"rows": 2, "written": "x", "details": {"redqueen_tune": {"converged": True}}})


def _replay_case(tmp_path, report=GOOD_REPLAY, summary=GOOD_SUMMARY):
    (tmp_path / "r.csv").write_text(report)
    (tmp_path / "s.csv").write_text(summary)
    return workloads.Prepared(
        argv=[],
        outputs={"out": tmp_path / "r.csv", "summary": tmp_path / "s.csv"},
        expect={"report_rows": 2, "summary_rows": 4, "tunes": ("redqueen_tune",)},
    )


def test_a_good_report_passes(tmp_path):
    assert workloads.check("replay-week", _replay_case(tmp_path), 0, STATUS + "\n") == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r.replace("100.5", "nan"),
        lambda r: r.replace("2000.25", "inf"),
        lambda r: "\n".join(r.splitlines()[:-1]) + "\n",  # a row lost
        lambda r: r.replace("true-posts,40,201.0,1333.5,1.0", "true-posts,40,201.0,1333.5,0.99"),
        lambda r: r.replace("0.5,1.5", ",1.5"),  # a normalised value dropped
        lambda r: r.replace("run,seed", "run,sead"),
    ],
)
def test_a_corrupted_report_counts_as_failed(tmp_path, corrupt):
    prepared = _replay_case(tmp_path, report=corrupt(GOOD_REPLAY))
    assert workloads.check("replay-week", prepared, 0, STATUS + "\n")


def test_failed_exit_unconverged_tune_and_extra_output_fail(tmp_path):
    prepared = _replay_case(tmp_path)
    assert workloads.check("replay-week", prepared, 2, STATUS + "\n") == ["exit code 2"]
    unconverged = STATUS.replace("true", "false")
    assert any("converge" in p for p in workloads.check("replay-week", prepared, 0, unconverged))
    assert workloads.check("replay-week", prepared, 0, "noise\n" + STATUS + "\n")
    (tmp_path / "s.csv").write_text(GOOD_SUMMARY.replace("100.5,100.5,100.5\n", "nan,100.5,100.5\n"))
    assert workloads.check("replay-week", prepared, 0, STATUS + "\n")


def test_digests_pin_the_digest_seed_and_repeat_other_seeds():
    wl, seed = "hawkes-oracle", workloads.DIGEST_SEED
    good = dict(workloads.DIGESTS[wl][1])
    assert workloads.digest_problems(wl, seed, 1, good, None) == []
    assert workloads.digest_problems(wl, seed, 2, good, None)  # another variant's bytes
    assert workloads.digest_problems(wl, seed, 1, {"out": "0" * 64}, None)
    assert workloads.digest_problems(wl, 5, 0, {"out": "a" * 64}, None) == []
    assert workloads.digest_problems(wl, 5, 0, {"out": "a" * 64}, {"out": "a" * 64}) == []
    assert workloads.digest_problems(wl, 5, 0, {"out": "b" * 64}, {"out": "a" * 64})


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mib", "ok_frac"}
    units = {name: unit for name, (unit, _) in tracer.METRICS.items()} | tracer.BENCH_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _worker(tmp_path, tag, trace):
    out = tmp_path / f"{tag}.csv"
    argv = [
        "replay", "--manifest", str(BENCH.parent / "fixtures" / "replay_small" / "manifest.txt"),
        "--seeds", "0-1", "--policy", "redqueen", "--policy", "true-posts", "--out", str(out),
    ]
    spec = {"argv": argv, "trace": trace, "run_id": tag,
            "result": str(tmp_path / f"{tag}.json"), "spans": str(tmp_path / f"{tag}-spans.json")}
    (tmp_path / f"{tag}-spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    done = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(tmp_path / f"{tag}-spec.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return out.read_bytes(), done.stdout, json.loads((tmp_path / f"{tag}.json").read_text())


def test_traced_command_writes_the_same_bytes_and_records_layer_spans(tmp_path):
    plain, plain_status, result = _worker(tmp_path, "plain", False)
    traced, traced_status, _ = _worker(tmp_path, "traced", True)
    assert result["exit_code"] == 0 and result["wall_s"] > 0 and result["peak_rss_mib"] > 0
    assert traced == plain  # no span data reaches the --out file
    assert traced_status.replace("traced.csv", "plain.csv") == plain_status
    spans = json.loads((tmp_path / "traced-spans.json").read_text())
    assert {s["run"] for s in spans} == {"traced"}
    names = {s["name"] for s in spans}
    assert {"cli", "scenarios.run_replay", "data_io.load_events", "data_io.build_replay_dataset",
            "control_online.tune_q", "control_online.run_redqueen_fast", "kernels.redqueen_posts",
            "feed_sim.trajectory_from_posts", "data_io.write_report_csv"} <= names
    m = tracer.layer_metrics(spans)
    assert m["data_io.load_events.events"] == 18
    assert m["control_online.tune_q.evals"] == len(
        next(s for s in spans if s["name"] == "control_online.tune_q")["attrs"]["evaluations"]
    )
    assert m["data_io.write_report_csv.bytes"] == len(traced)


def test_a_command_cut_by_the_deadline_counts_as_failed(tmp_path):
    out = tmp_path / "r.csv"
    argv = ["replay", "--manifest", str(BENCH.parent / "fixtures" / "replay_small" / "manifest.txt"),
            "--seeds", "0-1", "--policy", "redqueen", "--out", str(out)]
    prepared = workloads.Prepared(argv, {"out": out}, {"report_rows": 2})
    rec = run._run_command(prepared, tmp_path, 0, False, "cut", timeout=0.05)
    assert rec["killed"] and rec["exit_code"] is None and rec["peak_rss_mib"] is None
    assert rec["wall_s"] >= 0.05
