"""Eleven go/no-go checks across the whole pipeline.

Each test ends with one ``ACCEPTANCE n <name>: PASS`` line; run with
``pytest tests/test_acceptance.py -s`` to see them as they complete.
Workloads are sized for a desk machine and the stated runtime caps are
asserted where a criterion carries one.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from reference import (
    IntensityState,
    RankState,
    brute_force_schedule,
    coded_log,
    constant_schedule,
    decay_intensity,
    next_post_time,
    rank_from_history,
    rank_step,
)
from scipy import stats

from whentopost.cli import main as cli_main
from whentopost.control_online import run_redqueen_fast, tune_q
from whentopost.control_oracle import OracleInstance, oracle_schedule, schedule_cost
from whentopost.data_io import (
    build_replay_dataset,
    load_events,
    load_network,
)
from whentopost.feed_sim import Feeds, trajectory_from_posts
from whentopost.metrics import report_from_trajectory
from whentopost.point_process import (
    HawkesParams,
    sample_hawkes,
    sample_piecewise_poisson,
)
from whentopost.scenarios import (
    HawkesScenarioConfig,
    ReplayConfig,
    SinusoidScenarioConfig,
    run_multi_follower_sinusoid,
    run_one_follower_hawkes,
    run_replay,
)
from whentopost.significance import bucket_index, estimate_significance

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "replay_small"

DAY = 86_400.0
MONDAY = 4 * DAY  # absolute seconds of the first Monday after the time origin


def test_01_rank_dynamics_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    sizes = rng.integers(1, 1001, size=1000)
    sizes[:20] = 1000  # always include full-length sequences
    for run, n in enumerate(sizes):
        n = int(n)
        # distinct times on a lattice so own posts never collide with feed
        times = np.sort(rng.choice(np.arange(1, 8 * n + 1), size=n, replace=False) * 0.125)
        is_post = rng.random(n) < 0.15
        own = times[is_post]
        feed = times[~is_post]
        r0 = int(rng.integers(0, 3)) if run % 4 == 0 else 0
        state = RankState(np.array([r0]), 0.0)
        for t, p in zip(times, is_post):
            state = rank_step(state, float(t), None if p else 0)
            direct = rank_from_history(own, feed, float(t), initial_rank=r0)
            assert state.ranks[0] == direct
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 rank dynamics equivalence: PASS ({elapsed:.1f}s)")


def test_02_self_exciting_sampler_rate_and_poisson_limit():
    params = HawkesParams(10.0, 1.0, 10.0)
    target = params.stationary_rate()  # 11.11 events/s
    times = sample_hawkes(params, 0.0, 1000.0, np.random.default_rng(202))
    assert len(times) >= 10_000
    rate = len(times) / 1000.0
    assert abs(rate - target) / target < 0.05

    poisson = sample_hawkes(HawkesParams(10.0, 0.0, 10.0), 0.0, 2000.0, np.random.default_rng(203))
    gaps = np.diff(poisson)
    assert len(gaps) >= 10_000
    _, p = stats.kstest(gaps, "expon", args=(0, 1.0 / 10.0))
    assert p > 0.01
    print(f"\nACCEPTANCE 2 self-exciting sampler rate {rate:.2f} vs {target:.2f}, "
          f"zero-excitation KS p={p:.3f}: PASS")


def test_03_decay_law_matches_fine_euler_integration():
    rng = np.random.default_rng(303)
    n = 100
    lam0 = rng.uniform(5.0, 20.0, n)
    excite = rng.uniform(0.0, 0.5) * lam0
    w = rng.uniform(0.5, 6.0, n)
    dt = np.round(rng.uniform(0.01, 0.12, n), 6)
    step = 1e-6
    steps = np.round(dt / step).astype(np.int64)
    assert np.all(np.abs(steps * step - dt) < 1e-12)
    lam = lam0 + excite
    for k in range(int(steps.max())):
        active = k < steps
        lam = np.where(active, lam + step * w * (lam0 - lam), lam)
    worst = 0.0
    for i in range(n):
        got = decay_intensity(
            IntensityState(float(lam0[i] + excite[i]), 0.0),
            HawkesParams(float(lam0[i]), 0.0, float(w[i])),
            float(dt[i]),
        ).current
        rel = abs(got - lam[i]) / lam[i]
        worst = max(worst, rel)
        assert rel < 1e-6
    print(f"\nACCEPTANCE 3 decay law vs 1e-6 Euler, worst rel err {worst:.2e}: PASS")


def test_04_first_post_distribution_matches_thinning_sampler():
    start = time.perf_counter()
    n_runs = 10_000
    T = 5.0
    feed_rate = 10.0
    a = np.empty(n_runs)
    b = np.empty(n_runs)
    for i in range(n_runs):
        feed_rng = np.random.default_rng(np.random.SeedSequence([900, 1, i]))
        feed = np.cumsum(feed_rng.exponential(1.0 / feed_rate, size=200))
        feed = feed[feed <= T]
        a[i] = next_post_time(  # q = 1: posting rate = rank
            feed, 1.0, np.random.default_rng(np.random.SeedSequence([900, 2, i])), 0.0, T
        ).post_time
        # independent draw: thin a homogeneous proposal at 1.25x the peak rate
        rng = np.random.default_rng(np.random.SeedSequence([900, 3, i]))
        lam_bar = 1.25 * max(len(feed), 1)
        t = 0.0
        hit = math.inf
        while True:
            t += rng.exponential(1.0 / lam_bar)
            if t > T:
                break
            rank = np.searchsorted(feed, t, side="right")
            if rng.random() * lam_bar <= rank:
                hit = t
                break
        b[i] = hit
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))
    _, p = stats.ks_2samp(a, b)
    elapsed = time.perf_counter() - start
    assert p > 0.01
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 4 first-post distribution KS p={p:.3f} "
          f"over {n_runs} paired runs: PASS ({elapsed:.1f}s)")


def test_05_backward_induction_matches_exhaustive_search():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    for _ in range(1000):
        m = int(rng.integers(0, 13))  # up to 12 feed events
        widths = rng.uniform(0.05, 2.0, size=m + 1)
        q = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        r0 = int(rng.integers(0, 4))
        inst = OracleInstance(r0=r0, widths=widths, q=q)
        assert schedule_cost(oracle_schedule(inst), inst) == schedule_cost(brute_force_schedule(inst), inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 backward induction equals exhaustive search "
          f"on 1000 instances: PASS ({elapsed:.1f}s)")


def _hawkes_feed(seed):
    feed = sample_hawkes(HawkesParams(10.0, 1.0, 10.0), 0.0, 90.0,
                         np.random.default_rng(np.random.SeedSequence([606, 1, seed])))
    return Feeds.cut([feed], 0.0, 90.0)


def _mean_posts(q, seeds):
    counts = []
    for seed in seeds:
        posts = run_redqueen_fast(
            _hawkes_feed(seed), q,
            np.random.default_rng(np.random.SeedSequence([606, 2, seed])),
        )
        counts.append(len(posts))
    return float(np.mean(counts))


def test_06_posting_budget_falls_with_price_and_tunes_to_target():
    seeds = range(20)
    lo = _mean_posts(2.0, seeds)
    hi = _mean_posts(8.0, seeds)
    assert hi <= lo

    target = 30.0
    result = tune_q(target, lambda q: _mean_posts(q, range(10)))
    assert result.converged
    assert abs(result.mean_posts - target) <= 0.1 * target
    print(f"\nACCEPTANCE 6 mean posts {lo:.1f} (q=2) >= {hi:.1f} (q=8); "
          f"tuned q={result.q:.2f} gives {result.mean_posts:.1f} posts "
          f"for target {target:.0f}: PASS")


def test_07_online_policy_tracks_clairvoyant_schedule():
    start = time.perf_counter()
    lines = []
    for budget in (50.0, 150.0, 290.0):
        cfg = HawkesScenarioConfig(
            seeds=tuple(range(10)), policies=("redqueen", "oracle"), budget=budget,
        )
        [(_, reports, details)] = run_one_follower_hawkes(cfg)
        assert details["mean_feed_events"] > 900  # ~1000-event feeds
        assert budget < 0.30 * details["mean_feed_events"]
        by = {}
        for r in reports:
            by.setdefault(r.policy, []).append(r)
        rq_pos = np.mean([r.position_over_time for r in by["redqueen"]])
        or_pos = np.mean([r.position_over_time for r in by["oracle"]])
        rq_tat = np.mean([r.time_at_top for r in by["redqueen"]])
        or_tat = np.mean([r.time_at_top for r in by["oracle"]])
        assert rq_pos <= 3.5 * or_pos
        assert rq_tat >= 0.35 * or_tat
        lines.append(f"budget {budget:.0f}: position {rq_pos / or_pos:.2f}x, "
                     f"time-at-top {rq_tat / or_tat:.2f}x")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 7 online vs clairvoyant ({'; '.join(lines)}): "
          f"PASS ({elapsed:.1f}s)")


def test_08_per_follower_position_flat_in_follower_count():
    start = time.perf_counter()
    means = []
    for n in range(1, 11):
        cfg = SinusoidScenarioConfig(
            seeds=tuple(range(20)), followers=n, policies=("redqueen",),
            budget=30.0, horizon=2 * DAY, tune_tol=0.02,
        )
        [(_, reports, details)] = run_multi_follower_sinusoid(cfg)
        assert details["redqueen_tune"].converged
        means.append(float(np.mean([r.position_over_time for r in reports])))
    means = np.asarray(means)
    spread = (means.max() - means.min()) / means.mean()
    elapsed = time.perf_counter() - start
    assert spread < 0.25
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 8 per-follower position spread {spread:.3f} "
          f"across 1..10 followers: PASS ({elapsed:.1f}s)")


def test_09_zero_weight_weekend_buckets_get_zero_posts():
    # four weeks of weekday-only activity: weekend buckets get zero weight
    activity = []
    for day in range(28):
        abs_day = MONDAY + day * DAY
        if bucket_index(abs_day, "weekday") < 5:
            activity.extend(abs_day + 3600.0 * h for h in (9.0, 13.0, 17.0))
    profile = estimate_significance(
        coded_log(activity, ["f"] * len(activity)), ["f"],
        epoch=0.0, granularity="weekday", laplace=0.0,
    )
    assert profile.ids == ("f",) and np.all(profile.values[0, 5:] == 0.0)

    t0, tf = MONDAY, MONDAY + 7 * DAY
    schedule = profile.step_schedule(t0, tf)
    rate = constant_schedule(0.002, t0, tf)  # feed active all week
    total = 0
    weekend_hits = 0
    for seed in range(50):
        feed = sample_piecewise_poisson(rate, np.random.default_rng(np.random.SeedSequence([909, 1, seed])))
        posts = run_redqueen_fast(
            Feeds.cut([feed], t0, tf, np.array([2])), 1000.0,
            np.random.default_rng(np.random.SeedSequence([909, 2, seed])), schedule,
        )
        total += len(posts)
        weekend_hits += int(np.sum(bucket_index(posts, "weekday") >= 5))
    assert total > 50
    assert weekend_hits == 0
    print(f"\nACCEPTANCE 9 {total} posts over 50 weekly runs, "
          f"0 in zero-weight weekend buckets: PASS")


def test_10_replayed_posts_normalize_to_one_and_online_policy_beats_them():
    dataset = build_replay_dataset(
        load_events(FIXTURE / "events.jsonl"),
        load_network(FIXTURE / "network.csv"),
        "alice", 345600.0, 0.0, 240.0,
    )
    n_true = len(dataset.true_posts)

    # the recorded posts are provably suboptimal: some same-size schedule
    # over the revealed feed does strictly better on position over time
    def mean_position(posts):
        traj = trajectory_from_posts(dataset.feeds, np.asarray(posts))
        return report_from_trajectory(traj, "probe", 0, "probe").position_over_time

    true_pot = mean_position(dataset.true_posts)
    merged = np.unique(dataset.feeds.times)
    candidates = np.concatenate([[np.nextafter(0.0, math.inf)],
                                 np.nextafter(merged, math.inf)])
    best_pot = min(
        mean_position(combo) for combo in itertools.combinations(candidates, n_true)
    )
    assert best_pot < true_pot

    reports, _ = run_replay(ReplayConfig(seeds=tuple(range(10))), dataset)
    rq_norm = []
    for r in reports:
        if r.policy == "true-posts":
            assert r.normalized_position == 1.0
            assert r.normalized_time_at_top == 1.0
        else:
            rq_norm.append(r.normalized_position)
    assert len(rq_norm) == 10
    assert all(v < 1.0 for v in rq_norm)
    print(f"\nACCEPTANCE 10 recorded posts normalize to 1.0 exactly; best same-size "
          f"schedule {best_pot / true_pot:.2f}x of recorded, online policy "
          f"{np.mean(rq_norm):.2f}x (all < 1): PASS")


CLI_RUNS = {
    "simulate-hawkes": [
        "simulate", "--scenario", "one-follower-hawkes",
        "--policy", "redqueen", "--policy", "uniform",
        "--q", "4.0", "--seeds", "0-1", "--feed-events", "40",
    ],
    "simulate-sinusoid": [
        "simulate", "--scenario", "multi-follower-sinusoid",
        "--policy", "redqueen", "--policy", "uniform",
        "--q", "50.0", "--seeds", "0-1", "--followers", "2", "--horizon", "7200",
    ],
    "replay": [
        "replay", "--manifest", str(FIXTURE / "manifest.txt"),
        "--seeds", "0-1", "--q", "1000.0",
    ],
    "estimate-significance": [
        "estimate-significance", "--events", str(FIXTURE / "events.jsonl"),
        "--epoch", "345600.0", "--granularity", "weekday",
    ],
}


def test_11_every_cli_command_reruns_byte_identical(tmp_path):
    runner = CliRunner()
    for name, args in CLI_RUNS.items():
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.csv"
            result = runner.invoke(cli_main, args + ["--out", str(out)], catch_exceptions=False)
            assert result.exit_code == 0, result.output + result.stderr
            json.loads(result.output)  # every command reports machine-readable status
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], name
    print(f"\nACCEPTANCE 11 {len(CLI_RUNS)} commands rerun byte-identical: PASS")
