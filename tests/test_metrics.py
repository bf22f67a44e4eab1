"""Exact rank-path metrics and their dense-integration oracle."""

import math
import struct
import warnings

import numpy as np
import pytest
from reference import (
    ScheduledController,
    average_position,
    position_over_time,
    quadratic_control_cost,
    report_by_follower,
    simulate,
    time_at_top,
)

from whentopost.feed_sim import Feeds, SimulationTrajectory, trajectory_from_posts
from whentopost.metrics import (
    MetricsReport,
    aggregate,
    normalize_report,
    report_from_trajectory,
)


def random_step_path(rng, tf=10.0, grid=1e-4):
    """Step path whose change points sit on the comparison grid, so a
    left-Riemann sum at that step is exact."""
    n = int(rng.integers(1, 30))
    ticks = rng.choice(np.arange(1, int(tf / grid)), size=n, replace=False)
    times = np.concatenate([[0.0], np.sort(ticks) * grid])
    values = rng.integers(0, 6, size=n + 1)
    return times, values.astype(np.int64)


def riemann(times, values, tf, fn, grid=1e-4):
    total = 0.0
    for k in np.arange(0.0, tf, grid):
        idx = np.searchsorted(times, k, side="right") - 1
        total += fn(values[idx]) * grid
    return total


def test_position_over_time_zero_path():
    assert position_over_time(np.array([0.0]), np.array([0]), 10.0) == 0.0


def test_position_over_time_staircase():
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([0, 1, 2])
    assert position_over_time(times, values, 3.0) == 3.0


def test_time_at_top_constant_zero():
    assert time_at_top(np.array([0.0]), np.array([0]), 10.0) == 10.0


def test_time_at_top_counts_only_rank_zero():
    times = np.array([0.0, 1.0])
    values = np.array([0, 1])
    assert time_at_top(times, values, 3.0) == 1.0


def test_metrics_match_riemann_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        times, values = random_step_path(rng)
        pot = position_over_time(times, values, 10.0)
        tat = time_at_top(times, values, 10.0)
        assert math.isclose(pot, riemann(times, values, 10.0, float), rel_tol=1e-6, abs_tol=1e-9)
        assert math.isclose(tat, riemann(times, values, 10.0, lambda v: 1.0 if v < 1 else 0.0),
                            rel_tol=1e-6, abs_tol=1e-9)


def test_metrics_additive_over_horizon_split():
    rng = np.random.default_rng(1)
    for _ in range(40):
        times, values = random_step_path(rng)
        cut = float(rng.uniform(0.5, 9.5))
        left = times <= cut
        lt, lv = times[left], values[left]
        rt = np.concatenate([[cut], times[~left]])
        rv = np.concatenate([[lv[-1]], values[~left]])
        whole = position_over_time(times, values, 10.0)
        split = position_over_time(lt, lv, cut) + position_over_time(rt, rv, 10.0)
        assert math.isclose(whole, split, rel_tol=1e-12)
        whole_top = time_at_top(times, values, 10.0)
        split_top = time_at_top(lt, lv, cut) + time_at_top(rt, rv, 10.0)
        assert math.isclose(whole_top, split_top, rel_tol=1e-12, abs_tol=1e-12)


def test_time_partitions_between_top_and_rest():
    rng = np.random.default_rng(2)
    for _ in range(40):
        times, values = random_step_path(rng)
        tat = time_at_top(times, values, 10.0)
        above = position_over_time(times, (values >= 1).astype(np.int64), 10.0)
        assert math.isclose(tat + above, 10.0, rel_tol=1e-12)


def test_bounds_invariants():
    rng = np.random.default_rng(3)
    for _ in range(40):
        times, values = random_step_path(rng)
        assert 0.0 <= time_at_top(times, values, 10.0) <= 10.0
        assert position_over_time(times, values, 10.0) >= 0.0


def test_path_must_cover_horizon():
    # the path's first point opens the horizon; tf must not cut change points
    with pytest.raises(ValueError):
        position_over_time(np.array([0.0, 11.0]), np.array([0, 1]), 10.0)
    with pytest.raises(ValueError):
        time_at_top(np.array([0.0, 11.0]), np.array([0, 1]), 10.0)
    with pytest.raises(ValueError):
        position_over_time(np.empty(0), np.empty(0), 10.0)


def test_report_from_trajectory_single_follower():
    feeds = Feeds.cut([[1.0, 2.0]], 0.0, 4.0)
    traj = trajectory_from_posts(feeds, np.array([3.0]))
    rep = report_from_trajectory(traj, run="r", seed=0, policy="p")
    # rank: 0 on [0,1), 1 on [1,2), 2 on [2,3), 0 on [3,4]
    assert rep.position_over_time == 3.0
    assert rep.time_at_top == 2.0
    assert rep.posts == 1
    assert rep.normalized_position is None


def test_identical_followers_average_to_single_follower_values():
    feed = [1.0, 2.0, 3.5]
    posts = np.array([2.5])
    one = trajectory_from_posts(Feeds.cut([feed], 0.0, 5.0), posts)
    two = trajectory_from_posts(Feeds.cut([feed, feed], 0.0, 5.0), posts)
    rep1 = report_from_trajectory(one, "r", 0, "p")
    rep2 = report_from_trajectory(two, "r", 0, "p")
    assert rep1.position_over_time == rep2.position_over_time
    assert rep1.time_at_top == rep2.time_at_top
    assert average_position(one) == average_position(two)


def test_average_position_is_time_mean():
    feeds = Feeds.cut([[1.0, 2.0]], 0.0, 4.0)
    traj = trajectory_from_posts(feeds, np.empty(0))
    # ranks 0,1,2 over [0,1),[1,2),[2,4]: integral 0+1+4=5 over length 4
    assert average_position(traj) == 5.0 / 4.0


def test_normalize_report_ratios_and_guard():
    base = MetricsReport("r", 0, "p", 3, 10.0, 4.0)
    ref = MetricsReport("r", 0, "t", 5, 20.0, 4.0)
    out = normalize_report(base, ref)
    assert out.normalized_position == 0.5
    assert out.normalized_time_at_top == 1.0
    selfed = normalize_report(ref, ref)
    assert selfed.normalized_position == 1.0
    zero_ref = MetricsReport("r", 0, "t", 5, 0.0, 0.0)
    guarded = normalize_report(base, zero_ref)
    assert guarded.normalized_position is None
    assert guarded.normalized_time_at_top is None


def test_quadratic_control_cost_hand_check():
    feeds = Feeds.cut([[1.0]], 0.0, 3.0)
    traj = trajectory_from_posts(feeds, np.array([2.0]))
    # rank 0 on [0,1), 1 on [1,2), 0 after; integral r^2 = 1
    cost = quadratic_control_cost(traj, q=4.0)
    assert cost == 0.5 * 1.0 + 0.5 * 4.0 * 1
    # terminal rank contributes when no post clears it
    held = trajectory_from_posts(feeds, np.empty(0))
    assert quadratic_control_cost(held, q=4.0) == 0.5 * (1.0 * 2.0) + 0.5 * 1.0


def test_aggregate_summary_stats():
    out = aggregate([1.0, 2.0, 3.0, 4.0])
    assert out["n"] == 4
    assert out["mean"] == 2.5
    assert out["median"] == 2.5
    assert out["q25"] == 1.75
    assert out["q75"] == 3.25
    assert math.isclose(out["stderr"], np.std([1, 2, 3, 4], ddof=1) / 2.0)
    single = aggregate([5.0])
    assert single["stderr"] == 0.0


def test_aggregate_order_statistics_match_numpy_bitwise():
    # median and quartiles come from partitions without numpy.ma; they must be
    # np.median's and np.percentile's bits, signed zeros, infinities and NaN too
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, 0.1])
    bits = lambda x: struct.pack("<d", float(x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf inside NumPy's own lerp
        for k in range(3000):
            n = int(rng.integers(1, 12))
            arr = rng.choice(pool if k % 3 == 0 else pool[:2], n) if k % 3 < 2 else rng.normal(size=n)
            got = aggregate(arr)
            assert bits(got["median"]) == bits(np.median(arr)), arr
            assert bits(got["q25"]) == bits(np.percentile(arr, 25)), arr
            assert bits(got["q75"]) == bits(np.percentile(arr, 75)), arr


def bits(report):
    return [x.hex() if isinstance(x, float) else x for x in vars(report).values()]


def test_report_matches_per_follower_sums_bit_for_bit():
    # ties, repeated posts, posts at t0 and tf, initial ranks, empty feeds,
    # one follower and many: the one-pass report adds the same floats in
    # the same order as summing each follower on its own
    rng = np.random.default_rng(21)
    grid = np.linspace(0.0, 50.0, 401)
    for trial in range(150):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 12))
        t0, tf = (0.0, 50.0) if trial % 3 else (7.3, 41.9)
        streams = [np.sort(rng.choice(grid, size=int(rng.integers(0, 60)), replace=False)) for _ in range(n)]
        posts = rng.choice(np.concatenate([grid, rng.uniform(0.0, 50.0, 50)]), size=int(rng.integers(0, 30)))
        if trial % 4 == 0:
            posts = np.concatenate([posts, [t0, tf, tf]])
        r0 = rng.integers(0, 6, size=n) if trial % 2 else None
        traj = trajectory_from_posts(Feeds.cut(streams, t0, tf, r0), posts)
        want = report_by_follower(traj, "r", trial, "p")
        assert bits(report_from_trajectory(traj, "r", trial, "p")) == bits(want)


def test_report_scores_list_built_trajectories_like_the_one_pass():
    rng = np.random.default_rng(22)
    for _ in range(20):
        times = rng.permutation(np.arange(1, 300)) * 0.1
        feeds = [np.sort(times[10 * j : 10 * j + 10]) for j in range(4)]
        posts = np.sort(times[40:48])
        via_loop = simulate(feeds, ScheduledController(posts), 0.0, 30.0, initial_ranks=[0, 1, 2, 3])
        direct = trajectory_from_posts(Feeds.cut(feeds, 0.0, 30.0, [0, 1, 2, 3]), posts)
        got = bits(report_from_trajectory(via_loop, "r", 0, "p"))
        assert got == bits(report_by_follower(via_loop, "r", 0, "p"))
        assert got == bits(report_from_trajectory(direct, "r", 0, "p"))


def test_report_rejects_paths_it_cannot_score():
    feeds = Feeds.cut([[1.0]], 0.0, 4.0)
    traj = trajectory_from_posts(feeds, np.empty(0))
    for times, values, bounds in (
        ([0.0, 1.0], [0], [0, 2]),  # not parallel
        ([], [], [0, 0]),  # empty
        ([0.0, 5.0], [0, 1], [0, 2]),  # past tf
        ([0.0, 1.0], [0, 1], [0, 1, 2]),  # more paths than followers
    ):
        bad = SimulationTrajectory(traj.own_posts, feeds, np.array(times), np.array(values, np.int64),
                                   np.array(bounds))
        with pytest.raises(ValueError):
            report_from_trajectory(bad, "r", 0, "p")
    assert report_from_trajectory(traj, "r", 0, "p").position_over_time == 3.0
    with pytest.raises(ValueError, match="no followers"):
        report_from_trajectory(trajectory_from_posts(Feeds.cut([], 0.0, 4.0), np.empty(0)), "r", 0, "p")
