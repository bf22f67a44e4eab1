"""Clairvoyant schedules: backward induction vs exhaustive enumeration."""

import math

import numpy as np
import pytest
from reference import (
    MAX_BRUTE_FORCE_STAGES,
    brute_force_schedule,
    brute_force_schedule_multi,
    quadratic_control_cost,
    schedule_cost_batch,
)

from whentopost.control_oracle import (
    MAX_ORACLE_RANK,
    MAX_ORACLE_STAGES,
    OracleInstance,
    decisions_to_post_times,
    instance_from_feed,
    oracle_schedule,
    schedule_cost,
)
from whentopost.feed_sim import Feeds, trajectory_from_posts


def random_instance(rng, max_stages=12):
    m1 = int(rng.integers(1, max_stages + 1))
    widths = rng.uniform(0.1, 2.0, size=m1)
    q = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
    r0 = int(rng.integers(0, 4))
    return OracleInstance(r0=r0, widths=widths, q=q)


def test_frozen_two_interval_instance():
    # holding through both unit intervals: 0.5*1 + 0.5*4 + terminal 0.5*4
    inst = OracleInstance(r0=0, widths=np.array([1.0, 1.0]), q=100.0)
    got = oracle_schedule(inst)
    assert got.dtype == np.int8 and np.array_equal(got, [0, 0])
    assert schedule_cost(got, inst) == 4.5
    assert schedule_cost(brute_force_schedule(inst), inst) == 4.5


def test_free_posting_drives_cost_to_zero():
    inst = OracleInstance(r0=0, widths=np.array([1.0, 0.5, 2.0]), q=0.0)
    got = oracle_schedule(inst)
    assert np.array_equal(got, [1, 1, 1])
    assert schedule_cost(got, inst) == 0.0


def test_moderate_price_matches_enumeration():
    inst = OracleInstance(r0=0, widths=np.array([1.0, 1.0, 1.0, 1.0]), q=4.0)
    assert schedule_cost(oracle_schedule(inst), inst) == schedule_cost(brute_force_schedule(inst), inst)


def test_single_interval_threshold():
    # one stage: posting beats holding exactly when q < (w + 1) * (r0+1)^2
    for r0 in (0, 1, 3):
        for w in (0.5, 1.0, 2.0):
            threshold = (w + 1.0) * (r0 + 1.0) ** 2
            widths = np.array([w])
            below = oracle_schedule(OracleInstance(r0, widths, q=0.9 * threshold))
            above = oracle_schedule(OracleInstance(r0, widths, q=1.1 * threshold))
            assert below[0] == 1
            assert above[0] == 0


def test_exact_tie_holds():
    # q = 2 makes posting and holding cost exactly 1.0 on one unit interval
    inst = OracleInstance(r0=0, widths=np.array([1.0]), q=2.0)
    got = oracle_schedule(inst)
    assert got[0] == 0
    assert schedule_cost(got, inst) == 1.0


def test_induction_equals_enumeration_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(150):
        inst = random_instance(rng)
        assert schedule_cost(oracle_schedule(inst), inst) == schedule_cost(brute_force_schedule(inst), inst)


def test_zero_width_stages_are_harmless():
    rng = np.random.default_rng(1)
    for _ in range(30):
        inst = random_instance(rng, max_stages=8)
        widths = inst.widths.copy()
        widths[rng.integers(0, widths.shape[0])] = 0.0
        patched = OracleInstance(inst.r0, widths, inst.q)
        assert schedule_cost(oracle_schedule(patched), patched) == schedule_cost(brute_force_schedule(patched), patched)


def test_cost_monotone_in_initial_rank():
    rng = np.random.default_rng(2)
    for _ in range(40):
        inst = random_instance(rng, max_stages=9)
        costs = [
            schedule_cost(oracle_schedule(other), other)
            for other in (OracleInstance(r0, inst.widths, inst.q) for r0 in range(4))
        ]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))


def test_cost_monotone_in_price():
    # a pricier post can only raise the optimal total cost
    rng = np.random.default_rng(3)
    for _ in range(40):
        inst = random_instance(rng, max_stages=9)
        costs = [
            schedule_cost(oracle_schedule(other), other)
            for other in (OracleInstance(inst.r0, inst.widths, q) for q in (0.01, 0.1, 1.0, 10.0, 100.0))
        ]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))


def test_post_count_nonincreasing_in_price():
    rng = np.random.default_rng(4)
    for _ in range(40):
        inst = random_instance(rng, max_stages=9)
        counts = [
            int(oracle_schedule(OracleInstance(inst.r0, inst.widths, q)).sum())
            for q in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_instance_from_feed_builds_gap_widths():
    inst = instance_from_feed(Feeds.cut([[1.0, 4.0]], 0.0, 10.0), q=1.0)
    assert np.array_equal(inst.widths, [1.0, 3.0, 6.0]) and inst.r0 == 0
    empty = instance_from_feed(Feeds.cut([[]], 0.0, 10.0, [3]), q=1.0)
    assert np.array_equal(empty.widths, [10.0]) and empty.r0 == 3
    # the stages are one follower's
    for streams in ([], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match="one follower"):
            instance_from_feed(Feeds.cut(streams, 0.0, 10.0), q=1.0)
        with pytest.raises(ValueError, match="one follower"):
            decisions_to_post_times([1], Feeds.cut(streams, 0.0, 10.0))


def test_the_initial_rank_is_bounded():
    # the induction keeps and scans r0 + m + 2 ranks, so r0 is capped like m
    widths = np.array([1.0])
    assert OracleInstance(MAX_ORACLE_RANK, widths, 1.0).r0 == MAX_ORACLE_RANK
    for r0 in (-1, MAX_ORACLE_RANK + 1, 10**9):
        with pytest.raises(ValueError, match="initial rank must be in"):
            OracleInstance(r0, widths, 1.0)


def test_decisions_to_post_times_lands_after_events():
    feeds = Feeds.cut([[1.0, 4.0]], 0.0, 5.0)
    times = decisions_to_post_times([1, 0, 1], feeds)
    assert times[0] == 0.0
    assert times[1] == np.nextafter(4.0, math.inf)
    with pytest.raises(ValueError):
        decisions_to_post_times([1, 0], feeds)


def test_decisions_to_post_times_matches_one_event_at_a_time():
    # one post per decision, bit for bit as a loop over the stages places them
    rng = np.random.default_rng(12)
    for case in range(200):
        tf = float(rng.uniform(1.0, 1e6))
        feed = np.sort(rng.uniform(0.0, tf, int(rng.integers(0, 30))))
        if case % 3 == 0 and feed.size:
            feed[-1] = tf  # an event at tf: the post after it is held to tf
        if case % 5 == 0 and feed.size >= 2:
            feed[-2:] = np.nextafter(tf, -math.inf), tf
        decisions = (rng.random(feed.shape[0] + 1) < rng.random()).astype(np.int8)
        want = [0.0] if decisions[0] else []
        for k in range(feed.shape[0]):
            if decisions[k + 1]:
                want.append(min(np.nextafter(feed[k], math.inf), tf))
        feeds = Feeds.cut([feed], 0.0, tf)
        got = decisions_to_post_times(decisions, feeds)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want, np.float64).tobytes(), case
        assert decisions_to_post_times(decisions.astype(bool), feeds).tobytes() == got.tobytes()


def test_a_post_after_a_feed_event_at_tf_stays_in_the_window():
    # the window (0, 10] holds an event at tf, and the schedule posts after it
    feeds = Feeds.cut([[1.0, 2.0, 3.0, 4.0, 10.0]], 0.0, 10.0)
    decisions = oracle_schedule(instance_from_feed(feeds, q=0.5))
    assert decisions.sum() == 6 and decisions[-1] == 1
    posts = decisions_to_post_times(decisions, feeds)
    assert posts[-1] == 10.0
    traj = trajectory_from_posts(feeds, posts)
    assert traj.post_count == 6
    assert traj.rank_values[0][-1] == 0


def test_schedule_cost_matches_trajectory_cost():
    # the stage model bumps the rank at every stage, window start included:
    # its physical twin is a feed with one extra story arriving one float
    # step after the window opens, with every post landing after its event
    rng = np.random.default_rng(5)
    for _ in range(25):
        feed_times = np.sort(rng.uniform(0.5, 10.0, size=int(rng.integers(0, 8))))
        inst = instance_from_feed(Feeds.cut([feed_times], 0.0, 10.0), q=float(rng.uniform(0.1, 5.0)))
        decisions = oracle_schedule(inst)
        twin_events = np.concatenate([[np.nextafter(0.0, math.inf)], feed_times])
        posts = np.array([
            np.nextafter(twin_events[k], math.inf)
            for k in range(len(twin_events)) if decisions[k]
        ])
        traj = trajectory_from_posts(Feeds.cut([twin_events], 0.0, 10.0), posts)
        cost = quadratic_control_cost(traj, q=inst.q)
        assert math.isclose(cost, schedule_cost(decisions, inst), rel_tol=1e-9, abs_tol=1e-9)


def test_validation_rejects_bad_instances():
    with pytest.raises(ValueError):
        OracleInstance(r0=-1, widths=np.array([1.0]), q=1.0)
    with pytest.raises(ValueError):
        OracleInstance(r0=0, widths=np.array([-1.0]), q=1.0)
    with pytest.raises(ValueError):
        OracleInstance(r0=0, widths=np.array([1.0]), q=-1.0)
    with pytest.raises(ValueError):
        OracleInstance(r0=0, widths=np.empty(0), q=1.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("q", math.nan, "q must be finite, got nan"),
        ("q", math.inf, "q must be finite, got inf"),
        ("widths", np.array([1.0, math.nan]), "widths must be finite, got nan at stage 1"),
        ("widths", np.array([math.inf, 1.0]), "widths must be finite, got inf at stage 0"),
    ],
)
def test_validation_rejects_non_finite_inputs(field, value, message):
    kwargs = dict(r0=0, widths=np.array([1.0, 1.0]), q=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        OracleInstance(**kwargs)


def test_scalar_cost_equals_batch_cost_bitwise():
    rng = np.random.default_rng(17)
    for case in range(300):
        m1 = int(rng.integers(1, 400))
        widths = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), m1))
        widths[rng.random(m1) < 0.1] = 0.0
        q = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e8))))
        inst = OracleInstance(int(rng.integers(0, 20)), widths, q)
        rows = np.stack([rng.random(m1) < p for p in (0.0, 0.05, 0.5, 1.0)])
        rows = np.vstack([rows, oracle_schedule(inst)])
        batch = schedule_cost_batch(rows.astype(np.float64), inst)
        for row, want in zip(rows, batch):
            got = schedule_cost(row.astype(np.int8), inst)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes(), f"case {case}"


def test_schedule_cost_rejects_wrong_length():
    inst = OracleInstance(0, np.array([1.0, 1.0]), 1.0)
    for bad in ([0], [0, 1, 0], [[0, 1]]):
        with pytest.raises(ValueError, match="one decision per stage"):
            schedule_cost(bad, inst)


def test_stage_caps_are_enforced():
    widths = np.full(MAX_BRUTE_FORCE_STAGES + 1, 1.0)
    with pytest.raises(ValueError):
        brute_force_schedule(OracleInstance(0, widths, 1.0))
    huge = np.full(MAX_ORACLE_STAGES + 1, 1.0)
    with pytest.raises(ValueError, match="stages"):
        oracle_schedule(OracleInstance(0, huge, 1.0))


def test_multi_follower_enumeration_matches_single_follower_case():
    # one follower plus a story arriving right at the window opening: the
    # physical multi-feed search then matches the stage DP (which always
    # charges that opening bump)
    rng = np.random.default_rng(6)
    for _ in range(20):
        feed_times = np.sort(rng.uniform(0.5, 10.0, size=int(rng.integers(0, 7))))
        q = float(rng.uniform(0.1, 10.0))
        inst = instance_from_feed(Feeds.cut([feed_times], 0.0, 10.0), q=q)
        twin = np.concatenate([[np.nextafter(0.0, math.inf)], feed_times])
        dec, cost = brute_force_schedule_multi([twin], 0.0, 10.0, q=q)
        assert math.isclose(cost, schedule_cost(oracle_schedule(inst), inst), rel_tol=1e-9)


def test_multi_follower_enumeration_matches_trajectory_cost():
    rng = np.random.default_rng(7)
    for _ in range(10):
        feeds = [
            np.sort(rng.uniform(0.0, 8.0, size=int(rng.integers(0, 5)))),
            np.sort(rng.uniform(0.0, 8.0, size=int(rng.integers(0, 5)))),
        ]
        merged = np.unique(np.concatenate(feeds))
        q = float(rng.uniform(0.1, 5.0))
        dec, cost = brute_force_schedule_multi(feeds, 0.0, 8.0, q=q)
        posts = decisions_to_post_times(dec, Feeds.cut([merged], 0.0, 8.0))
        traj = trajectory_from_posts(Feeds.cut(feeds, 0.0, 8.0), posts)
        assert math.isclose(quadratic_control_cost(traj, q=q), cost,
                            rel_tol=1e-9, abs_tol=1e-9)
