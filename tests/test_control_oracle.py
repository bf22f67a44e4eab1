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
    MAX_ORACLE_STAGES,
    OracleInstance,
    decisions_to_post_times,
    instance_from_feed,
    oracle_schedule,
    schedule_cost,
)
from whentopost.feed_sim import trajectory_from_posts
from whentopost.point_process import EventStream


def random_instance(rng, max_stages=12):
    m1 = int(rng.integers(1, max_stages + 1))
    widths = rng.uniform(0.1, 2.0, size=m1)
    q = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
    r0 = int(rng.integers(0, 4))
    s = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
    return OracleInstance(r0=r0, widths=widths, q=q, s=s)


def test_frozen_two_interval_instance():
    # holding through both unit intervals: 0.5*1 + 0.5*4 + terminal 0.5*4
    inst = OracleInstance(r0=0, widths=np.array([1.0, 1.0]), q=100.0, s=1.0)
    got = oracle_schedule(inst)
    assert np.array_equal(got.decisions, [0, 0])
    assert got.cost == 4.5
    assert brute_force_schedule(inst).cost == 4.5


def test_free_posting_drives_cost_to_zero():
    inst = OracleInstance(r0=0, widths=np.array([1.0, 0.5, 2.0]), q=0.0, s=1.0)
    got = oracle_schedule(inst)
    assert np.array_equal(got.decisions, [1, 1, 1])
    assert got.cost == 0.0


def test_moderate_price_matches_enumeration():
    inst = OracleInstance(r0=0, widths=np.array([1.0, 1.0, 1.0, 1.0]), q=4.0, s=1.0)
    dp = oracle_schedule(inst)
    brute = brute_force_schedule(inst)
    assert dp.cost == brute.cost
    assert schedule_cost(dp.decisions, inst) == dp.cost


def test_single_interval_threshold():
    # one stage: posting beats holding exactly when q < (s*w + 1) * (r0+1)^2
    for r0 in (0, 1, 3):
        for w in (0.5, 1.0, 2.0):
            threshold = (w + 1.0) * (r0 + 1.0) ** 2
            widths = np.array([w])
            below = oracle_schedule(OracleInstance(r0, widths, q=0.9 * threshold))
            above = oracle_schedule(OracleInstance(r0, widths, q=1.1 * threshold))
            assert below.decisions[0] == 1
            assert above.decisions[0] == 0


def test_exact_tie_holds():
    # q = 2 makes posting and holding cost exactly 1.0 on one unit interval
    inst = OracleInstance(r0=0, widths=np.array([1.0]), q=2.0, s=1.0)
    got = oracle_schedule(inst)
    assert got.decisions[0] == 0
    assert got.cost == 1.0


def test_induction_equals_enumeration_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(150):
        inst = random_instance(rng)
        dp = oracle_schedule(inst)
        brute = brute_force_schedule(inst)
        assert dp.cost == brute.cost
        assert schedule_cost(dp.decisions, inst) == dp.cost


def test_zero_width_stages_are_harmless():
    rng = np.random.default_rng(1)
    for _ in range(30):
        inst = random_instance(rng, max_stages=8)
        widths = inst.widths.copy()
        widths[rng.integers(0, widths.shape[0])] = 0.0
        patched = OracleInstance(inst.r0, widths, inst.q, inst.s)
        assert oracle_schedule(patched).cost == brute_force_schedule(patched).cost


def test_cost_monotone_in_initial_rank():
    rng = np.random.default_rng(2)
    for _ in range(40):
        inst = random_instance(rng, max_stages=9)
        costs = [
            oracle_schedule(OracleInstance(r0, inst.widths, inst.q, inst.s)).cost
            for r0 in range(4)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))


def test_cost_monotone_in_price():
    # a pricier post can only raise the optimal total cost
    rng = np.random.default_rng(3)
    for _ in range(40):
        inst = random_instance(rng, max_stages=9)
        costs = [
            oracle_schedule(OracleInstance(inst.r0, inst.widths, q, inst.s)).cost
            for q in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(costs, costs[1:]))


def test_post_count_nonincreasing_in_price():
    rng = np.random.default_rng(4)
    for _ in range(40):
        inst = random_instance(rng, max_stages=9)
        counts = [
            oracle_schedule(OracleInstance(inst.r0, inst.widths, q, inst.s)).post_count
            for q in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_instance_from_feed_builds_gap_widths():
    inst = instance_from_feed(np.array([1.0, 4.0]), 0.0, 10.0, q=1.0)
    assert np.array_equal(inst.widths, [1.0, 3.0, 6.0])
    empty = instance_from_feed(np.array([]), 0.0, 10.0, q=1.0)
    assert np.array_equal(empty.widths, [10.0])
    clipped = instance_from_feed(np.array([-1.0, 1.0, 11.0]), 0.0, 10.0, q=1.0)
    assert np.array_equal(clipped.widths, [1.0, 9.0])


def test_decisions_to_post_times_lands_after_events():
    feed = np.array([1.0, 4.0])
    times = decisions_to_post_times([1, 0, 1], feed, t0=0.0, tf=5.0)
    assert times[0] == 0.0
    assert times[1] == np.nextafter(4.0, math.inf)
    with pytest.raises(ValueError):
        decisions_to_post_times([1, 0], feed, t0=0.0, tf=5.0)


def test_a_post_after_a_feed_event_at_tf_stays_in_the_window():
    # the window (0, 10] holds an event at tf, and the schedule posts after it
    feed = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    schedule = oracle_schedule(instance_from_feed(feed, 0.0, 10.0, q=0.5))
    assert schedule.post_count == 6 and schedule.decisions[-1] == 1
    posts = decisions_to_post_times(schedule.decisions, feed, 0.0, 10.0)
    assert posts[-1] == 10.0
    traj = trajectory_from_posts([EventStream.from_times(feed)], posts, 0.0, 10.0)
    assert traj.post_count == 6
    assert traj.rank_values[0][-1] == 0


def test_schedule_cost_matches_trajectory_cost():
    # the stage model bumps the rank at every stage, window start included:
    # its physical twin is a feed with one extra story arriving one float
    # step after the window opens, with every post landing after its event
    rng = np.random.default_rng(5)
    for _ in range(25):
        feed_times = np.sort(rng.uniform(0.5, 10.0, size=int(rng.integers(0, 8))))
        inst = instance_from_feed(feed_times, 0.0, 10.0, q=float(rng.uniform(0.1, 5.0)))
        sched = oracle_schedule(inst)
        twin_events = np.concatenate([[np.nextafter(0.0, math.inf)], feed_times])
        posts = np.array([
            np.nextafter(twin_events[k], math.inf)
            for k in range(len(twin_events)) if sched.decisions[k]
        ])
        traj = trajectory_from_posts([EventStream.from_times(twin_events)], posts, 0.0, 10.0)
        cost = quadratic_control_cost(traj, q=inst.q, s=inst.s)
        assert math.isclose(cost, sched.cost, rel_tol=1e-9, abs_tol=1e-9)


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
        ("s", math.nan, "s must be finite, got nan"),
        ("widths", np.array([1.0, math.nan]), "widths must be finite, got nan at stage 1"),
        ("widths", np.array([math.inf, 1.0]), "widths must be finite, got inf at stage 0"),
    ],
)
def test_validation_rejects_non_finite_inputs(field, value, message):
    kwargs = dict(r0=0, widths=np.array([1.0, 1.0]), q=1.0, s=1.0)
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
        s = [0.0, 1, float(rng.uniform(0.01, 100.0))][case % 3]
        inst = OracleInstance(int(rng.integers(0, 20)), widths, q, s)
        rows = np.stack([rng.random(m1) < p for p in (0.0, 0.05, 0.5, 1.0)])
        rows = np.vstack([rows, oracle_schedule(inst).decisions])
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
        inst = instance_from_feed(feed_times, 0.0, 10.0, q=q)
        twin = np.concatenate([[np.nextafter(0.0, math.inf)], feed_times])
        dec, cost = brute_force_schedule_multi([twin], 0.0, 10.0, q=q)
        assert math.isclose(cost, oracle_schedule(inst).cost, rel_tol=1e-9)


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
        posts = decisions_to_post_times(dec, merged, 0.0, 8.0)
        traj = trajectory_from_posts([EventStream.from_times(f) for f in feeds],
                                     posts, 0.0, 8.0)
        assert math.isclose(quadratic_control_cost(traj, q=q), cost,
                            rel_tol=1e-9, abs_tol=1e-9)
