"""Rank dynamics, feed merging and the discrete-event simulation loop."""

import numpy as np
import pytest
from reference import (
    RankState,
    ScheduledController,
    constant_rate,
    followees,
    labelled_stream,
    rank_from_history,
    rank_step,
    simulate,
)

from whentopost.data_io import Network
from whentopost.feed_sim import merge_feeds, rank_path, trajectory_from_posts
from whentopost.point_process import EventStream, HawkesParams


def random_histories(rng, max_events=60, tf=100.0):
    """One follower's feed plus a post schedule, all times distinct."""
    n_feed = int(rng.integers(0, max_events))
    n_own = int(rng.integers(0, 8))
    times = np.sort(rng.choice(np.arange(1, 4 * max_events), size=n_feed + n_own, replace=False))
    times = times * (tf / (4 * max_events + 1))
    return np.sort(times[:n_feed]), np.sort(times[n_feed:])


def fold_rank(feed_times, own_posts, t, initial_rank=0):
    """Oracle: fold rank_step over the merged event sequence up to t."""
    events = [(ft, 0) for ft in feed_times] + [(ot, None) for ot in own_posts]
    events.sort(key=lambda e: e[0])
    state = RankState(np.array([initial_rank]), 0.0)
    for et, follower in events:
        if et > t:
            break
        state = rank_step(state, et, follower)
    return int(state.ranks[0])


def test_rank_step_feed_increment():
    state = RankState(np.array([5]), 0.0)
    out = rank_step(state, 1.0, 0)
    assert out.ranks[0] == 6
    assert out.as_of == 1.0


def test_rank_step_own_post_resets():
    state = RankState(np.array([5]), 0.0)
    out = rank_step(state, 1.0, None)
    assert out.ranks[0] == 0
    assert out.last_own_post == 1.0


def test_rank_step_resets_every_follower():
    state = RankState(np.array([2, 7]), 0.0)
    out = rank_step(state, 3.0, None)
    assert np.array_equal(out.ranks, [0, 0])


def test_rank_step_only_bumps_target_follower():
    state = RankState(np.array([2, 7]), 0.0)
    out = rank_step(state, 3.0, 1)
    assert np.array_equal(out.ranks, [2, 8])


def test_rank_step_rejects_out_of_order():
    state = RankState(np.array([1]), 5.0)
    with pytest.raises(ValueError):
        rank_step(state, 4.0, 0)


def test_rank_state_rejects_negative_rank():
    with pytest.raises(ValueError):
        RankState(np.array([-1]), 0.0)


def test_rank_step_states_equal_checked_states():
    # rank_step skips RankState's check; what it builds must not tell
    state = RankState([2, 0], 0.0)
    for t, follower in [(1.0, 0), (2.0, None), (3.0, 1), (3.0, 1)]:
        state = rank_step(state, t, follower)
        checked = RankState(state.ranks.copy(), state.as_of, state.last_own_post)
        assert type(state) is RankState and state.ranks.dtype == np.int64
        assert (state.ranks.tolist(), state.as_of, state.last_own_post) == (
            checked.ranks.tolist(), checked.as_of, checked.last_own_post
        )
    assert state.ranks.tolist() == [0, 2] and state.last_own_post == 2.0
    with pytest.raises(AttributeError):
        state.as_of = 4.0  # still frozen


def test_rank_from_history_counts_after_last_post():
    assert rank_from_history(np.array([2.0]), np.array([1.0, 2.5, 3.7]), 4.0) == 2


def test_rank_from_history_at_top():
    assert rank_from_history(np.array([2.0]), np.array([1.0]), 4.0) == 0


def test_rank_from_history_before_any_post_counts_from_start():
    feed = np.array([1.0, 2.5, 3.7])
    assert rank_from_history(np.array([]), feed, 4.0) == 3
    assert rank_from_history(np.array([]), feed, 4.0, initial_rank=2) == 5
    assert rank_from_history(np.array([5.0]), feed, 4.0, initial_rank=2) == 5


def test_rank_from_history_equals_rank_step_fold():
    # the module's core property: direct counting == folding single steps
    rng = np.random.default_rng(0)
    for _ in range(100):
        feed, own = random_histories(rng)
        change = np.sort(np.concatenate([feed, own]))
        probes = np.concatenate([change, change + 1e-9, [0.0, 100.0]])
        for t in probes:
            assert rank_from_history(own, feed, t) == fold_rank(feed, own, t)


def test_rank_path_matches_pointwise_history():
    rng = np.random.default_rng(1)
    for _ in range(60):
        feed, own = random_histories(rng)
        r0 = int(rng.integers(0, 4))
        times, values = rank_path(feed, own, 0.0, 100.0, r0)
        assert times[0] == 0.0
        assert values[0] == r0 or len(times) > 0
        # value on [times[k], times[k+1]) matches the direct count there
        for k in range(len(times)):
            assert values[k] == rank_from_history(own, feed, times[k], r0)
        # steps only change values (collapsed runs)
        assert np.all(np.diff(values) != 0) or len(values) == 1


def test_rank_path_ignores_events_outside_window():
    times, values = rank_path(np.array([5.0, 25.0]), np.array([]), 10.0, 20.0, 0)
    assert np.array_equal(times, [10.0])
    assert np.array_equal(values, [0])


def test_merge_feeds_orders_and_labels():
    a = labelled_stream([1.0, 4.0], "a")
    b = labelled_stream([2.0, 3.0], "b")
    times, idx = merge_feeds([a, b])
    assert np.array_equal(times, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(idx, [0, 1, 1, 0])


def test_network_edges_dedup_and_lookup():
    net = Network.from_edges([("b", "f1"), ("b", "f2"), ("b", "f1"), ("x", "f1")])
    assert net.followers("b") == ["f1", "f2"]
    assert followees(net, "f1") == ["b", "x"]
    assert net.followers("nobody") == []


def test_scheduled_playback_matches_vectorized_trajectory():
    rng = np.random.default_rng(2)
    for _ in range(30):
        feed, own = random_histories(rng)
        feeds = [EventStream.from_times(feed)]
        via_loop = simulate(feeds, ScheduledController(own), 0.0, 100.0)
        direct = trajectory_from_posts(feeds, own, 0.0, 100.0)
        assert np.array_equal(via_loop.own_posts, direct.own_posts)
        assert np.array_equal(via_loop.rank_times[0], direct.rank_times[0])
        assert np.array_equal(via_loop.rank_values[0], direct.rank_values[0])


def test_simulate_multi_follower_rank_paths_match_history():
    rng = np.random.default_rng(3)
    feeds = [
        EventStream.from_times(np.sort(rng.uniform(0, 50, size=30))),
        EventStream.from_times(np.sort(rng.uniform(0, 50, size=10))),
    ]
    posts = np.sort(rng.uniform(0, 50, size=5))
    traj = simulate(feeds, ScheduledController(posts), 0.0, 50.0)
    assert traj.n_followers == 2
    assert traj.post_count == 5
    for j in range(2):
        for k in range(len(traj.rank_times[j])):
            want = rank_from_history(posts, feeds[j].times, traj.rank_times[j][k])
            assert traj.rank_values[j][k] == want


def test_simulate_initial_ranks_respected():
    feeds = [EventStream.from_times([5.0])]
    traj = simulate(feeds, ScheduledController([]), 0.0, 10.0, initial_ranks=[3])
    assert np.array_equal(traj.rank_values[0], [3, 4])
    posted = simulate(feeds, ScheduledController([2.0]), 0.0, 10.0, initial_ranks=[3])
    assert np.array_equal(posted.rank_values[0], [3, 0, 1])


def test_simulate_rejects_posts_in_the_past():
    class BadController(ScheduledController):
        def __init__(self):
            super().__init__([4.0])

        def observe_feed(self, t, follower):
            self._times = np.array([t - 1.0])
            self._next = 0

    feeds = [EventStream.from_times([5.0])]
    with pytest.raises(ValueError):
        simulate(feeds, BadController(), 0.0, 10.0)


def test_simulate_conserves_events():
    # every feed event and post lands in the trajectory; nothing invented
    rng = np.random.default_rng(4)
    feed, own = random_histories(rng)
    feeds = [EventStream.from_times(feed)]
    traj = simulate(feeds, ScheduledController(own), 0.0, 100.0)
    assert len(traj.feeds[0]) == len(feed)
    assert traj.post_count == len(own)
    change_points = set(traj.rank_times[0][1:])
    assert change_points <= (set(feed) | set(own))


def test_simulate_generative_feed_volume():
    # a self-exciting feed at (10, 1, 10) over 90s averages ~1000 events
    params = HawkesParams(10.0, 1.0, 10.0)
    counts = []
    for seed in range(5):
        traj = simulate(
            [params],
            ScheduledController([]),
            0.0,
            90.0,
            feed_rngs=[np.random.default_rng(seed)],
        )
        counts.append(len(traj.feeds[0]))
    mean = np.mean(counts)
    assert abs(mean - 1000.0) < 100.0


def test_simulate_piecewise_feed_and_window_check():
    rate = constant_rate(2.0, 0.0, 10.0)
    traj = simulate([rate], ScheduledController([]), 0.0, 10.0,
                    feed_rngs=[np.random.default_rng(0)])
    assert np.all(traj.feeds[0].times > 0.0)
    assert np.all(traj.feeds[0].times <= 10.0)
    with pytest.raises(ValueError):
        simulate([rate], ScheduledController([]), 10.0, 0.0)
    with pytest.raises(ValueError):
        simulate([rate], ScheduledController([]), 0.0, 10.0)  # no feed rng


def test_trajectory_final_ranks():
    feeds = [EventStream.from_times([1.0, 2.0, 3.0])]
    traj = trajectory_from_posts(feeds, np.array([2.5]), 0.0, 10.0)
    assert traj.rank_values[0][-1] == 1
