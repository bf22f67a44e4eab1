"""Rank dynamics, feed merging and the discrete-event simulation loop."""

import numpy as np
import pytest
from reference import (
    RankState,
    ScheduledController,
    constant_schedule,
    followees,
    merge_feeds,
    rank_from_history,
    rank_step,
    simulate,
)

from whentopost.control_online import run_redqueen_fast
from whentopost.data_io import Network
from whentopost.feed_sim import Feeds, rank_path, trajectory_from_posts
from whentopost.point_process import HawkesParams


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


def test_feeds_merge_orders_and_labels_once():
    feeds = Feeds.cut([[1.0, 4.0], [2.0, 3.0]], 0.0, 5.0)
    times, idx = feeds.merged
    assert np.array_equal(times, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(idx, [0, 1, 1, 0])
    assert feeds.merged is feeds.merged
    want = merge_feeds([np.array([1.0, 4.0]), np.array([2.0, 3.0])])
    assert all(g.tobytes() == w.tobytes() for g, w in zip(feeds.merged, want))


def test_feeds_lay_followers_out_one_after_another():
    feeds = Feeds.cut([[0.0, 1.0, 5.0], [], [2.0, 4.0]], 0.0, 4.0)
    assert feeds.times.tolist() == [1.0, 2.0, 4.0] and feeds.bounds.tolist() == [0, 1, 1, 3]
    assert len(feeds) == 3 and feeds.follower.tolist() == [0, 2, 2]
    assert [f.tolist() for f in feeds] == [[1.0], [], [2.0, 4.0]]
    # one follower's events may tie with or precede another's
    assert Feeds(np.array([2.0, 3.0, 1.0, 2.0]), [0, 2, 2, 4], 0.0, 4.0).follower.tolist() == [0, 0, 2, 2]
    assert len(Feeds.cut([], 0.0, 4.0)) == 0


@pytest.mark.parametrize(
    "times, bounds, message",
    [
        ([1.0, 1.0], [0, 2], "strictly increasing"),
        ([1.0, 2.0, 0.5], [0, 3], "strictly increasing"),
        ([1.0, 2.0], [0, 1], "bounds"),
        ([1.0, 2.0], [1, 2], "bounds"),
        ([1.0, 2.0], [0, 2, 1, 2], "bounds"),
        ([1.0], [], "bound"),
        ([[1.0]], [0, 1], "1-d"),
    ],
)
def test_feeds_reject_a_layout_they_cannot_hold(times, bounds, message):
    with pytest.raises(ValueError, match=message):
        Feeds(np.asarray(times), np.asarray(bounds, np.int64), 0.0, 4.0)


def test_network_edges_dedup_and_lookup():
    net = Network.from_edges([("b", "f1"), ("b", "f2"), ("b", "f1"), ("x", "f1")])
    assert net.followers("b") == ["f1", "f2"]
    assert followees(net, "f1") == ["b", "x"]
    assert net.followers("nobody") == []


def test_scheduled_playback_matches_vectorized_trajectory():
    rng = np.random.default_rng(2)
    for _ in range(30):
        feed, own = random_histories(rng)
        feeds = [feed]
        via_loop = simulate(feeds, ScheduledController(own), 0.0, 100.0)
        direct = trajectory_from_posts(Feeds.cut(feeds, 0.0, 100.0), own)
        assert np.array_equal(via_loop.own_posts, direct.own_posts)
        assert np.array_equal(via_loop.rank_times[0], direct.rank_times[0])
        assert np.array_equal(via_loop.rank_values[0], direct.rank_values[0])


def test_simulate_multi_follower_rank_paths_match_history():
    rng = np.random.default_rng(3)
    feeds = [
        np.sort(rng.uniform(0, 50, size=30)),
        np.sort(rng.uniform(0, 50, size=10)),
    ]
    posts = np.sort(rng.uniform(0, 50, size=5))
    traj = simulate(feeds, ScheduledController(posts), 0.0, 50.0)
    assert len(traj.feeds) == 2
    assert traj.post_count == 5
    for j in range(2):
        for k in range(len(traj.rank_times[j])):
            want = rank_from_history(posts, feeds[j], traj.rank_times[j][k])
            assert traj.rank_values[j][k] == want


def test_simulate_initial_ranks_respected():
    feeds = [np.array([5.0])]
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

    feeds = [np.array([5.0])]
    with pytest.raises(ValueError):
        simulate(feeds, BadController(), 0.0, 10.0)


def test_simulate_conserves_events():
    # every feed event and post lands in the trajectory; nothing invented
    rng = np.random.default_rng(4)
    feed, own = random_histories(rng)
    feeds = [feed]
    traj = simulate(feeds, ScheduledController(own), 0.0, 100.0)
    assert traj.feeds.times.tobytes() == feed.tobytes()
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
        counts.append(len(traj.feeds.times))
    mean = np.mean(counts)
    assert abs(mean - 1000.0) < 100.0


def test_simulate_piecewise_feed_and_window_check():
    rate = constant_schedule(2.0, 0.0, 10.0)
    traj = simulate([rate], ScheduledController([]), 0.0, 10.0,
                    feed_rngs=[np.random.default_rng(0)])
    assert np.all(traj.feeds.times > 0.0)
    assert np.all(traj.feeds.times <= 10.0)
    with pytest.raises(ValueError):
        simulate([rate], ScheduledController([]), 10.0, 0.0)
    with pytest.raises(ValueError):
        simulate([rate], ScheduledController([]), 0.0, 10.0)  # no feed rng


def test_trajectory_final_ranks():
    feeds = Feeds.cut([[1.0, 2.0, 3.0]], 0.0, 10.0)
    traj = trajectory_from_posts(feeds, np.array([2.5]))
    assert traj.rank_values[0][-1] == 1


def grid_case(rng, n, t0, tf, r0_max):
    """``n`` feeds and a post list on a coarse grid, so posts tie with feed events and with each other.

    Some followers get no event inside the window; posts may sit at ``t0``
    and ``tf`` and repeat.
    """
    grid = np.linspace(0.0, 10.0, 41)
    feeds = []
    for _ in range(n):
        size = int(rng.integers(0, 25)) if rng.random() < 0.8 else 0
        feeds.append(np.sort(rng.choice(grid, size=size, replace=False)))
    posts = rng.choice(grid, size=int(rng.integers(0, 12)))
    if rng.random() < 0.3:
        posts = np.concatenate([posts, [t0, tf, t0]])
    r0 = rng.integers(0, r0_max + 1, size=n)
    return feeds, posts, r0


def assert_direct_counts(times, values, feed, posts, t0, tf, r0):
    """The path opens at ``(t0, r0)``, changes value at every step, and holds the direct count."""
    assert times[0] == t0 and values[0] == r0
    assert np.all(np.diff(times) >= 0) and np.all(values[1:] != values[:-1])
    ends = np.append(times[1:], tf)
    for k in range(len(times)):
        if ends[k] == times[k] and k + 1 < len(times):
            continue  # superseded at the same instant
        assert values[k] == rank_from_history(posts, feed, times[k], r0)
        if ends[k] > times[k]:
            assert values[k] == rank_from_history(posts, feed, (times[k] + ends[k]) / 2, r0)


def test_one_pass_trajectory_matches_simulate_for_many_followers():
    # distinct times throughout, where the loop and the one pass order events alike
    rng = np.random.default_rng(11)
    for trial in range(80):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 9))
        times = rng.permutation(np.arange(1, 400)) * 0.025
        feeds, used = [], 0
        for _ in range(n):
            size = int(rng.integers(0, 30)) if rng.random() < 0.8 else 0
            feeds.append(np.sort(times[used : used + size]))
            used += size
        posts = np.sort(times[used : used + int(rng.integers(0, 10))])
        r0 = rng.integers(0, 6, size=n)
        via_loop = simulate(feeds, ScheduledController(posts), 0.0, 10.0, initial_ranks=r0)
        direct = trajectory_from_posts(Feeds.cut(feeds, 0.0, 10.0, r0), posts)
        assert direct.own_posts.tobytes() == via_loop.own_posts.tobytes()
        for j in range(n):
            assert direct.rank_times[j].tobytes() == via_loop.rank_times[j].tobytes()
            assert direct.rank_values[j].dtype == np.int64
            assert direct.rank_values[j].tobytes() == via_loop.rank_values[j].tobytes()


@pytest.mark.parametrize("r0_max", [0, 5])
@pytest.mark.parametrize("window", [(0.0, 10.0), (2.5, 7.5)])
def test_one_pass_trajectory_with_ties_matches_direct_counts_and_one_follower_paths(r0_max, window):
    t0, tf = window
    rng = np.random.default_rng(12 + r0_max)
    for trial in range(60):
        n = 1 if trial % 10 == 0 else int(rng.integers(2, 8))
        feeds, posts, r0 = grid_case(rng, n, t0, tf, r0_max)
        traj = trajectory_from_posts(Feeds.cut(feeds, t0, tf, r0), posts)
        kept = np.sort(posts[(posts >= t0) & (posts <= tf)])
        assert traj.own_posts.tobytes() == kept.tobytes()
        for j, got in enumerate(traj.feeds):
            feed = feeds[j][(feeds[j] > t0) & (feeds[j] <= tf)]
            assert got.tobytes() == feed.tobytes()
            times, values = traj.rank_times[j], traj.rank_values[j]
            assert_direct_counts(times, values, feed, kept, t0, tf, int(r0[j]))
            alone = rank_path(feeds[j], kept, t0, tf, int(r0[j]))
            assert alone[0].tobytes() == times.tobytes() and alone[1].tobytes() == values.tobytes()
        # every path is a view into one array of times and one of values
        for paths in (traj.rank_times, traj.rank_values):
            assert paths[0].base is not None and all(p.base is paths[0].base for p in paths)


def test_one_pass_trajectory_edge_cases():
    streams = [[1.0, 2.0], [], [2.0, 3.0]]
    # no posts: each path counts up from its initial rank
    traj = trajectory_from_posts(Feeds.cut(streams, 0.0, 4.0, [1, 2, 0]), np.empty(0))
    assert [ts.tolist() for ts in traj.rank_times] == [[0.0, 1.0, 2.0], [0.0], [0.0, 2.0, 3.0]]
    assert [vs.tolist() for vs in traj.rank_values] == [[1, 2, 3], [2], [0, 1, 2]]
    # a post at t0 resets a nonzero initial rank at once; a post tied with a
    # feed event leaves rank 0; a repeated post adds nothing
    traj = trajectory_from_posts(Feeds.cut(streams, 0.0, 4.0, [3, 0, 1]), np.array([0.0, 2.0, 2.0]))
    assert [ts.tolist() for ts in traj.rank_times] == [[0.0, 0.0, 1.0, 2.0], [0.0], [0.0, 0.0, 3.0]]
    assert [vs.tolist() for vs in traj.rank_values] == [[3, 0, 1, 0], [0], [1, 0, 1]]
    # a post at tf closes the path at rank 0
    traj = trajectory_from_posts(Feeds.cut([[1.0, 2.0]], 0.0, 4.0), np.array([4.0]))
    assert traj.rank_times[0].tolist() == [0.0, 1.0, 2.0, 4.0]
    assert traj.rank_values[0].tolist() == [0, 1, 2, 0]
    # no followers
    empty = trajectory_from_posts(Feeds.cut([], 0.0, 4.0), np.array([1.0]))
    assert empty.rank_times == [] and empty.rank_values == [] and empty.post_count == 1


def test_a_trajectory_scores_the_window_and_ranks_its_feeds_carry():
    feeds = Feeds.cut([[1.0, 2.0], [0.0, 1.0, 5.0]], 0.0, 4.0, [2, 0])
    assert feeds.initial_ranks.dtype == np.int64 and feeds.initial_ranks.tolist() == [2, 0]
    assert (feeds.t0, feeds.tf) == (0.0, 4.0)
    traj = trajectory_from_posts(feeds, np.array([-1.0, 3.0, 5.0]))
    assert traj.feeds is feeds
    assert [f.tolist() for f in traj.feeds] == [[1.0, 2.0], [1.0]]
    assert traj.own_posts.tolist() == [3.0]  # only posts on [t0, tf] count
    assert [vs.tolist() for vs in traj.rank_values] == [[2, 3, 4, 0], [0, 1, 0]]
    assert Feeds.cut([[1.0]], 0.0, 4.0).initial_ranks.tolist() == [0]


@pytest.mark.parametrize(
    "t0, tf, initial_ranks, message",
    [
        (1.0, 4.0, None, "window"),  # an event at t0
        (0.0, 1.5, None, "window"),  # an event past tf
        (0.5, 1.0, None, "window"),
        (4.0, 4.0, None, "finite t0 < tf"),
        (5.0, 4.0, None, "finite t0 < tf"),
        (-np.inf, 4.0, None, "finite t0 < tf"),
        (0.0, np.inf, None, "finite t0 < tf"),
        (np.nan, 4.0, None, "finite t0 < tf"),
        (0.0, 4.0, [0], "one initial rank per feed"),
        (0.0, 4.0, [0, 0, 0], "one initial rank per feed"),
        (0.0, 4.0, np.zeros((2, 1), np.int64), "one initial rank per feed"),
        (0.0, 4.0, [0, -1], "nonnegative integers"),
        (0.0, 4.0, [1.5, 0.0], "nonnegative integers"),
        (0.0, 4.0, [np.nan, 0.0], "nonnegative integers"),
        (0.0, 4.0, ["1", "0"], "nonnegative integers"),
    ],
)
def test_feeds_reject_a_window_or_initial_ranks_they_cannot_hold(t0, tf, initial_ranks, message):
    times, bounds = np.array([1.0, 2.0, 0.75, 1.0]), [0, 2, 4]
    with pytest.raises(ValueError, match=message):
        Feeds(times, bounds, t0, tf, initial_ranks)
    if message != "window":  # a cut drops what lies outside the window
        with pytest.raises(ValueError, match=message):
            Feeds.cut([times[:2], times[2:]], t0, tf, initial_ranks)


def test_a_window_or_rank_the_feeds_do_not_hold_cannot_reach_the_scores():
    # the window is the feeds' own, so no call can score it past their cut
    feeds = Feeds.cut([[1.0, 2.0, 3.0]], 0.0, 4.0)
    with pytest.raises(TypeError):
        trajectory_from_posts(feeds, [], 0.0, 5.0)
    with pytest.raises(TypeError):
        run_redqueen_fast(feeds, 1.0, np.random.default_rng(0), t0=0.0, tf=5.0)
    # a fractional rank fails rather than rounding down, in the scorer and
    # in the controller, which both read it from the feeds
    with pytest.raises(ValueError, match="nonnegative integers"):
        rank_path(np.array([1.0]), np.empty(0), 0.0, 4.0, 1.5)
