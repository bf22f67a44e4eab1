"""Calendar-bucket attention profiles and their use as posting weights."""

import math
import warnings

import numpy as np
import pytest
import reference
from reference import bucket_weights, coded_log

from whentopost import significance
from whentopost.control_online import run_redqueen_fast
from whentopost.feed_sim import Feeds
from whentopost.significance import (
    GRANULARITIES,
    SignificanceProfile,
    bucket_count,
    bucket_index,
    estimate_significance,
)

DAY = 86_400.0
# 1970-01-05 was a Monday; times below are relative to epoch=0 (a Thursday)
MONDAY = 4 * DAY


def test_bucket_counts():
    assert bucket_count("weekday") == 7
    assert bucket_count("weekday-hour") == 168
    with pytest.raises(ValueError):
        bucket_count("minute")


def test_bucket_index_weekday_anchoring():
    # UNIX zero is a Thursday (index 3 when Monday is 0)
    assert bucket_index(0.0, "weekday") == 3
    assert bucket_index(MONDAY, "weekday") == 0
    assert bucket_index(MONDAY + 6 * DAY, "weekday") == 6
    assert bucket_index(MONDAY + 7 * DAY, "weekday") == 0


def test_bucket_index_weekday_hour():
    assert bucket_index(MONDAY + 5 * 3600.0, "weekday-hour") == 5
    assert bucket_index(MONDAY + DAY + 3600.0, "weekday-hour") == 25
    got = bucket_index(np.array([0.0, MONDAY]), "weekday")
    assert np.array_equal(got, [3, 0])


def test_bucket_index_matches_the_weekday_and_hour_formulas():
    # one formula on whole buckets since 1970 against weekday and hour apart
    rng = np.random.default_rng(2026)
    n = 50_000
    hours = rng.integers(-2.7e11, 2.7e11, n) * 3600.0  # whole hours, |t| up to ~1e15
    near = rng.integers(-1e6, 1e6, n) * 3600.0
    times = np.concatenate([
        rng.uniform(-2e9, 2e9, n),
        rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(0.0, 15.0, n),
        hours,
        np.nextafter(hours, -np.inf),  # the float just before an hour
        near - 1e-6,
        np.nextafter(near, -np.inf),
        [0.0, -0.0, 1e15, -1e15],
    ])
    for granularity in GRANULARITIES:
        assert np.array_equal(
            bucket_index(times, granularity), reference.bucket_index(times, granularity)
        ), granularity


def test_all_monday_log_concentrates():
    # 10 Monday events, smoothing 1: Monday 11/17, rest 1/17, peak scaled to 1
    times = MONDAY + np.arange(10) * (7 * DAY)
    weights = bucket_weights(times, epoch=0.0, granularity="weekday")
    assert weights[0] == 1.0
    assert np.allclose(weights[1:], 1.0 / 11.0)


def test_uniform_log_is_flat():
    times = MONDAY + np.arange(7) * DAY + 100.0
    weights = bucket_weights(times, epoch=0.0, granularity="weekday")
    assert np.array_equal(weights, np.ones(7))


def test_zero_smoothing_gives_hard_zeros():
    times = MONDAY + np.array([0.0, DAY, 2 * DAY])  # Mon, Tue, Wed
    weights = bucket_weights(times, epoch=0.0, granularity="weekday", laplace=0.0)
    assert np.array_equal(weights[:3], [1.0, 1.0, 1.0])
    assert np.array_equal(weights[3:], np.zeros(4))


def test_duplicated_log_is_invariant_without_smoothing():
    rng = np.random.default_rng(0)
    times = rng.uniform(0, 60 * DAY, size=200)
    once = bucket_weights(times, 0.0, "weekday", laplace=0.0)
    twice = bucket_weights(np.concatenate([times, times]), 0.0, "weekday", laplace=0.0)
    assert np.allclose(once, twice)


def test_empty_log_warns_and_falls_flat():
    with pytest.warns(UserWarning):
        weights = bucket_weights(np.empty(0), 0.0, "weekday")
    assert np.array_equal(weights, np.ones(7))


def test_negative_smoothing_rejected():
    with pytest.raises(ValueError):
        bucket_weights(np.array([0.0]), 0.0, "weekday", laplace=-1.0)


def test_estimate_significance_per_follower():
    log = coded_log([MONDAY + 1.0, MONDAY + 2.0, MONDAY + DAY + 1.0], ["a", "a", "b"])
    profile = estimate_significance(log, ["a", "b"], epoch=0.0, laplace=0.0)
    assert profile.ids == ("a", "b") and profile.values.shape == (2, 7)
    assert profile.values[0, 0] == 1.0
    assert np.sum(profile.values[0]) == 1.0
    assert profile.values[1, 1] == 1.0
    assert profile.granularity == "weekday"
    assert "weekday" in GRANULARITIES


def test_estimate_significance_matches_per_follower_bucket_weights():
    # one counting pass over the log, row by row the same bits as profiling
    # each follower's own events alone
    rng = np.random.default_rng(21)
    names = np.array([f"u{i}" for i in range(30)], dtype=object)
    n = 20_000  # several counting chunks
    sources = names[np.minimum(rng.zipf(1.5, n), 30) - 1]
    log = coded_log(np.sort(rng.uniform(0.0, 3 * 7 * DAY, n)), sources)
    ids = list(names[:25]) + ["ghost", "u3", "ghost2"]  # absent and repeated ids
    for granularity in GRANULARITIES:
        for laplace in (0.0, 0.5, 1.0):
            epoch = float(rng.uniform(0.0, 1e9))
            with pytest.warns(UserWarning, match="empty activity log") as caught:
                profile = estimate_significance(log, ids, epoch, granularity, laplace)
            assert len(caught) == 2  # one per absent follower
            assert profile.ids == tuple(dict.fromkeys(ids))
            assert profile.values.dtype == np.float64
            assert profile.values.shape == (len(profile.ids), bucket_count(granularity))
            for row, fid in enumerate(profile.ids):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = bucket_weights(
                        log.times[sources == fid], epoch, granularity, laplace
                    )
                assert profile.values[row].tobytes() == want.tobytes(), (fid, granularity)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_estimate_significance_counts_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # many events in one cell within a chunk, and cells that recur across chunks
    rng = np.random.default_rng(chunk)
    times = np.unique(np.concatenate([MONDAY + 10.0 + np.arange(50.0), rng.uniform(0.0, 2 * 7 * DAY, 300)]))
    log = coded_log(times, np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, times.shape[0])])
    with pytest.warns(UserWarning, match="empty activity log"):  # "d" has no events
        want = estimate_significance(log, ["a", "b", "c", "d"], 0.0, "weekday-hour", laplace=0.0)
    monkeypatch.setattr(significance, "_CHUNK", chunk)
    with pytest.warns(UserWarning, match="empty activity log"):
        got = estimate_significance(log, ["a", "b", "c", "d"], 0.0, "weekday-hour", laplace=0.0)
    assert got.ids == want.ids == tuple("abcd")
    assert got.values.tobytes() == want.values.tobytes()


def test_non_finite_smoothing_rejected():
    log = coded_log([1.0], ["a"])
    for laplace in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_significance(log, ["a"], 0.0, laplace=laplace)
        with pytest.raises(ValueError):
            bucket_weights(np.array([0.0]), 0.0, "weekday", laplace=laplace)


def test_a_schedule_past_the_calendar_range_is_refused():
    profile = SignificanceProfile("weekday", 2.0**53, ["a"], np.ones((1, 7)))
    assert profile.step_schedule(-DAY, 0.0).knots[-1] == 0.0  # a window ending on the edge
    with pytest.raises(ValueError, match=r"^epoch 9007199254740992.0 puts a time outside"):
        profile.step_schedule(0.0, 2.0)
    with pytest.raises(ValueError, match="^epoch"):
        estimate_significance(coded_log([-2.0, 1.0], ["a", "a"]), ["a"], -(2.0**53))


def test_profile_validation():
    with pytest.raises(ValueError, match=r"^values must be a 1 x 7 table, got shape \(1, 6\)$"):
        SignificanceProfile("weekday", 0.0, ["a"], np.ones((1, 6)))
    with pytest.raises(ValueError, match="must lie in"):
        SignificanceProfile("weekday", 0.0, ["a"], np.full((1, 7), 2.0))
    with pytest.raises(ValueError, match="unknown granularity"):
        SignificanceProfile("minute", 0.0, ["a"], np.ones((1, 7)))


def test_profile_rejects_a_table_of_the_wrong_shape():
    for ids, table in ((["a", "b"], np.ones((2, 168))),  # weekday-hour rows for a weekday profile
                       (["a", "b"], np.ones((3, 7))),  # a row without an id
                       (["a", "b"], np.ones((1, 7))),  # an id without a row
                       (["a"], np.ones(7)),  # one follower's vector, not a table
                       ([], np.ones((0, 6)))):
        with pytest.raises(ValueError, match="^values must be a"):
            SignificanceProfile("weekday", 0.0, ids, table)


def test_profile_rejects_a_repeated_id():
    with pytest.raises(ValueError, match="^follower ids must be distinct$"):
        SignificanceProfile("weekday", 0.0, ["a", "b", "a"], np.ones((3, 7)))


def test_profile_validation_names_the_first_bad_follower():
    ids = [f"f{k}" for k in range(200)]
    for bad in (37, 80, 150):
        for bad_vec in (np.full(7, 1.5), -np.ones(7), np.array([1.0, 0, 0, -1e-300, 0, 0, 0])):
            table = np.full((200, 7), 0.5)
            table[bad] = bad_vec
            table[199] = 2.0  # a later bad follower is not the one named
            with pytest.raises(ValueError, match=f"^profile for 'f{bad}' must lie in \\[0, 1\\]$"):
                SignificanceProfile("weekday", 0.0, ids, table)


def test_profile_validation_rejects_nan_weights_by_follower():
    ids = [f"f{k}" for k in range(100)]
    for bad_vec in (np.full(7, np.nan), np.array([1.0, np.nan, 0, 0, 0, 0, 0])):
        table = np.full((100, 7), 0.5)
        table[70] = bad_vec
        with pytest.raises(ValueError, match="^profile for 'f70' must lie in"):
            SignificanceProfile("weekday", 0.0, ids, table)
    with pytest.raises(ValueError, match="^profile for 'a' must lie in"):
        SignificanceProfile("weekday", 0.0, ["a"], np.full((1, 7), np.nan))


def test_profile_converts_its_input_without_writing_to_it():
    ids = ["a", "b"]
    table = [[1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1]]
    profile = SignificanceProfile("weekday", 0.0, ids, table)
    assert ids == ["a", "b"] and table == [[1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 1, 1, 1, 1]]
    assert profile.ids == ("a", "b")
    assert profile.values.dtype == np.float64 and profile.values.shape == (2, 7)
    assert np.array_equal(profile.values, table)
    single = np.ones((2, 7), np.float32)
    assert SignificanceProfile("weekday", 0.0, ids, single).values.dtype == np.float64
    assert single.dtype == np.float32
    empty = SignificanceProfile("weekday", 0.0, [], np.empty((0, 7)))
    assert empty.ids == () and empty.values.shape == (0, 7)


def test_profiles_and_schedules_compare_by_identity():
    profile = SignificanceProfile("weekday", 0.0, ["a", "b"], np.ones((2, 7)))
    twin = SignificanceProfile("weekday", 0.0, ["a", "b"], np.ones((2, 7)))
    assert profile == profile and profile != twin
    schedule = profile.step_schedule(0.0, 3 * DAY)
    assert schedule == schedule and schedule != profile.step_schedule(0.0, 3 * DAY)


def test_step_schedule_unrolls_buckets_onto_window():
    vec = np.array([1.0, 0.5, 0.0, 0.25, 1.0, 0.75, 0.125])
    profile = SignificanceProfile("weekday", epoch=MONDAY, ids=["f"], values=[vec])
    sched = profile.step_schedule(0.0, 3 * DAY)
    assert np.array_equal(sched.knots, [0.0, DAY, 2 * DAY, 3 * DAY])
    assert np.array_equal(sched.values, [[1.0, 0.5, 0.0]])
    # window offset inside a day: first knot is the next day boundary
    shifted = profile.step_schedule(1000.0, DAY + 1000.0)
    assert np.array_equal(shifted.knots, [1000.0, DAY, DAY + 1000.0])
    assert np.array_equal(shifted.values, [[1.0, 0.5]])


def test_step_schedule_has_a_row_per_follower_in_profile_order():
    rng = np.random.default_rng(4)
    for granularity in GRANULARITIES:
        b = bucket_count(granularity)
        table = rng.uniform(0.0, 1.0, (5, b))
        profile = SignificanceProfile(granularity, 1.5e9 + 1234.5, list("vwxyz"), table)
        t0, tf = 500.0, 9 * DAY + 77.0
        sched = profile.step_schedule(t0, tf)
        assert sched.values.shape[0] == 5
        # each segment takes its bucket from the absolute time it starts at
        starts = bucket_index(profile.epoch + sched.knots[:-1], granularity)
        assert np.array_equal(sched.values, table[:, starts])
    with pytest.raises(ValueError, match="positive length"):
        profile.step_schedule(DAY, DAY)


#: (epoch, t0, tf) of weekday windows with an end within rounding of a day
#: edge: in the first the edge just before ``tf`` rounds onto it in window
#: time, in the second the edge just after ``t0`` rounds onto ``t0``.
EDGE_WINDOWS = [
    (-52501.620103042675, 52501.62010304269, 138901.6201030427),
    (5361.042261382834, -264561.04226138286, -178161.04226138286),
]


def assert_spans_with_midpoint_buckets(profile, t0, tf):
    """The schedule's knots run strictly from ``t0`` to ``tf``, and each segment wider
    than rounding takes the bucket of its midpoint."""
    sched = profile.step_schedule(t0, tf)
    knots = sched.knots
    assert knots[0] == t0 and knots[-1] == tf and np.all(np.diff(knots) > 0)
    wide = np.diff(knots) > 1e-9 * (abs(profile.epoch) + np.abs(knots[1:]) + np.abs(knots[:-1]))
    mid = bucket_index(profile.epoch + 0.5 * (knots[:-1] + knots[1:]), profile.granularity)
    assert np.array_equal(sched.values[:, wide], profile.values[:, mid][:, wide])


def test_step_schedule_spans_a_window_whose_end_rounds_onto_a_bucket_edge():
    for epoch, t0, tf in EDGE_WINDOWS:
        profile = SignificanceProfile("weekday", epoch, ["f"], [np.linspace(0.1, 1.0, 7)])
        assert_spans_with_midpoint_buckets(profile, t0, tf)
    # windows whose ends are bucket edges in absolute time, maybe nudged by an ulp
    rng = np.random.default_rng(28)
    onto_an_end = 0
    for case in range(4000):
        granularity = GRANULARITIES[case % 2]
        width = DAY if granularity == "weekday" else 3600.0
        scale = 10.0 ** rng.uniform(0.0, 9.0)
        epoch = float(rng.uniform(-scale, scale))
        edge0 = math.floor(rng.uniform(-scale, scale) / width) * width
        edge1 = edge0 + int(rng.integers(1, 20)) * width
        t0, tf = edge0 - epoch, edge1 - epoch
        if rng.random() < 0.5:
            t0, tf = (float(np.nextafter(t, rng.choice([-math.inf, math.inf]))) for t in (t0, tf))
        # an edge inside the window in absolute time, yet on one of its ends in window time
        onto_an_end += (epoch + t0 < edge0 and edge0 - epoch == t0) or (epoch + tf > edge1 and edge1 - epoch == tf)
        if tf > t0:
            table = rng.uniform(0.0, 1.0, (1, bucket_count(granularity)))
            assert_spans_with_midpoint_buckets(SignificanceProfile(granularity, epoch, ["f"], table), t0, tf)
    assert onto_an_end >= 20


def test_weekend_silence_under_zero_weight():
    # a Sat/Sun hard-zero profile silences the poster on weekends entirely
    vec = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    profile = SignificanceProfile("weekday", epoch=MONDAY, ids=["f"], values=[vec])
    sched = profile.step_schedule(0.0, 14 * DAY)
    weekend_hits = 0
    total = 0
    for seed in range(100):
        posts = run_redqueen_fast(Feeds(np.empty(0), [0, 0], 0.0, 14 * DAY, [2]), 1000.0,
                                  np.random.default_rng(seed), sched)
        for p in posts:
            total += 1
            day = int(p // DAY) % 7
            if day in (5, 6):
                weekend_hits += 1
    assert total > 50
    assert weekend_hits == 0


def test_weekend_light_cohort_shifts_posts_off_weekends():
    # feeding the estimated profile back into the poster lowers its weekend
    # share versus the unweighted poster on the same seeds
    rng = np.random.default_rng(1)
    weekday_times = []
    t = 0.0
    while t < 28 * DAY:
        day = int(t // DAY) % 7
        if day < 5:
            weekday_times.append(t)
        t += float(rng.exponential(3 * 3600.0))
    activity = coded_log(weekday_times, ["f"] * len(weekday_times))
    profile = estimate_significance(activity, ["f"], epoch=MONDAY, laplace=1.0)
    sched = profile.step_schedule(0.0, 28 * DAY)

    feed_times = np.sort(rng.uniform(0.0, 28 * DAY, size=600))
    feeds = Feeds.cut([feed_times], 0.0, 28 * DAY)

    def weekend_share(significance, seed):
        posts = run_redqueen_fast(feeds, 9000.0, np.random.default_rng(seed), significance)
        if len(posts) == 0:
            return 0.0, 0
        days = (posts // DAY).astype(np.int64) % 7
        return float(np.mean(days >= 5)), len(posts)

    flat_share = weighted_share = 0.0
    for seed in range(10):
        fs, _ = weekend_share(None, seed)
        ws, n = weekend_share(sched, seed)
        flat_share += fs
        weighted_share += ws
    assert weighted_share < flat_share
