"""Calendar-bucket attention profiles and their use as posting weights."""

import math
import warnings

import numpy as np
import pytest

from whentopost.control_online import RedQueenParams, run_redqueen_fast
from whentopost.point_process import EventStream
from whentopost.significance import (
    GRANULARITIES,
    SignificanceProfile,
    bucket_count,
    bucket_index,
    bucket_weights,
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
    stream = EventStream(
        np.array([MONDAY + 1.0, MONDAY + 2.0, MONDAY + DAY + 1.0]),
        np.array(["a", "a", "b"], dtype=object),
    )
    profile = estimate_significance(stream, ["a", "b"], epoch=0.0, laplace=0.0)
    assert profile.values["a"][0] == 1.0
    assert np.sum(profile.values["a"]) == 1.0
    assert profile.values["b"][1] == 1.0
    assert profile.granularity == "weekday"
    assert "weekday" in GRANULARITIES


def test_estimate_significance_matches_per_follower_bucket_weights():
    # one counting pass over the log, row by row the same bits as profiling
    # each follower's own events alone
    rng = np.random.default_rng(21)
    names = np.array([f"u{i}" for i in range(30)], dtype=object)
    n = 20_000  # several counting chunks
    stream = EventStream(
        np.sort(rng.uniform(0.0, 3 * 7 * DAY, n)),
        names[np.minimum(rng.zipf(1.5, n), 30) - 1],
    )
    ids = list(names[:25]) + ["ghost", "u3", "ghost2"]  # absent and repeated ids
    for granularity in GRANULARITIES:
        for laplace in (0.0, 0.5, 1.0):
            epoch = float(rng.uniform(0.0, 1e9))
            with pytest.warns(UserWarning, match="empty activity log") as caught:
                profile = estimate_significance(stream, ids, epoch, granularity, laplace)
            assert len(caught) == 2  # one per absent follower
            assert list(profile.values) == list(dict.fromkeys(ids))
            for fid in ids:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    want = bucket_weights(
                        stream.times[stream.sources == fid], epoch, granularity, laplace
                    )
                assert profile.values[fid].tobytes() == want.tobytes(), (fid, granularity)


def test_non_finite_smoothing_rejected():
    stream = EventStream(np.array([1.0]), np.array(["a"], dtype=object))
    for laplace in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            estimate_significance(stream, ["a"], 0.0, laplace=laplace)
        with pytest.raises(ValueError):
            bucket_weights(np.array([0.0]), 0.0, "weekday", laplace=laplace)


def test_profile_validation():
    with pytest.raises(ValueError):
        SignificanceProfile("weekday", 0.0, {"a": np.ones(6)})
    with pytest.raises(ValueError):
        SignificanceProfile("weekday", 0.0, {"a": np.full(7, 2.0)})


def test_profile_validation_names_the_first_bad_follower():
    good = {f"f{k}": np.full(7, 0.5) for k in range(200)}
    for bad in ("f37", "f80", "f150"):  # the followers are checked in blocks
        for bad_vec, message in ((np.full(7, 1.5), "must lie in"), (-np.ones(7), "must lie in"),
                                 (np.ones(6), "needs 7 buckets")):
            values = dict(good)
            values[bad] = bad_vec
            values["f199"] = np.full(7, 2.0)  # a later bad follower is not the one named
            with pytest.raises(ValueError, match=f"^profile for '{bad}' {message}"):
                SignificanceProfile("weekday", 0.0, values)
    # a range error before a shape error is the one reported, and the reverse
    values = dict(good, f10=np.full(7, 2.0), f20=np.ones(5))
    with pytest.raises(ValueError, match="^profile for 'f10' must lie in"):
        SignificanceProfile("weekday", 0.0, values)
    values = dict(good, f10=np.ones(5), f20=np.full(7, 2.0))
    with pytest.raises(ValueError, match="^profile for 'f10' needs 7 buckets"):
        SignificanceProfile("weekday", 0.0, values)


def test_profile_validation_converts_every_follower():
    profile = SignificanceProfile("weekday", 0.0, {"a": [1, 0, 0, 0, 0, 0, 0], "b": np.ones(7, np.float32)})
    for vec in profile.values.values():
        assert vec.dtype == np.float64 and vec.shape == (7,)
    assert SignificanceProfile("weekday", 0.0, {}).values == {}


def test_step_schedule_unrolls_buckets_onto_window():
    vec = np.array([1.0, 0.5, 0.0, 0.25, 1.0, 0.75, 0.125])
    profile = SignificanceProfile("weekday", epoch=MONDAY, values={"f": vec})
    sched = profile.step_schedule(["f"], 0.0, 3 * DAY)
    assert np.array_equal(sched.knots, [0.0, DAY, 2 * DAY, 3 * DAY])
    assert np.array_equal(sched.values[0], [1.0, 0.5, 0.0])
    # window offset inside a day: first knot is the next day boundary
    shifted = profile.step_schedule(["f"], 1000.0, DAY + 1000.0)
    assert np.array_equal(shifted.knots, [1000.0, DAY, DAY + 1000.0])
    assert np.array_equal(shifted.values[0], [1.0, 0.5])


def test_step_schedule_requires_known_followers():
    profile = SignificanceProfile("weekday", 0.0, {"f": np.ones(7)})
    with pytest.raises(KeyError):
        profile.step_schedule(["ghost"], 0.0, DAY)


def test_weekend_silence_under_zero_weight():
    # a Sat/Sun hard-zero profile silences the poster on weekends entirely
    vec = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
    profile = SignificanceProfile("weekday", epoch=MONDAY, values={"f": vec})
    sched = profile.step_schedule(["f"], 0.0, 14 * DAY)
    params = RedQueenParams(q=1000.0, significance=sched)
    weekend_hits = 0
    total = 0
    for seed in range(100):
        posts = run_redqueen_fast([EventStream.empty()], params,
                                  np.random.default_rng(seed), 0.0, 14 * DAY,
                                  initial_ranks=[2])
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
    activity = EventStream.from_times(np.array(weekday_times), source="f")
    profile = estimate_significance(activity, ["f"], epoch=MONDAY, laplace=1.0)
    sched = profile.step_schedule(["f"], 0.0, 28 * DAY)

    feed_times = np.sort(rng.uniform(0.0, 28 * DAY, size=600))
    feeds = [EventStream.from_times(feed_times)]

    def weekend_share(params, seed):
        posts = run_redqueen_fast(feeds, params, np.random.default_rng(seed),
                                  0.0, 28 * DAY)
        if len(posts) == 0:
            return 0.0, 0
        days = (posts // DAY).astype(np.int64) % 7
        return float(np.mean(days >= 5)), len(posts)

    flat_share = weighted_share = 0.0
    for seed in range(10):
        fs, _ = weekend_share(RedQueenParams(q=9000.0), seed)
        ws, n = weekend_share(RedQueenParams(q=9000.0, significance=sched), seed)
        flat_share += fs
        weighted_share += ws
    assert weighted_share < flat_share
