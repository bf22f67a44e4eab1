"""Baseline posting policies: uniform Poisson, playback, offline planner."""

import itertools
import math

import numpy as np
import pytest
from reference import segment_cost_model, segment_offline_posts_loop, segment_totals_by_value_at

from whentopost.control_baselines import (
    segment_offline_posts,
    true_posts_playback,
    uniform_poisson_posts,
)
from whentopost.feed_sim import Feeds
from whentopost.scenarios import _empirical_segment_rate
from whentopost.significance import StepSchedule


def test_uniform_zero_budget_is_empty():
    posts = uniform_poisson_posts(0.0, 0.0, 100.0, np.random.default_rng(0))
    assert posts.shape == (0,)


def test_uniform_count_matches_budget():
    posts = uniform_poisson_posts(100.0, 0.0, 100.0, np.random.default_rng(1))
    assert abs(len(posts) - 100) <= 3 * math.sqrt(100)
    assert np.all(posts > 0.0)
    assert np.all(posts < 100.0)
    assert np.all(np.diff(posts) >= 0)


def test_uniform_deterministic_in_seed():
    a = uniform_poisson_posts(20.0, 0.0, 50.0, np.random.default_rng(7))
    b = uniform_poisson_posts(20.0, 0.0, 50.0, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_uniform_rejects_negative_budget():
    with pytest.raises(ValueError):
        uniform_poisson_posts(-1.0, 0.0, 1.0, np.random.default_rng(0))


def test_playback_is_identity():
    recorded = np.array([1.0, 5.0, 9.0])
    assert np.array_equal(true_posts_playback(recorded), [1.0, 5.0, 9.0])
    assert true_posts_playback(np.empty(0)).shape == (0,)


def test_playback_returns_a_copy():
    recorded = np.array([1.0, 5.0])
    out = true_posts_playback(recorded)
    out[0] = -1.0
    assert recorded[0] == 1.0


def flat_rate(rate, knots):
    return StepSchedule(knots, np.full((1, len(knots) - 1), rate))


def test_offline_zero_budget_is_empty():
    assert segment_offline_posts(flat_rate(2.0, np.array([0.0, 10.0])), 0, 0.0, 10.0).shape == (0,)


def test_offline_equal_rates_spread_evenly():
    # four identical segments, four posts: one per segment at its start
    knots = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    rate = flat_rate(6.0, knots)
    posts = segment_offline_posts(rate, 4, 0.0, 40.0)
    assert np.array_equal(posts, [0.0, 10.0, 20.0, 30.0])
    # eight posts: two per segment, evenly spaced inside
    posts = segment_offline_posts(rate, 8, 0.0, 40.0)
    assert np.array_equal(posts, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0])


def test_offline_single_post_lands_on_enumerated_argmin():
    # one post: the greedy pick must match trying every segment
    rng = np.random.default_rng(3)
    knots = np.array([0.0, 5.0, 15.0, 20.0, 32.0])
    lengths = np.diff(knots)
    for _ in range(25):
        seg_rates = rng.uniform(0.1, 10.0, size=4)
        posts = segment_offline_posts(StepSchedule(knots, [seg_rates]), 1, 0.0, 32.0)
        assert len(posts) == 1
        costs = [
            segment_cost_model(seg_rates, lengths, np.eye(4, dtype=int)[k])
            for k in range(4)
        ]
        best = int(np.argmin(costs))
        assert posts[0] == knots[best]


def test_offline_dominant_segment_attracts_single_post():
    knots = np.array([0.0, 10.0, 20.0, 30.0])
    posts = segment_offline_posts(StepSchedule(knots, [[1.0, 100.0, 1.0]]), 1, 0.0, 30.0)
    assert np.array_equal(posts, [10.0])


def test_offline_allocation_is_optimal_under_its_model():
    # marginal gains shrink monotonically, so greedy must equal the
    # exhaustive best allocation of b posts over the segments
    rng = np.random.default_rng(4)
    knots = np.array([0.0, 4.0, 9.0, 17.0])
    lengths = np.diff(knots)
    for _ in range(20):
        seg_rates = rng.uniform(0.1, 10.0, size=3)
        budget = int(rng.integers(1, 7))
        posts = segment_offline_posts(StepSchedule(knots, [seg_rates]), budget, 0.0, 17.0)
        greedy_alloc = np.array([
            np.sum((posts >= knots[k]) & (posts < knots[k + 1])) for k in range(3)
        ])
        best = min(
            (a for a in itertools.product(range(budget + 1), repeat=3) if sum(a) == budget),
            key=lambda a: segment_cost_model(seg_rates, lengths, np.array(a)),
        )
        got = segment_cost_model(seg_rates, lengths, greedy_alloc)
        want = segment_cost_model(seg_rates, lengths, np.array(best))
        assert math.isclose(got, want, rel_tol=1e-12)


def test_offline_scale_invariant_in_rates():
    knots = np.array([0.0, 3.0, 11.0, 20.0])
    seg_rates = np.array([2.0, 5.0, 1.0])
    a = segment_offline_posts(StepSchedule(knots, [seg_rates]), 5, 0.0, 20.0)
    b = segment_offline_posts(StepSchedule(knots, [seg_rates * 37.0]), 5, 0.0, 20.0)
    assert np.array_equal(a, b)


def test_offline_sums_rates_across_followers():
    # follower weight moves the post toward the busier joint segment:
    # 6 + 1 events on [0, 10), 4 + 8 on [10, 20]
    feeds = Feeds.cut([
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 11.0, 12.0, 13.0, 14.0],
        [1.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0],
    ], 0.0, 20.0)
    rate = _empirical_segment_rate(feeds, 2)
    assert np.allclose(rate.values, [[0.7, 1.2]])
    assert np.array_equal(segment_offline_posts(rate, 1, 0.0, 20.0), [10.0])


def test_offline_clips_grid_to_window():
    knots = np.array([0.0, 10.0, 20.0, 30.0])
    posts = segment_offline_posts(flat_rate(1.0, knots), 2, 5.0, 25.0)
    assert np.all(posts >= 5.0)
    assert np.all(posts < 25.0)


def test_offline_validation():
    knots = np.array([0.0, 10.0])
    with pytest.raises(ValueError, match="budget cannot be negative"):
        segment_offline_posts(flat_rate(1.0, knots), -1, 0.0, 10.0)
    with pytest.raises(ValueError, match="does not cover the posting window"):
        segment_offline_posts(flat_rate(1.0, knots), 1, 0.0, 20.0)
    with pytest.raises(ValueError, match="one-row table"):
        segment_offline_posts(StepSchedule(knots, [[1.0], [2.0]]), 1, 0.0, 10.0)


def test_offline_plan_reads_one_rate_lookup_per_segment():
    # a window clipped from the grid plans as the clipped grid with each
    # segment's rate read by value_at at its start
    rng = np.random.default_rng(31)
    for _ in range(200):
        knots = np.cumsum(rng.uniform(0.1, 5.0, size=int(rng.integers(2, 12))))
        rate = StepSchedule(knots, [rng.uniform(0.0, 3.0, knots.shape[0] - 1)])
        # windows from the whole grid to a slice inside one segment, edges on knots and off them
        pool = np.concatenate([knots, rng.uniform(knots[0], knots[-1], 4)])
        lo, hi = np.sort(rng.choice(pool, 2, replace=False))
        inner = knots[(knots > lo) & (knots < hi)]
        edges = np.concatenate([[lo], inner, [hi]])
        clipped = StepSchedule(edges, [segment_totals_by_value_at([rate], edges)])
        budget = int(rng.integers(0, 12))
        got = segment_offline_posts(rate, budget, lo, hi)
        assert got.tobytes() == segment_offline_posts(clipped, budget, lo, hi).tobytes()


def test_offline_plan_places_posts_like_the_loop():
    # budget 0, segments given no posts (zero rates, budgets below the
    # segment count) and windows cut inside the knots, bit for bit
    rng = np.random.default_rng(47)
    for trial in range(400):
        knots = np.cumsum(rng.uniform(0.1, 5.0, size=int(rng.integers(2, 12))))
        rates = rng.uniform(0.0, 3.0, knots.shape[0] - 1)
        rates[rng.random(rates.shape[0]) < 0.3] = 0.0
        rate = StepSchedule(knots, [rates])
        lo, hi = np.sort(rng.uniform(knots[0], knots[-1], 2)) if trial % 2 else (knots[0], knots[-1])
        budget = 0 if trial % 5 == 0 else int(rng.integers(1, 3 * knots.shape[0]))
        got = segment_offline_posts(rate, budget, lo, hi)
        want = segment_offline_posts_loop(rate, budget, lo, hi)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
