"""Baseline posting policies: uniform Poisson, playback, offline planner."""

import itertools
import math

import numpy as np
import pytest
from reference import segment_cost_model

from whentopost.control_baselines import (
    segment_offline_posts,
    true_posts_playback,
    uniform_poisson_posts,
)
from whentopost.point_process import EventStream, PiecewiseRate


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
    recorded = EventStream.from_times([1.0, 5.0, 9.0], "me")
    assert np.array_equal(true_posts_playback(recorded), [1.0, 5.0, 9.0])
    assert true_posts_playback(EventStream.empty()).shape == (0,)


def test_playback_returns_a_copy():
    recorded = EventStream.from_times([1.0, 5.0])
    out = true_posts_playback(recorded)
    out[0] = -1.0
    assert recorded.times[0] == 1.0


def flat_rates(n_followers, rate, knots):
    return [PiecewiseRate(knots, np.full(len(knots) - 1, rate)) for _ in range(n_followers)]


def test_offline_zero_budget_is_empty():
    rates = flat_rates(1, 2.0, np.array([0.0, 10.0]))
    assert segment_offline_posts(rates, 0, 0.0, 10.0).shape == (0,)


def test_offline_equal_rates_spread_evenly():
    # four identical segments, four posts: one per segment at its start
    knots = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
    rates = flat_rates(2, 3.0, knots)
    posts = segment_offline_posts(rates, 4, 0.0, 40.0)
    assert np.array_equal(posts, [0.0, 10.0, 20.0, 30.0])
    # eight posts: two per segment, evenly spaced inside
    posts = segment_offline_posts(rates, 8, 0.0, 40.0)
    assert np.array_equal(posts, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0])


def test_offline_single_post_lands_on_enumerated_argmin():
    # one post: the greedy pick must match trying every segment
    rng = np.random.default_rng(3)
    knots = np.array([0.0, 5.0, 15.0, 20.0, 32.0])
    lengths = np.diff(knots)
    for _ in range(25):
        seg_rates = rng.uniform(0.1, 10.0, size=4)
        rates = [PiecewiseRate(knots, seg_rates)]
        posts = segment_offline_posts(rates, 1, 0.0, 32.0)
        assert len(posts) == 1
        costs = [
            segment_cost_model(seg_rates, lengths, np.eye(4, dtype=int)[k])
            for k in range(4)
        ]
        best = int(np.argmin(costs))
        assert posts[0] == knots[best]


def test_offline_dominant_segment_attracts_single_post():
    knots = np.array([0.0, 10.0, 20.0, 30.0])
    rates = [PiecewiseRate(knots, np.array([1.0, 100.0, 1.0]))]
    posts = segment_offline_posts(rates, 1, 0.0, 30.0)
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
        posts = segment_offline_posts([PiecewiseRate(knots, seg_rates)], budget, 0.0, 17.0)
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
    a = segment_offline_posts([PiecewiseRate(knots, seg_rates)], 5, 0.0, 20.0)
    b = segment_offline_posts([PiecewiseRate(knots, seg_rates * 37.0)], 5, 0.0, 20.0)
    assert np.array_equal(a, b)


def test_offline_sums_rates_across_followers():
    # follower weight moves the post toward the busier joint segment
    knots = np.array([0.0, 10.0, 20.0])
    rates = [
        PiecewiseRate(knots, np.array([3.0, 2.0])),
        PiecewiseRate(knots, np.array([0.5, 4.0])),
    ]
    posts = segment_offline_posts(rates, 1, 0.0, 20.0)
    assert np.array_equal(posts, [10.0])  # 2 + 4 > 3 + 0.5


def test_offline_clips_grid_to_window():
    knots = np.array([0.0, 10.0, 20.0, 30.0])
    rates = [PiecewiseRate(knots, np.array([1.0, 1.0, 1.0]))]
    posts = segment_offline_posts(rates, 2, 5.0, 25.0)
    assert np.all(posts >= 5.0)
    assert np.all(posts < 25.0)


def test_offline_validation():
    knots = np.array([0.0, 10.0])
    with pytest.raises(ValueError):
        segment_offline_posts([], 1, 0.0, 10.0)
    with pytest.raises(ValueError):
        segment_offline_posts(flat_rates(1, 1.0, knots), -1, 0.0, 10.0)
    with pytest.raises(ValueError):
        segment_offline_posts(flat_rates(1, 1.0, knots), 1, 0.0, 20.0)
    mixed = [
        PiecewiseRate(np.array([0.0, 10.0]), np.array([1.0])),
        PiecewiseRate(np.array([0.0, 5.0, 10.0]), np.array([1.0, 1.0])),
    ]
    with pytest.raises(ValueError):
        segment_offline_posts(mixed, 1, 0.0, 10.0)
