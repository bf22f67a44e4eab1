"""Online controller: intensity formula, clock sampler, q tuning."""

import math
import sys

import numpy as np
import pytest
from reference import (
    PolicyDecision,
    RedQueenController,
    constant_schedule,
    next_post_time,
    optimal_intensity,
    simulate,
    value_at,
)
from scipy import stats

from whentopost import control_online
from whentopost.control_online import run_redqueen_fast, tune_q
from whentopost.feed_sim import Feeds
from whentopost.significance import StepSchedule


def test_optimal_intensity_zero_rank_is_silent():
    assert optimal_intensity([0], 1.0) == 0.0
    assert optimal_intensity([0, 0, 0], 0.5) == 0.0


def test_optimal_intensity_single_follower():
    assert optimal_intensity([3], 1.0) == 3.0
    assert optimal_intensity([3], 4.0) == 1.5


def test_optimal_intensity_weighted_sum():
    sched = StepSchedule(np.array([0.0, 1.0]), np.array([[1.0], [4.0]]))
    assert optimal_intensity([2, 1], 1.0, sched) == 4.0


def test_optimal_intensity_time_varying_weight():
    sched = StepSchedule(np.array([0.0, 1.0, 2.0]), np.array([[1.0, 0.0]]))
    assert optimal_intensity([2], 1.0, sched, t=0.5) == 2.0
    assert optimal_intensity([2], 1.0, sched, t=1.5) == 0.0


def test_params_validation():
    feeds = Feeds(np.array([20.0]), np.array([0, 1]), 0.0, 100.0)
    for q in (0.0, -1.0, math.inf, math.nan, 5e-324, 1e-310):  # a subnormal q overflows sqrt(1 / q)
        with pytest.raises(ValueError, match="q must be positive and finite, at least 2.2250738585072014e-308"):
            run_redqueen_fast(feeds, q, np.random.default_rng(0))
    assert run_redqueen_fast(feeds, sys.float_info.min, np.random.default_rng(0)).shape == (1,)
    with pytest.raises(ValueError, match="wrong follower count"):
        run_redqueen_fast(feeds, 1.0, np.random.default_rng(0), constant_schedule(1.0, 0.0, 100.0, rows=2))


def test_a_significance_schedule_must_cover_the_feeds_window():
    # a 3-event feed on (0, 100]: knots ending at 10 made the kernel index
    # past its columns, and knots starting at 50 applied the first column
    # to (0, 50] without a word; a wider table is refused too, since every
    # command builds its table on exactly the window
    feeds = Feeds(np.array([20.0, 60.0, 90.0]), np.array([0, 3]), 0.0, 100.0)
    for knots in ([0.0, 10.0], [50.0, 100.0], [-5.0, 200.0]):
        sched = StepSchedule(np.array(knots), np.ones((1, 1)))
        with pytest.raises(ValueError, match=r"does not span the window \(0.0, 100.0\]"):
            run_redqueen_fast(feeds, 1.0, np.random.default_rng(0), sched)
    run_redqueen_fast(feeds, 1.0, np.random.default_rng(0), StepSchedule(np.array([0.0, 100.0]), np.ones((1, 1))))


def test_step_schedule_validation():
    with pytest.raises(ValueError):
        StepSchedule(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        StepSchedule(np.array([1.0, 0.0]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        StepSchedule(np.array([0.0, 1.0]), np.array([[-1.0]]))
    sched = constant_schedule(2.0, 0.0, 5.0, rows=3)
    assert sched.values.shape[0] == 3
    assert value_at(sched, 2.5, row=1) == 2.0


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_a_nan_or_negative_rate_or_weight_fails_when_its_table_is_built(bad):
    # a sampler's feed rate, the planner's summed rate, the controller's
    # weights per follower: one table type, refused before any reader sees it
    knots = np.array([0.0, 1.0, 2.0, 3.0])
    for values in ([[1.0, bad, 5.0]], [[bad, 2.0, 0.0]], [[1.0, 0.0, 1.0], [0.5, 1.0, bad]]):
        with pytest.raises(ValueError, match="values must be nonnegative"):
            StepSchedule(knots, values)
    with pytest.raises(ValueError, match="strictly increasing"):
        StepSchedule(np.array([0.0, math.nan, 3.0]), [[1.0, 1.0]])
    with pytest.raises(ValueError, match="at least two"):
        StepSchedule(np.array([0.0]), np.empty((1, 0)))


def test_next_post_time_keeps_silence_with_no_rank():
    # rank 0 and an empty feed spawn no clocks: never posts
    dec = next_post_time(np.empty(0), 1.0, np.random.default_rng(0), 0.0, 100.0)
    assert dec.post_time == math.inf


def test_next_post_time_initial_rank_posts():
    dec = next_post_time(np.empty(0), 1.0, np.random.default_rng(1), 0.0, 1e9, initial_ranks=[1])
    assert math.isfinite(dec.post_time)
    assert dec.post_time == dec.clock_origin + dec.clock_delta
    assert dec.ranks == (1,)


def test_next_post_time_deterministic():
    feed = np.array([1.0, 2.0, 3.0, 4.0])
    a = next_post_time(feed, 0.5, np.random.default_rng(7), 0.0, 10.0)
    b = next_post_time(feed, 0.5, np.random.default_rng(7), 0.0, 10.0)
    assert a == b


def test_next_post_time_rejects_events_outside_window():
    feed = np.array([20.0])
    with pytest.raises(ValueError):
        next_post_time(feed, 1.0, np.random.default_rng(0), 0.0, 10.0)


def test_first_post_is_exponential_for_constant_rank():
    # frozen rank 1, s=1, q=1: the clock is a unit exponential
    draws = []
    for seed in range(2000):
        dec = next_post_time(np.empty(0), 1.0, np.random.default_rng(seed),
                             0.0, 1e9, initial_ranks=[1])
        draws.append(dec.post_time)
    result = stats.kstest(draws, "expon")
    assert result.pvalue > 0.01


def test_scale_invariance_of_significance_and_price():
    # u* depends on s/q only: scaling both leaves every draw's use identical
    feed = np.asarray(np.linspace(0.5, 9.5, 19))
    for c in (0.25, 4.0):
        base = constant_schedule(1.0, 0.0, 10.0)
        scaled = constant_schedule(c, 0.0, 10.0)
        a = next_post_time(feed, 2.0, np.random.default_rng(3), 0.0, 10.0, significance=base)
        b = next_post_time(feed, 2.0 * c, np.random.default_rng(3), 0.0, 10.0, significance=scaled)
        assert a.post_time == b.post_time


def test_controller_matches_fast_path_exactly():
    # same seed, same draws: the event-driven class and the compiled loop
    # must emit identical posts
    rng_feed = np.random.default_rng(11)
    feeds = [
        np.sort(rng_feed.uniform(0, 40, size=90)),
        np.sort(rng_feed.uniform(0, 40, size=50)),
    ]
    ranks0 = np.array([2, 0])
    slow = simulate(feeds, RedQueenController(0.7, np.random.default_rng(5)),
                    0.0, 40.0, initial_ranks=ranks0)
    fast = run_redqueen_fast(Feeds.cut(feeds, 0.0, 40.0, ranks0), 0.7, np.random.default_rng(5))
    assert np.array_equal(slow.own_posts, fast)
    assert len(fast) > 0


def test_controller_matches_fast_path_with_significance():
    sched = StepSchedule(np.array([0.0, 10.0, 20.0, 30.0]),
                         np.array([[1.0, 0.0, 0.5], [0.2, 1.0, 0.0]]))
    rng_feed = np.random.default_rng(13)
    feeds = [
        np.sort(rng_feed.uniform(0, 30, size=70)),
        np.sort(rng_feed.uniform(0, 30, size=40)),
    ]
    slow = simulate(feeds, RedQueenController(0.3, np.random.default_rng(9), sched), 0.0, 30.0)
    fast = run_redqueen_fast(Feeds.cut(feeds, 0.0, 30.0), 0.3, np.random.default_rng(9), sched)
    assert np.array_equal(slow.own_posts, fast)


def test_zero_significance_segments_get_zero_posts():
    # hard-zero weight forces u* = 0: no clock can tick inside the gap,
    # but mass beyond the gap stays reachable
    sched = StepSchedule(np.array([0.0, 5.0, 10.0, 15.0]), np.array([[1.0, 0.0, 1.0]]))
    landed_after_gap = 0
    for seed in range(200):
        posts = run_redqueen_fast(Feeds(np.empty(0), [0, 0], 0.0, 15.0, [3]), 100.0,
                                  np.random.default_rng(seed), sched, max_posts=1)
        for p in posts:
            assert not (5.0 <= p < 10.0)
            if p >= 10.0:
                landed_after_gap += 1
    assert landed_after_gap > 0


def test_posting_resets_clocks():
    # with no feed events after the reset, rank stays 0: exactly one post
    for seed in range(50):
        posts = run_redqueen_fast(Feeds(np.empty(0), [0, 0], 0.0, 1e9, [4]), 0.5, np.random.default_rng(seed))
        assert len(posts) == 1


def test_recorded_decisions_are_consistent():
    rng_feed = np.random.default_rng(17)
    feeds = [np.sort(rng_feed.uniform(0, 30, size=80))]
    ctl = RedQueenController(0.4, np.random.default_rng(2), record=True)
    traj = simulate(feeds, ctl, 0.0, 30.0)
    assert len(ctl.decisions) == traj.post_count > 0
    for dec, t_post in zip(ctl.decisions, traj.own_posts):
        assert isinstance(dec, PolicyDecision)
        assert dec.post_time == t_post
        assert dec.clock_origin <= dec.post_time
        assert math.isclose(dec.clock_origin + dec.clock_delta, dec.post_time)
        assert sum(dec.ranks) > 0  # a clock only exists above rank 0


def test_more_rank_means_faster_posting():
    # mean first-post time scales like 1/r for constant significance
    means = []
    for r in (1, 4):
        ts = [
            next_post_time(np.empty(0), 1.0, np.random.default_rng(seed),
                           0.0, 1e9, initial_ranks=[r]).post_time
            for seed in range(1500)
        ]
        means.append(np.mean(ts))
    assert abs(means[0] - 1.0) < 0.1
    assert abs(means[1] - 0.25) < 0.03


def mean_posts_over_seeds(q, feeds_by_seed):
    total = 0
    for seed, feeds in feeds_by_seed.items():
        posts = run_redqueen_fast(feeds, q, np.random.default_rng(seed))
        total += len(posts)
    return total / len(feeds_by_seed)


def test_post_count_nonincreasing_in_q():
    rng_feed = np.random.default_rng(23)
    feeds_by_seed = {
        seed: Feeds.cut([np.sort(rng_feed.uniform(0, 60, size=200))], 0.0, 60.0)
        for seed in range(10)
    }
    for q in (0.05, 0.2, 1.0, 5.0):
        low = mean_posts_over_seeds(q, feeds_by_seed)
        high = mean_posts_over_seeds(4.0 * q, feeds_by_seed)
        assert low >= high


def test_tune_q_converges_on_analytic_curve():
    result = tune_q(10.0, lambda q: 100.0 / math.sqrt(q))
    assert result.converged
    assert abs(result.mean_posts - 10.0) <= 1.0
    assert result.iterations <= 60
    # the analytic solution is q = 100
    assert 60.0 < result.q < 170.0


def test_tune_q_already_at_target():
    result = tune_q(100.0, lambda q: 100.0 / math.sqrt(q))
    assert result.converged
    assert result.iterations == 1


def test_tune_q_unreachable_low_target():
    # posts never fall below 0.5 no matter how large q gets
    result = tune_q(0.001, lambda q: max(0.5, 100.0 / math.sqrt(q)))
    assert not result.converged
    assert "q_max" in result.message


def test_tune_q_unreachable_high_target():
    # posts saturate at 5 no matter how small q gets
    result = tune_q(50.0, lambda q: min(5.0, 100.0 / (1.0 + math.sqrt(q))))
    assert not result.converged
    assert "q_min" in result.message


def test_tune_q_on_simulated_posts():
    rng_feed = np.random.default_rng(29)
    feeds_by_seed = {
        seed: Feeds.cut([np.sort(rng_feed.uniform(0, 60, size=200))], 0.0, 60.0)
        for seed in range(8)
    }
    target = 25.0
    result = tune_q(target, lambda q: mean_posts_over_seeds(q, feeds_by_seed))
    assert result.converged
    assert abs(result.mean_posts - target) <= 0.1 * target


def test_tune_q_rejects_bad_target():
    with pytest.raises(ValueError):
        tune_q(0.0, lambda q: 1.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -0.1])
def test_tune_q_rejects_bad_tolerance_before_any_evaluation(tolerance):
    def never(q):
        raise AssertionError("evaluated")

    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        tune_q(5.0, never, tolerance=tolerance)


# ---------------------------------------------------------------------------
# tune_q decided by lower bounds: the same result as from exact means
# ---------------------------------------------------------------------------


def tune_with_and_without_bounds(target, mean_posts_fn, lower_bound_fn):
    """``tune_q`` with and without ``lower_bound_fn``, which must agree; the result and exact calls."""
    exact_calls = []

    def counted(q):
        exact_calls.append(q)
        return mean_posts_fn(q)

    want = tune_q(target, mean_posts_fn)
    got = tune_q(target, counted, lower_bound_fn=lower_bound_fn)
    assert got == want
    return got, exact_calls


def capped_curve(curve, target, tolerance=0.1):
    """``curve`` read through a cap one above ``target * (1 + tolerance)``, as one capped seed would."""
    cap = math.floor(target * (1 + tolerance)) + 1
    return lambda q: min(curve(q), cap)


def step_curve(high, low, edge=256.0):
    return lambda q: high if q <= edge else low


ANALYTIC_TUNES = {
    # name: (target, curve, MAX_ITER or None for the default, converged, message part,
    #        the result's exact (q, iterations, mean_posts), pinned so a search that
    #        moves a step fails here)
    "first evaluation": (100.0, lambda q: 100.0 / math.sqrt(q), None, True, "", (1.0, 1, 100.0)),
    "after upward bracketing": (10.0, lambda q: 100.0 / math.sqrt(q), None, True, "",
                                (90.50966799187809, 7, 10.511205190671433)),
    "within upward bracketing": (12.5, lambda q: 100.0 / math.sqrt(q), None, True, "", (64.0, 4, 12.5)),
    "after downward bracketing": (300.0, lambda q: 100.0 / math.sqrt(q), None, True, "",
                                  (0.125, 4, 282.84271247461896)),
    # down to q = 4**-4, then two bisection steps between 4**-4 and 4**-3
    "bisected after downward bracketing": (1000.0, lambda q: 100.0 / math.sqrt(q), None, True, "",
                                           (0.011048543456039806, 7, 951.3656920021767)),
    # every count is capped to 1, and the reported c_lo is the exact 5
    "unreachable at q_max": (0.001, lambda q: max(5.0, 100.0 / math.sqrt(q)), None, False, "q_max",
                             (4.0**24, 25, 5.0)),
    "unreachable at q_min": (50.0, lambda q: min(5.0, 100.0 / (1.0 + math.sqrt(q))), None, False, "q_min",
                             (4.0**-19, 20, 5.0)),
    # never within tolerance: 13 (capped to 12) below the edge, 1 above it;
    # the closest is the first exact 13
    "out of max_iter": (10.0, step_curve(13.0, 1.0), 30, False, "max_iter", (1.0, 30, 13.0)),
    # a capped 12 would win against every exact 100 and 1; the closest is 1
    "out of max_iter, capped closer": (10.0, step_curve(100.0, 1.0), 30, False, "max_iter", (1024.0, 30, 1.0)),
    # bracketing does not stop at MAX_ITER: the search returns right after it
    "out of max_iter before bisecting": (10.0, step_curve(100.0, 1.0), 3, False, "max_iter", (1024.0, 6, 1.0)),
}


@pytest.mark.parametrize("case", ANALYTIC_TUNES)
def test_tune_q_with_lower_bounds_matches_exact_means_on_analytic_curves(case, monkeypatch):
    target, curve, max_iter, converged, message, pinned = ANALYTIC_TUNES[case]
    if max_iter is not None:
        monkeypatch.setattr(control_online, "MAX_ITER", max_iter)
    result, exact_calls = tune_with_and_without_bounds(target, curve, capped_curve(curve, target))
    assert result.converged is converged and message in result.message
    assert (result.q, result.iterations, result.mean_posts) == pinned
    if case == "first evaluation":
        assert result.iterations == 1
    if case == "unreachable at q_max":  # every price decided by its bound, c_lo made exact
        assert exact_calls == [result.q] and result.mean_posts == 5.0
    if case.startswith("out of max_iter"):
        assert result.mean_posts == (13.0 if case == "out of max_iter" else 1.0)
    if "bracketing" in case or case == "unreachable at q_max":
        assert len(exact_calls) < result.iterations  # the bounds decided some evaluations


def test_tune_q_discards_bounds_that_decide_nothing():
    curve = lambda q: 100.0 / math.sqrt(q)  # noqa: E731
    for bound in (lambda q: 0.0, lambda q: 10.5, curve):  # below, inside the band, exact
        result, exact_calls = tune_with_and_without_bounds(10.0, curve, bound)
        assert result.converged
    assert len(exact_calls) < result.iterations  # an exact bound above the band decides


def simulated_curves(feeds_by_seed, target, tolerance=0.1):
    """The exact mean post count over the seeds, and the mean of counts capped as ``scenarios`` caps them."""
    cap = math.floor(len(feeds_by_seed) * target * (1 + tolerance)) + 1

    def capped(q):
        total = 0
        for seed, feeds in feeds_by_seed.items():
            posts = run_redqueen_fast(feeds, q, np.random.default_rng(seed), max_posts=cap)
            total += min(len(posts), cap)
        return total / len(feeds_by_seed)

    return lambda q: mean_posts_over_seeds(q, feeds_by_seed), capped


def test_tune_q_with_lower_bounds_matches_exact_means_on_simulated_posts(monkeypatch):
    rng_feed = np.random.default_rng(29)
    feeds_by_seed = {
        seed: Feeds.cut([np.sort(rng_feed.uniform(0, 60, size=200))], 0.0, 60.0)
        for seed in range(4)
    }
    at_q0 = mean_posts_over_seeds(1.0, feeds_by_seed)
    cases = {
        "first evaluation": (at_q0, None, "", True),
        "upward bracketing": (at_q0 / 8.0, None, "", True),
        "downward bracketing": (at_q0 * 1.5, None, "", True),
        "unreachable at q_min": (1000.0, None, "q_min", False),
        # means move in steps of 1/4: none within 1e-4 of 0.001
        "out of max_iter": (0.001, 25, "max_iter", False),
    }
    for name, (target, max_iter, message, converged) in cases.items():
        if max_iter is not None:
            monkeypatch.setattr(control_online, "MAX_ITER", max_iter)
        exact, capped = simulated_curves(feeds_by_seed, target)
        result, exact_calls = tune_with_and_without_bounds(target, exact, capped)
        assert result.converged is converged and message in result.message, name
        if name == "first evaluation":
            assert result.iterations == 1
        if name == "upward bracketing":
            assert len(exact_calls) < result.iterations
