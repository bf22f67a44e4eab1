"""Feed primitives: decay law, jumps, thinning sampler, superposition."""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from reference import (
    IntensityState,
    apply_jump,
    constant_schedule,
    decay_intensity,
    dedupe_increasing_loop,
    sample_piecewise_poisson_loop,
    superpose,
    value_at,
)

from whentopost import kernels, point_process
from whentopost.cli import main
from whentopost.point_process import HawkesParams, sample_hawkes, sample_piecewise_poisson
from whentopost.scenarios import SinusoidScenarioConfig, _sinusoid_rate
from whentopost.significance import StepSchedule

PARAMS = HawkesParams(baseline=10.0, alpha=1.0, w=10.0)


def euler_decay(lam: float, lam0: float, w: float, dt: float, step: float = 1e-6) -> float:
    """Independent oracle: explicit Euler on lam' = w * (lam0 - lam)."""
    n = int(round(dt / step))
    # dt must be an exact multiple of step; keeps the oracle remainder-free
    assert abs(n * step - dt) < 1e-12
    for _ in range(n):
        lam = lam + step * w * (lam0 - lam)
    return lam


def test_decay_identity_at_zero_elapsed():
    state = IntensityState(12.0, 0.0)
    out = decay_intensity(state, PARAMS, 0.0)
    assert out.current == 12.0
    assert out.as_of == 0.0


def test_decay_reaches_baseline():
    state = IntensityState(12.0, 0.0)
    out = decay_intensity(state, PARAMS, 100.0)
    assert abs(out.current - 10.0) < 1e-12


def test_decay_frozen_point():
    # lam=12, lam0=10, w=10, dt=0.1 relaxes to 10 + 2/e
    state = IntensityState(12.0, 0.0)
    out = decay_intensity(state, PARAMS, 0.1)
    assert math.isclose(out.current, 10.0 + 2.0 * math.exp(-1.0), rel_tol=1e-12)


def test_decay_matches_euler_oracle():
    state = IntensityState(12.0, 0.0)
    got = decay_intensity(state, PARAMS, 0.1).current
    want = euler_decay(12.0, 10.0, 10.0, 0.1)
    assert math.isclose(got, want, rel_tol=1e-6)


def test_decay_rejects_backward_time():
    state = IntensityState(12.0, 5.0)
    with pytest.raises(ValueError):
        decay_intensity(state, PARAMS, 4.0)


def test_apply_jump_adds_alpha():
    state = IntensityState(10.0, 0.0)
    assert apply_jump(state, PARAMS).current == 11.0
    flat = HawkesParams(baseline=10.0, alpha=0.0, w=10.0)
    assert apply_jump(state, flat).current == 10.0
    assert apply_jump(state, PARAMS).as_of == 0.0


def test_initial_state_at_baseline_stays_there():
    state = IntensityState(PARAMS.baseline, 0.0)
    for t in (0.0, 0.3, 2.0, 50.0):
        assert decay_intensity(state, PARAMS, t).current == 10.0


def test_hawkes_params_validation():
    with pytest.raises(ValueError):
        HawkesParams(baseline=10.0, alpha=10.0, w=10.0)
    with pytest.raises(ValueError):
        HawkesParams(baseline=10.0, alpha=1.0, w=0.0)
    with pytest.raises(ValueError):
        HawkesParams(baseline=10.0, alpha=-1.0, w=10.0)
    with pytest.raises(ValueError):
        HawkesParams(baseline=-1.0, alpha=1.0, w=10.0)
    assert math.isclose(PARAMS.stationary_rate(), 10.0 / 0.9)


def test_sample_hawkes_poisson_reduction_count():
    params = HawkesParams(baseline=10.0, alpha=0.0, w=10.0)
    rng = np.random.default_rng(7)
    times = sample_hawkes(params, 0.0, 1000.0, rng)
    assert abs(len(times) - 10_000) <= 3 * math.sqrt(10_000)


def test_sample_hawkes_stationary_rate():
    # long-run mean rate lam0 / (1 - alpha/w) = 11.11..., averaged over seeds
    total = 0.0
    horizon = 100.0
    n_seeds = 10
    for seed in range(n_seeds):
        rng = np.random.default_rng(seed)
        total += len(sample_hawkes(PARAMS, 0.0, horizon, rng))
    rate = total / (horizon * n_seeds)
    expected = PARAMS.stationary_rate()
    assert abs(rate - expected) <= 0.05 * expected


def test_sample_hawkes_zero_baseline_never_ignites():
    params = HawkesParams(baseline=0.0, alpha=1.0, w=10.0)
    times = sample_hawkes(params, 0.0, 1000.0, np.random.default_rng(3))
    assert len(times) == 0


def test_sample_hawkes_deterministic_in_seed():
    a = sample_hawkes(PARAMS, 0.0, 50.0, np.random.default_rng(42))
    b = sample_hawkes(PARAMS, 0.0, 50.0, np.random.default_rng(42))
    c = sample_hawkes(PARAMS, 0.0, 50.0, np.random.default_rng(43))
    assert a.dtype == np.float64 and a.ndim == 1
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_hawkes_rejects_bad_horizon():
    with pytest.raises(ValueError):
        sample_hawkes(PARAMS, 5.0, 4.0, np.random.default_rng(0))
    empty = sample_hawkes(PARAMS, 5.0, 5.0, np.random.default_rng(0))
    assert len(empty) == 0


def test_sample_hawkes_events_inside_window_and_increasing():
    for seed in range(20):
        times = sample_hawkes(PARAMS, 2.0, 12.0, np.random.default_rng(seed))
        assert np.all(times > 2.0)
        assert np.all(times <= 12.0)
        assert np.all(np.diff(times) > 0)


def test_sample_piecewise_poisson_zero_rate_empty():
    rate = constant_schedule(0.0, 0.0, 100.0)
    times = sample_piecewise_poisson(rate, np.random.default_rng(1))
    assert len(times) == 0


def test_sample_piecewise_poisson_single_segment_count():
    rate = constant_schedule(5.0, 0.0, 200.0)
    times = sample_piecewise_poisson(rate, np.random.default_rng(5))
    assert abs(len(times) - 1000) <= 3 * math.sqrt(1000)


def test_sample_piecewise_poisson_two_segment_counts():
    rate = StepSchedule(np.array([0.0, 100.0, 200.0]), np.array([[2.0, 8.0]]))
    times = sample_piecewise_poisson(rate, np.random.default_rng(9))
    n1 = int(np.sum(times <= 100.0))
    n2 = len(times) - n1
    assert abs(n1 - 200) <= 3 * math.sqrt(200)
    assert abs(n2 - 800) <= 3 * math.sqrt(800)


def test_sample_piecewise_poisson_draws_inside_its_knots():
    rate = StepSchedule(np.array([50.0, 100.0, 150.0]), np.array([[2.0, 8.0]]))
    times = sample_piecewise_poisson(rate, np.random.default_rng(2))
    assert times.shape[0] > 0
    assert np.all(times >= 50.0)
    assert np.all(times <= 150.0)


def test_sample_piecewise_poisson_domain_error():
    with pytest.raises(ValueError, match="one-row table"):
        sample_piecewise_poisson(constant_schedule(5.0, 0.0, 10.0, rows=2), np.random.default_rng(0))


def test_sample_piecewise_poisson_deterministic():
    rate = StepSchedule(np.array([0.0, 10.0, 20.0]), np.array([[1.0, 4.0]]))
    a = sample_piecewise_poisson(rate, np.random.default_rng(8))
    b = sample_piecewise_poisson(rate, np.random.default_rng(8))
    assert a.dtype == np.float64 and a.ndim == 1
    assert np.array_equal(a, b)


def test_sample_piecewise_poisson_matches_the_segment_loop():
    # zero-rate segments, widths from 1e-2 to 3600 s, first knots below zero
    # and the sinusoid scenario's hourly tables (the last hour cut short on
    # some horizons), bit for bit, with the generator left where the loop
    # leaves it
    rng = np.random.default_rng(53)
    for trial in range(300):
        if trial % 3 == 0:
            horizon = float(rng.choice([3600.0, 5400.0, 43200.0, 86400.0 + rng.uniform(1.0, 3600.0)]))
            cfg = SinusoidScenarioConfig(seeds=(0,), q=1.0, followers=1, peak_per_hour=60.0, horizon=horizon)
            rate = _sinusoid_rate(cfg, rng.uniform(0.0, 24.0))
        else:
            n = int(rng.integers(1, 40))
            widths = 10.0 ** rng.uniform(-2.0, math.log10(3600.0), n)
            knots = rng.uniform(-5000.0, 5000.0) + np.concatenate([[0.0], np.cumsum(widths)])
            means = rng.uniform(0.0, 20.0, n)
            means[rng.random(n) < 0.3] = 0.0
            rate = StepSchedule(knots, [means / np.diff(knots)])
        seed = int(rng.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_piecewise_poisson(rate, got_rng)
        want = sample_piecewise_poisson_loop(rate, want_rng)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), trial
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, trial


class _Recorder:
    """A generator stand-in that records the means it draws counts for."""

    def __init__(self, seed):
        self.rng, self.means = np.random.default_rng(seed), []

    def poisson(self, mean):
        self.means.append(mean)
        return self.rng.poisson(mean)

    def random(self, count):
        return self.rng.random(count)


def test_zero_rate_segments_draw_nothing():
    hours = np.arange(8785) * 3600.0
    rng = np.random.default_rng(7)
    assert sample_piecewise_poisson(StepSchedule(hours, np.zeros((1, 8784))), rng).shape == (0,)
    assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state
    recorder = _Recorder(7)
    sample_piecewise_poisson(StepSchedule(hours, np.zeros((1, 8784))), recorder)
    assert recorder.means == []
    values = np.zeros(8784)
    values[[3, 4, 100]] = [0.001, 0.002, 0.003]
    sample_piecewise_poisson(StepSchedule(hours, [values]), recorder)
    assert recorder.means == [3.6, 7.2, 0.003 * 3600.0]


def test_superpose_identity_and_merge():
    s = np.array([1.0, 3.0])
    merged = superpose([np.empty(0), s])
    assert np.array_equal(merged, s)
    both = superpose([s, np.array([2.0])])
    assert np.array_equal(both, [1.0, 2.0, 3.0])


def test_superpose_preserves_lengths():
    rng = np.random.default_rng(4)
    streams = [
        np.sort(rng.uniform(0, 100, size=rng.integers(0, 40)))
        for _ in range(6)
    ]
    merged = superpose(streams)
    assert len(merged) == sum(len(s) for s in streams)
    assert np.all(np.diff(merged) > 0)


def test_superpose_tie_nudged_with_warning():
    a = np.array([1.0, 2.0])
    b = np.array([2.0])
    with pytest.warns(UserWarning):
        merged = superpose([a, b])
    assert len(merged) == 3
    assert np.all(np.diff(merged) > 0)
    assert merged[2] == np.nextafter(2.0, math.inf)


def test_dedupe_increasing_returns_a_copy_and_nudges_only_ties():
    from whentopost.point_process import _dedupe_increasing

    up = np.nextafter(1.0, 2.0)
    for times, want, nudged in (
        ([], [], 0),
        ([3.0], [3.0], 0),
        ([1.0, 2.0, 5.0], [1.0, 2.0, 5.0], 0),
        ([1.0, 1.0, 1.0, 4.0], [1.0, up, np.nextafter(up, 2.0), 4.0], 2),
        ([-0.0, 0.0], [-0.0, 5e-324], 1),
    ):
        times = np.asarray(times, dtype=np.float64)
        fixed, count = _dedupe_increasing(times)
        assert count == nudged
        assert fixed.tobytes() == np.asarray(want, dtype=np.float64).tobytes()
        assert not np.shares_memory(fixed, times)


def test_dedupe_increasing_walks_ties_as_one_step_per_entry_does():
    from whentopost.point_process import _dedupe_increasing

    def ulps(x, n):
        for _ in range(n):
            x = np.nextafter(x, math.inf)
        return x

    cases = [
        [5.0] * 50,  # one run of equal values
        [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0],  # several runs
        [1.0, 1.0, 1.0, ulps(1.0, 1), ulps(1.0, 2), ulps(1.0, 4), 2.0],  # the nudges cascade into neighbours
        [7.0, 7.0, 8.0, 9.0],  # a tie at the start
        [6.0, 7.0, 8.0, 9.0, 9.0],  # a tie at the end
        [7.0, 7.0, 8.0, ulps(8.0, 1), 9.0, 9.0],  # a tie at each end and a cascade between
        [-0.0, 0.0, 0.0, 5e-324],  # signed zeros and the smallest subnormal
        [1.0, ulps(1.0, 1), ulps(1.0, 1), ulps(1.0, 2), ulps(1.0, 3), ulps(1.0, 3)],
    ]
    rng = np.random.default_rng(31)
    for _ in range(200):  # few distinct values, each a few ulps from the next
        base = np.array([ulps(10.0, int(k)) for k in np.cumsum(rng.integers(0, 4, 40))])
        cases.append(np.sort(base))
    for times in cases:
        times = np.asarray(times, dtype=np.float64)
        fixed, count = _dedupe_increasing(times)
        want, want_count = dedupe_increasing_loop(times)
        assert count == want_count
        assert fixed.tobytes() == want.tobytes(), times
        assert np.all(np.diff(fixed) > 0)


def test_superpose_of_poisson_streams_has_summed_rate():
    # five independent Poisson(2) feeds superpose to Poisson(10)
    rng = np.random.default_rng(12)
    horizon = 200.0
    streams = [
        sample_piecewise_poisson(constant_schedule(2.0, 0.0, horizon), rng)
        for _ in range(5)
    ]
    merged = superpose(streams)
    assert abs(len(merged) - 2000) <= 3 * math.sqrt(2000)


def test_piecewise_rate_lookup_and_domain():
    rate = StepSchedule(np.array([0.0, 1.0, 3.0]), np.array([[5.0, 7.0]]))
    assert value_at(rate, 0.0) == 5.0
    assert value_at(rate, 0.999) == 5.0
    assert value_at(rate, 1.0) == 7.0
    assert value_at(rate, 3.0) == 7.0
    with pytest.raises(ValueError):
        value_at(rate, -0.1)
    with pytest.raises(ValueError):
        value_at(rate, 3.1)
    with pytest.raises(ValueError):
        StepSchedule(np.array([0.0, 1.0]), np.array([[-2.0]]))
    with pytest.raises(ValueError):
        StepSchedule(np.array([1.0, 0.0]), np.array([[2.0]]))


def test_the_event_cap_leaves_stable_samples_unchanged(monkeypatch):
    for seed in range(3):
        times = sample_hawkes(PARAMS, 0.0, 200.0, np.random.default_rng(seed))
        # the kernel with no cap, as sample_hawkes called it before the cap
        # (the buffer size hint, 16 here, does not change the draws)
        uncapped = kernels.IMPLEMENTATIONS["sample_hawkes_times"]["fallback"](
            0.0, 200.0, 10.0, 1.0, 10.0, np.random.default_rng(seed), 16
        )
        assert times.tobytes() == uncapped.tobytes()
        n = len(times)
        monkeypatch.setattr(point_process, "MAX_HAWKES_EVENTS", n)  # exactly full: still drawn
        assert sample_hawkes(PARAMS, 0.0, 200.0, np.random.default_rng(seed)).tobytes() == uncapped.tobytes()
        monkeypatch.setattr(point_process, "MAX_HAWKES_EVENTS", n - 1)
        with pytest.raises(ValueError, match=f"MAX_HAWKES_EVENTS = {n - 1} events"):
            sample_hawkes(PARAMS, 0.0, 200.0, np.random.default_rng(seed))
        monkeypatch.undo()


def test_the_event_cap_fails_a_command_with_the_json_error(tmp_path, monkeypatch):
    monkeypatch.setattr(point_process, "MAX_HAWKES_EVENTS", 100)
    result = CliRunner().invoke(main, [
        "simulate", "--scenario", "one-follower-hawkes", "--q", "1", "--seeds", "0",
        "--feed-events", "1000", "--out", str(tmp_path / "r.csv"),
    ])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    error = json.loads(result.stderr)
    assert error["error"] == "ValueError"
    assert "MAX_HAWKES_EVENTS = 100 events" in error["message"]
    assert not (tmp_path / "r.csv").exists()
