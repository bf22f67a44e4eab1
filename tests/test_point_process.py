"""Feed primitives: decay law, jumps, thinning sampler, superposition."""

import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from whentopost import kernels, point_process
from whentopost.cli import main
from whentopost.point_process import (
    EventStream,
    HawkesParams,
    IntensityState,
    PiecewiseRate,
    apply_jump,
    decay_intensity,
    sample_hawkes,
    sample_piecewise_poisson,
    superpose,
)

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


def test_decay_tracks_piecewise_baseline_steps():
    # baseline jumps 10 -> 4 at t=1; the excitation decays, the baseline re-reads
    base = PiecewiseRate(np.array([0.0, 1.0, 2.0]), np.array([10.0, 4.0]))
    params = HawkesParams(baseline=base, alpha=1.0, w=10.0)
    state = IntensityState(12.0, 0.5)
    out = decay_intensity(state, params, 1.5)
    assert math.isclose(out.current, 4.0 + 2.0 * math.exp(-10.0), rel_tol=1e-12)


def test_apply_jump_adds_alpha():
    state = IntensityState(10.0, 0.0)
    assert apply_jump(state, PARAMS).current == 11.0
    flat = HawkesParams(baseline=10.0, alpha=0.0, w=10.0)
    assert apply_jump(state, flat).current == 10.0
    assert apply_jump(state, PARAMS).as_of == 0.0


def test_initial_state_at_baseline_stays_there():
    state = IntensityState(PARAMS.baseline_at(0.0), 0.0)
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
    unstable = HawkesParams(baseline=10.0, alpha=10.0, w=10.0, allow_unstable=True)
    assert unstable.alpha == unstable.w
    assert math.isclose(PARAMS.stationary_rate(), 10.0 / 0.9)


def test_sample_hawkes_poisson_reduction_count():
    params = HawkesParams(baseline=10.0, alpha=0.0, w=10.0)
    rng = np.random.default_rng(7)
    stream = sample_hawkes(params, 0.0, 1000.0, rng)
    assert abs(len(stream) - 10_000) <= 3 * math.sqrt(10_000)


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
    stream = sample_hawkes(params, 0.0, 1000.0, np.random.default_rng(3))
    assert len(stream) == 0


def test_sample_hawkes_deterministic_in_seed():
    a = sample_hawkes(PARAMS, 0.0, 50.0, np.random.default_rng(42))
    b = sample_hawkes(PARAMS, 0.0, 50.0, np.random.default_rng(42))
    c = sample_hawkes(PARAMS, 0.0, 50.0, np.random.default_rng(43))
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.times, c.times)


def test_sample_hawkes_rejects_bad_horizon():
    with pytest.raises(ValueError):
        sample_hawkes(PARAMS, 5.0, 4.0, np.random.default_rng(0))
    empty = sample_hawkes(PARAMS, 5.0, 5.0, np.random.default_rng(0))
    assert len(empty) == 0


def test_sample_hawkes_events_inside_window_and_increasing():
    for seed in range(20):
        stream = sample_hawkes(PARAMS, 2.0, 12.0, np.random.default_rng(seed))
        assert np.all(stream.times > 2.0)
        assert np.all(stream.times <= 12.0)
        assert np.all(np.diff(stream.times) > 0)


def test_sample_hawkes_piecewise_baseline_counts():
    # two-level baseline with no excitation: per-segment Poisson counts
    base = PiecewiseRate(np.array([0.0, 100.0, 200.0]), np.array([3.0, 9.0]))
    params = HawkesParams(baseline=base, alpha=0.0, w=10.0)
    stream = sample_hawkes(params, 0.0, 200.0, np.random.default_rng(11))
    n1 = int(np.sum(stream.times <= 100.0))
    n2 = len(stream) - n1
    assert abs(n1 - 300) <= 3 * math.sqrt(300)
    assert abs(n2 - 900) <= 3 * math.sqrt(900)


def test_sample_piecewise_poisson_zero_rate_empty():
    rate = PiecewiseRate.constant(0.0, 0.0, 100.0)
    stream = sample_piecewise_poisson(rate, 0.0, 100.0, np.random.default_rng(1))
    assert len(stream) == 0


def test_sample_piecewise_poisson_single_segment_count():
    rate = PiecewiseRate.constant(5.0, 0.0, 200.0)
    stream = sample_piecewise_poisson(rate, 0.0, 200.0, np.random.default_rng(5))
    assert abs(len(stream) - 1000) <= 3 * math.sqrt(1000)


def test_sample_piecewise_poisson_two_segment_counts():
    rate = PiecewiseRate(np.array([0.0, 100.0, 200.0]), np.array([2.0, 8.0]))
    stream = sample_piecewise_poisson(rate, 0.0, 200.0, np.random.default_rng(9))
    n1 = int(np.sum(stream.times <= 100.0))
    n2 = len(stream) - n1
    assert abs(n1 - 200) <= 3 * math.sqrt(200)
    assert abs(n2 - 800) <= 3 * math.sqrt(800)


def test_sample_piecewise_poisson_respects_subwindow():
    rate = PiecewiseRate(np.array([0.0, 100.0, 200.0]), np.array([2.0, 8.0]))
    stream = sample_piecewise_poisson(rate, 50.0, 150.0, np.random.default_rng(2))
    assert np.all(stream.times > 50.0)
    assert np.all(stream.times <= 150.0)


def test_sample_piecewise_poisson_domain_error():
    rate = PiecewiseRate.constant(5.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        sample_piecewise_poisson(rate, 0.0, 20.0, np.random.default_rng(0))


def test_sample_piecewise_poisson_deterministic():
    rate = PiecewiseRate(np.array([0.0, 10.0, 20.0]), np.array([1.0, 4.0]))
    a = sample_piecewise_poisson(rate, 0.0, 20.0, np.random.default_rng(8))
    b = sample_piecewise_poisson(rate, 0.0, 20.0, np.random.default_rng(8))
    assert np.array_equal(a.times, b.times)


def test_superpose_identity_and_merge():
    s = EventStream.from_times([1.0, 3.0], "a")
    merged = superpose([EventStream.empty(), s])
    assert np.array_equal(merged.times, s.times)
    both = superpose([s, EventStream.from_times([2.0], "b")])
    assert np.array_equal(both.times, [1.0, 2.0, 3.0])
    assert list(both.sources) == ["a", "b", "a"]


def test_superpose_preserves_lengths():
    rng = np.random.default_rng(4)
    streams = [
        EventStream.from_times(np.sort(rng.uniform(0, 100, size=rng.integers(0, 40))), str(i))
        for i in range(6)
    ]
    merged = superpose(streams)
    assert len(merged) == sum(len(s) for s in streams)
    assert np.all(np.diff(merged.times) > 0)


def test_superpose_tie_nudged_with_warning():
    a = EventStream.from_times([1.0, 2.0], "a")
    b = EventStream.from_times([2.0], "b")
    with pytest.warns(UserWarning):
        merged = superpose([a, b])
    assert len(merged) == 3
    assert np.all(np.diff(merged.times) > 0)
    assert merged.times[2] == np.nextafter(2.0, math.inf)


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


def test_superpose_of_poisson_streams_has_summed_rate():
    # five independent Poisson(2) feeds superpose to Poisson(10)
    rng = np.random.default_rng(12)
    horizon = 200.0
    streams = [
        sample_piecewise_poisson(PiecewiseRate.constant(2.0, 0.0, horizon), 0.0, horizon, rng)
        for _ in range(5)
    ]
    merged = superpose(streams)
    assert abs(len(merged) - 2000) <= 3 * math.sqrt(2000)


def test_event_stream_rejects_unsorted_times():
    with pytest.raises(ValueError):
        EventStream.from_times([2.0, 1.0])
    with pytest.raises(ValueError):
        EventStream.from_times([1.0, 1.0])


def test_event_stream_window_is_left_open_right_closed():
    s = EventStream.from_times([1.0, 2.0, 3.0, 4.0])
    w = s.window(1.0, 3.0)
    assert np.array_equal(w.times, [2.0, 3.0])


def test_piecewise_rate_lookup_and_domain():
    rate = PiecewiseRate(np.array([0.0, 1.0, 3.0]), np.array([5.0, 7.0]))
    assert rate.rate_at(0.0) == 5.0
    assert rate.rate_at(0.999) == 5.0
    assert rate.rate_at(1.0) == 7.0
    assert rate.rate_at(3.0) == 7.0
    assert rate.covers(0.0, 3.0)
    assert not rate.covers(0.0, 3.5)
    with pytest.raises(ValueError):
        rate.rate_at(-0.1)
    with pytest.raises(ValueError):
        rate.rate_at(3.1)
    with pytest.raises(ValueError):
        PiecewiseRate(np.array([0.0, 1.0]), np.array([-2.0]))
    with pytest.raises(ValueError):
        PiecewiseRate(np.array([1.0, 0.0]), np.array([2.0]))


def test_explosive_sampling_stops_at_the_event_cap(monkeypatch):
    monkeypatch.setattr(point_process, "MAX_HAWKES_EVENTS", 2_000)
    explosive = HawkesParams(baseline=1.0, alpha=3.0, w=1.0, allow_unstable=True)
    with pytest.raises(ValueError, match=r"holds more than MAX_HAWKES_EVENTS = 2000 events \(alpha = 3.0"):
        sample_hawkes(explosive, 0.0, 1e9, np.random.default_rng(0))


def test_the_event_cap_leaves_stable_samples_unchanged(monkeypatch):
    knots, rates = np.array([0.0, 200.0]), np.array([10.0])
    for seed in range(3):
        stream = sample_hawkes(PARAMS, 0.0, 200.0, np.random.default_rng(seed))
        # the kernel with no cap, as sample_hawkes called it before the cap
        # (the buffer size hint, 16 here, does not change the draws)
        uncapped = kernels.IMPLEMENTATIONS["sample_hawkes_times"]["fallback"](
            0.0, 200.0, knots, rates, 1.0, 10.0, np.random.default_rng(seed), 16
        )
        assert stream.times.tobytes() == uncapped.tobytes()
        n = len(stream)
        monkeypatch.setattr(point_process, "MAX_HAWKES_EVENTS", n)  # exactly full: still drawn
        assert sample_hawkes(PARAMS, 0.0, 200.0, np.random.default_rng(seed)).times.tobytes() == uncapped.tobytes()
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
