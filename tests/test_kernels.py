"""Both kernel flavors must return bitwise-identical results."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from reference import oracle_decisions_table, oracle_thresholds_table

from whentopost import kernels
from whentopost.control_oracle import instance_from_feed
from whentopost.point_process import HawkesParams, sample_hawkes
from whentopost.scenarios import HawkesScenarioConfig, feed_rng

needs_numba = pytest.mark.skipif(
    not kernels.NUMBA_ENABLED, reason="numba flavor disabled in this process"
)


def hawkes_args():
    knots = np.array([0.0, 30.0, 70.0, 100.0])
    rates = np.array([8.0, 0.0, 12.0])
    return dict(t0=0.0, tf=100.0, knots=knots, rates=rates, alpha=0.8, w=5.0, cap_hint=64)


def redqueen_args(rng):
    feed_times = np.sort(rng.uniform(0.0, 50.0, size=60))
    feed_followers = rng.integers(0, 2, size=60)
    knots = np.array([0.0, 20.0, 35.0, 50.0])
    clock_rates = np.array([[0.5, 0.0, 0.9], [0.3, 0.7, 0.2]])
    return dict(
        feed_times=feed_times,
        feed_followers=feed_followers,
        init_ranks=np.array([3, 0], dtype=np.int64),
        knots=knots,
        clock_rates=clock_rates,
        t0=0.0,
        tf=50.0,
        max_posts=1_000_000,
    )


@needs_numba
def test_hawkes_flavors_match_bitwise():
    impls = kernels.IMPLEMENTATIONS["sample_hawkes_times"]
    args = hawkes_args()
    for seed in range(10):
        got_nb = impls["numba"](rng=np.random.default_rng(seed), **args)
        got_py = impls["fallback"](rng=np.random.default_rng(seed), **args)
        assert got_nb.tobytes() == got_py.tobytes()
        assert len(got_nb) > 0


@needs_numba
def test_redqueen_flavors_match_bitwise():
    impls = kernels.IMPLEMENTATIONS["redqueen_posts"]
    for seed in range(10):
        args = redqueen_args(np.random.default_rng(1000 + seed))
        got_nb = impls["numba"](rng=np.random.default_rng(seed), **args)
        got_py = impls["fallback"](rng=np.random.default_rng(seed), **args)
        assert got_nb.tobytes() == got_py.tobytes()


@needs_numba
def test_redqueen_flavors_match_with_post_cap():
    impls = kernels.IMPLEMENTATIONS["redqueen_posts"]
    args = redqueen_args(np.random.default_rng(7))
    args["max_posts"] = 3
    got_nb = impls["numba"](rng=np.random.default_rng(7), **args)
    got_py = impls["fallback"](rng=np.random.default_rng(7), **args)
    assert got_nb.tobytes() == got_py.tobytes()
    assert len(got_nb) <= 3


def test_oracle_flavors_match_bitwise():
    # the numpy twin is deterministic, so this holds with or without numba
    impls = kernels.IMPLEMENTATIONS["oracle_decisions"]
    flavors = [impls["fallback"]]
    if impls["numba"] is not None:
        flavors.append(impls["numba"])
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 15))
        widths = rng.uniform(0.05, 2.0, size=m + 1)
        q = float(np.exp(rng.uniform(np.log(0.01), np.log(100.0))))
        s = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        r0 = int(rng.integers(0, 4))
        results = [f(widths, r0, q, s) for f in flavors]
        for got in results[1:]:
            assert got.tobytes() == results[0].tobytes()


_SUBPROCESS_SCRIPT = """
import numpy as np
from whentopost import kernels

print(int(kernels.NUMBA_ENABLED))
knots = np.array([0.0, 30.0, 70.0, 100.0])
rates = np.array([8.0, 0.0, 12.0])
out = kernels.sample_hawkes_times(
    0.0, 100.0, knots, rates, 0.8, 5.0, np.random.default_rng(42), 64
)
print(out.tobytes().hex())
"""


def run_with_flag(flag_value):
    env = dict(os.environ)
    if flag_value is None:
        env.pop("WHENTOPOST_NUMBA", None)
    else:
        env["WHENTOPOST_NUMBA"] = flag_value
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, (
        f"flag={flag_value!r}: child exited {proc.returncode}\n{proc.stderr}"
    )
    enabled_line, hex_line = proc.stdout.split()
    return int(enabled_line), hex_line


def numba_importable():
    """Whether ``from numba import njit`` works here, as ``kernels`` tries it.

    A numba that is installed but fails to import (say, against this
    NumPy) also sends ``kernels`` to the fallback, so only a real import
    settles it.
    """
    try:
        from numba import njit  # noqa: F401
    except ImportError:
        return False
    return True


def test_env_flag_selects_flavor_and_output_is_flag_invariant():
    # the compiled flavor runs iff the flag is on and numba imports
    on = int(numba_importable())
    expected = kernels.IMPLEMENTATIONS["sample_hawkes_times"]["fallback"](
        0.0,
        100.0,
        np.array([0.0, 30.0, 70.0, 100.0]),
        np.array([8.0, 0.0, 12.0]),
        0.8,
        5.0,
        np.random.default_rng(42),
        64,
    ).tobytes().hex()
    for flag, want_enabled in [("0", 0), ("off", 0), ("false", 0), ("1", on), (None, on)]:
        enabled, got_hex = run_with_flag(flag)
        assert enabled == want_enabled, f"flag={flag!r}"
        assert got_hex == expected, f"flag={flag!r}"


def fuzz_redqueen_case(rng):
    """Random controller input: schedule, feed, initial ranks, post cap, price."""
    n = int(rng.integers(1, 5))
    nseg = int(rng.integers(1, 49))
    t0 = float(rng.uniform(-10.0, 10.0))
    tf = t0 + float(rng.uniform(0.5, 200.0))
    knots = np.concatenate([[t0], np.sort(rng.uniform(t0, tf, nseg - 1)), [tf]])
    if rng.random() < 0.2:  # schedule reaching past the window
        knots[-1] = tf + float(rng.uniform(0.1, 50.0))
    values = rng.uniform(0.0, 1.0, (n, nseg))
    values[rng.random((n, nseg)) < 0.3] = 0.0  # zero-rate segments
    log_q = float(rng.choice([-280.0, 280.0])) if rng.random() < 0.3 else rng.uniform(-6, 6)
    m = 0 if rng.random() < 0.15 else int(rng.integers(1, 200))
    hi = tf + float(rng.uniform(0.0, 20.0)) if rng.random() < 0.2 else tf
    feed_times = np.sort(rng.uniform(t0, hi, m))
    if rng.random() < 0.3:  # ties, as when two followers follow one account
        feed_times = np.ceil(feed_times)
    if m and rng.random() < 0.3:  # an event at tf spawns a clock with no mass left
        feed_times[-1] = tf
    return dict(
        feed_times=feed_times,
        feed_followers=rng.integers(0, n, m),
        init_ranks=rng.integers(0, 5, n) * (rng.random(n) < 0.5),
        knots=knots,
        clock_rates=np.sqrt(values / 10.0**log_q),
        t0=t0,
        tf=tf,
        max_posts=[1, 3, 2**62][int(rng.integers(3))],
    )


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_vectorized_controller_matches_python_loop(monkeypatch, chunk):
    # runs without numba: the loop is the plain-Python reference
    if chunk is not None:
        monkeypatch.setattr(kernels, "_REDQUEEN_CHUNK", chunk)
    rng = np.random.default_rng(2024 + (chunk or 0))
    seen = dict(posted=0, capped=0, empty_feed=0, extreme_q=0, many_segments=0)
    for seed in range(120):
        args = fuzz_redqueen_case(rng)
        want = kernels._redqueen_posts_loop(rng=np.random.default_rng(seed), **args)
        got = kernels._redqueen_posts_numpy(rng=np.random.default_rng(seed), **args)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), f"case {seed}"
        seen["posted"] += len(want) > 0
        seen["capped"] += args["max_posts"] <= 3 and len(want) == args["max_posts"]
        seen["empty_feed"] += args["feed_times"].shape[0] == 0
        rates = args["clock_rates"][args["clock_rates"] > 0]
        seen["extreme_q"] += rates.size > 0 and not (1e-100 < rates.max() < 1e100)
        seen["many_segments"] += args["clock_rates"].shape[1] > 24
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("first_chunk, chunk", [(1, 7), (5, 3), (64, None), (None, None)])
def test_a_capped_controller_run_is_the_whole_runs_prefix(monkeypatch, first_chunk, chunk):
    # a run capped at K posts is what tune_q's lower bounds read: it must be
    # the first K posts of the uncapped run, whatever the chunk sizes
    if first_chunk is not None:
        monkeypatch.setattr(kernels, "_REDQUEEN_FIRST_CHUNK", first_chunk)
    if chunk is not None:
        monkeypatch.setattr(kernels, "_REDQUEEN_CHUNK", chunk)
    flavors = [f for f in kernels.IMPLEMENTATIONS["redqueen_posts"].values() if f is not None]
    rng = np.random.default_rng(77 + (first_chunk or 0))
    stopped = 0
    for seed in range(60):
        args = fuzz_redqueen_case(rng)
        args["max_posts"] = 2**62
        whole = kernels._redqueen_posts_loop(rng=np.random.default_rng(seed), **args)
        for cap in sorted({1, 2, 5, 17, max(len(whole) - 1, 1), len(whole) + 1}):
            args["max_posts"] = cap
            for flavor in flavors:
                got = flavor(rng=np.random.default_rng(seed), **args)
                assert got.tobytes() == whole[:cap].tobytes(), (seed, cap, flavor.__name__)
            stopped += cap < len(whole)
    assert stopped >= 50


def test_controller_fallback_is_the_vectorized_twin():
    impls = kernels.IMPLEMENTATIONS["redqueen_posts"]
    assert impls["fallback"] is kernels._redqueen_posts_numpy
    if not kernels.NUMBA_ENABLED:
        assert kernels.redqueen_posts is kernels._redqueen_posts_numpy


class ScriptedExponentials:
    """Stands in for a Generator: hands out the given unit exponentials in order."""

    def __init__(self, values):
        self.values = list(values)

    def standard_exponential(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


@pytest.mark.parametrize(
    "feed, draws, want",
    [
        ([2.0], [3.0], [5.0]),  # the tick lands exactly on tf: it still posts
        ([2.0, 3.0], [1.0, 0.5], [3.0, 3.5]),  # a tick tied with the next event posts first
        ([2.0, 4.0], [3.5, 2.0], []),  # ticks past tf never post
    ],
)
def test_controller_boundaries_on_exact_draws(feed, draws, want):
    args = dict(
        feed_times=np.array(feed),
        feed_followers=np.zeros(len(feed), np.int64),
        init_ranks=np.array([0]),
        knots=np.array([0.0, 5.0]),
        clock_rates=np.array([[1.0]]),
        t0=0.0,
        tf=5.0,
        max_posts=2**62,
    )
    for kernel in (kernels._redqueen_posts_loop, kernels._redqueen_posts_numpy):
        got = kernel(rng=ScriptedExponentials(draws), **args)
        assert got.tolist() == want, kernel.__name__


def random_oracle_case(rng):
    """Backward-induction input: zero widths, s = 0 and q from 0 to 1e8 included."""
    m = int(np.exp(rng.uniform(0.0, np.log(401.0)))) - 1  # 0 .. 400 stages, small ones often
    widths = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), m + 1))
    widths[rng.random(m + 1) < rng.choice([0.0, 0.1, 0.5])] = 0.0
    q = 0.0 if rng.random() < 0.05 else float(np.exp(rng.uniform(np.log(1e-3), np.log(1e8))))
    s = 0.0 if rng.random() < 0.05 else float(np.exp(rng.uniform(np.log(1e-2), np.log(1e2))))
    return widths, int(rng.integers(0, 20)), q, s


def test_oracle_kernel_matches_table_reference():
    rng = np.random.default_rng(61)
    seen = dict(mixed=0, no_post=0, back_to_back=0, q_zero=0, s_zero=0, zero_width=0, long=0)
    for case in range(2000):
        widths, r0, q, s = random_oracle_case(rng)
        want = oracle_decisions_table(widths, r0, q, s)
        got = kernels.oracle_decisions(widths, r0, q, s)
        assert got.dtype == np.int8
        assert got.tobytes() == want.tobytes(), f"case {case}"
        seen["mixed"] += 0 < want.sum() < want.shape[0]
        seen["no_post"] += want.sum() == 0
        seen["back_to_back"] += bool(np.any(want[1:] & want[:-1]))
        seen["q_zero"] += q == 0.0
        seen["s_zero"] += s == 0.0
        seen["zero_width"] += bool(np.any(widths == 0.0))
        seen["long"] += widths.shape[0] > 200
    assert min(seen.values()) >= 20, seen


def hawkes_feed(seed):
    """The seeded feed of ``simulate --scenario one-follower-hawkes --feed-events 3000``."""
    cfg = HawkesScenarioConfig(seeds=(seed,), budget=5.0, target_feed_events=3000.0)
    params = HawkesParams(cfg.lambda0, cfg.alpha, cfg.w)
    return sample_hawkes(params, 0.0, cfg.horizon, feed_rng(seed, 0)).times, cfg.horizon


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_kernel_matches_table_on_hawkes_feeds(seed):
    # q = 16 and q = 2**23 are where the oracle tunes settle for budgets
    # 400 and 5 on seed 0; q = 1 starts every tune
    times, tf = hawkes_feed(seed)
    for q in (1.0, 16.0, 2.0**23):
        inst = instance_from_feed(times, 0.0, tf, q=q)
        assert inst.n_stages > 2900
        want = oracle_decisions_table(inst.widths, inst.r0, inst.q, inst.s)
        got = kernels.oracle_decisions(inst.widths, inst.r0, inst.q, inst.s)
        assert got.tobytes() == want.tobytes(), f"q={q}"


def oracle_case(name):
    """A named backward-induction input ``(widths, r0, q, s)``."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "path-switches":
        # wide stages post from rank ~19 on; narrow ones never post, so
        # their thresholds climb with the stage index, past the cutoff in
        # the run at stages 300-399
        wide, narrow = np.full(100, 1.0), np.full(100, 1e-4)
        return np.concatenate([wide, narrow, wide, narrow, wide]), 0, 4096.0, 1.0
    if name == "r0-above-cutoff":
        return rng.uniform(0.0, 2.0, 300), 3 * kernels._ORACLE_SCALAR_RANKS, 64.0, 1.0
    if name == "r0-above-cutoff-no-posts":
        return np.full(200, 1e-4), 3 * kernels._ORACLE_SCALAR_RANKS, 2.0**20, 1.0
    if name == "q-zero":
        return rng.uniform(0.0, 2.0, 200), 5, 0.0, 1.0
    if name == "s-zero":
        return rng.uniform(0.0, 2.0, 200), 5, 10.0, 0.0
    if name == "zero-widths":
        widths = rng.uniform(0.0, 2.0, 300)
        widths[rng.random(300) < 0.5] = 0.0
        return widths, 2, 100.0, 1.0
    if name == "all-zero-widths":
        return np.zeros(150), 0, 1.0, 1.0
    if name == "single-stage":
        return np.array([0.7]), 0, 1.0, 1.0
    if name == "single-stage-high-rank":
        return np.array([0.7]), 200, 1.0, 1.0
    if name == "single-zero-stage":
        return np.array([0.0]), 3, 1.0, 1.0
    raise KeyError(name)


ORACLE_CASES = [
    "path-switches", "r0-above-cutoff", "r0-above-cutoff-no-posts", "q-zero", "s-zero",
    "zero-widths", "all-zero-widths", "single-stage", "single-stage-high-rank", "single-zero-stage",
]


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_fallback_matches_loop_and_table(name):
    # without numba the loop runs as plain Python, the fallback's reference
    widths, r0, q, s = oracle_case(name)
    want = oracle_decisions_table(widths, r0, q, s)
    assert kernels._oracle_decisions_loop(widths, r0, q, s).tobytes() == want.tobytes()
    got = kernels._oracle_decisions_numpy(widths, r0, q, s)
    assert got.dtype == np.int8
    assert got.tobytes() == want.tobytes()


def test_oracle_path_switch_case_crosses_the_cutoff_both_ways():
    # a stage scans in Python iff the next stage's threshold is below the
    # cutoff; this case must take both turns and rerun failed scans
    cut = kernels._ORACLE_SCALAR_RANKS
    thresholds = oracle_thresholds_table(*oracle_case("path-switches"))
    below = [t < cut for t in thresholds]
    pairs = list(zip(below[1:], below[:-1]))  # (stage k+1, stage k)
    assert (True, False) in pairs  # a scan reaches the cutoff: rerun as slices
    assert (False, True) in pairs  # slices hand back to the scan
    assert 0 < min(thresholds) and max(thresholds) > 2 * cut


@pytest.mark.parametrize("cut", [1, 4, 128])
def test_oracle_fallback_matches_loop_at_any_cutoff(monkeypatch, cut):
    monkeypatch.setattr(kernels, "_ORACLE_SCALAR_RANKS", cut)
    rng = np.random.default_rng(90 + cut)
    for case in range(150):
        widths, r0, q, s = random_oracle_case(rng)
        want = kernels._oracle_decisions_loop(widths, r0, q, s)
        got = kernels._oracle_decisions_numpy(widths, r0, q, s)
        assert got.tobytes() == want.tobytes(), f"case {case}"
    for name in ORACLE_CASES:
        widths, r0, q, s = oracle_case(name)
        want = oracle_decisions_table(widths, r0, q, s)
        assert kernels._oracle_decisions_numpy(widths, r0, q, s).tobytes() == want.tobytes(), name


def test_oracle_fallback_matches_loop_on_a_hawkes_feed():
    # q = 2**23: thresholds grow to thousands of ranks, so long stages take
    # the slice path and the plain-Python loop takes about a second
    times, tf = hawkes_feed(0)
    inst = instance_from_feed(times, 0.0, tf, q=2.0**23)
    want = kernels._oracle_decisions_loop(inst.widths, inst.r0, inst.q, inst.s)
    got = kernels._oracle_decisions_numpy(inst.widths, inst.r0, inst.q, inst.s)
    assert got.tobytes() == want.tobytes()
    assert 0 < want.sum() < 20


def test_oracle_kernel_memory_is_linear_in_stages():
    # 50k stages: the full value table would take ~19 GiB
    widths = np.random.default_rng(8).uniform(0.0, 0.2, 50_001)
    tracemalloc.start()
    try:
        decisions = kernels.oracle_decisions(widths, 3, 25.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert 0 < decisions.sum() < decisions.shape[0]


def test_oracle_fallback_is_the_numpy_kernel():
    impls = kernels.IMPLEMENTATIONS["oracle_decisions"]
    assert impls["fallback"] is kernels._oracle_decisions_numpy
    if not kernels.NUMBA_ENABLED:
        assert kernels.oracle_decisions is kernels._oracle_decisions_numpy
