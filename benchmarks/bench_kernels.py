"""Time each hot kernel's compiled flavor against its plain fallback.

Both flavors consume identical seeded inputs and must return identical
bytes; this script reports wall times and the speedup, and fails loudly
if the outputs ever diverge.  Run:

    python3 benchmarks/bench_kernels.py [--repeats 5]

The compiled flavor is only present when numba is importable and
WHENTOPOST_NUMBA is not 0/false/off.  The controller's fallback is a
vectorized twin of its loop, so the script also times that loop run as
plain Python against the fallback: that speed-up shows without numba.
"""

import time

import click
import numpy as np

from whentopost.kernels import IMPLEMENTATIONS, NUMBA_ENABLED, _redqueen_posts_loop


def hawkes_workload():
    knots = np.array([0.0, 500.0, 1200.0, 2000.0])
    rates = np.array([10.0, 6.0, 12.0])
    args = (0.0, 2000.0, knots, rates, 1.0, 10.0)
    return lambda fn, seed: fn(*args, np.random.default_rng(seed), 40_000)


def redqueen_workload():
    rng = np.random.default_rng(12)
    n_events = 200_000
    feed_times = np.sort(rng.uniform(0.0, 5000.0, size=n_events))
    feed_followers = rng.integers(0, 5, size=n_events)
    knots = np.array([0.0, 1500.0, 3000.0, 5000.0])
    clock_rates = rng.uniform(0.05, 0.4, size=(5, 3))
    init_ranks = np.array([0, 2, 0, 5, 1], dtype=np.int64)
    return lambda fn, seed: fn(
        feed_times, feed_followers, init_ranks, knots, clock_rates,
        0.0, 5000.0, 1 << 62, np.random.default_rng(seed),
    )


def oracle_workload():
    rng = np.random.default_rng(34)
    widths = rng.uniform(0.05, 2.0, size=5001)
    return lambda fn, seed: fn(widths, 0, 25.0, 1.0)


WORKLOADS = {
    "sample_hawkes_times": hawkes_workload(),
    "redqueen_posts": redqueen_workload(),
    "oracle_decisions": oracle_workload(),
}


def best_time(call, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


@click.command()
@click.option("--repeats", default=5, show_default=True, help="Timed repetitions; best counts.")
def main(repeats):
    if not NUMBA_ENABLED:
        click.echo("compiled flavor disabled (numba missing or WHENTOPOST_NUMBA off); "
                   "timing the fallback only")
    click.echo(f"{'kernel':<22} {'fallback':>12} {'compiled':>12} {'speedup':>9}")
    for name, run in WORKLOADS.items():
        impls = IMPLEMENTATIONS[name]
        base = impls["fallback"]
        fast = impls["numba"]
        t_base = best_time(lambda: run(base, 7), repeats)
        if fast is None:
            click.echo(f"{name:<22} {t_base * 1e3:>10.2f}ms {'-':>12} {'-':>9}")
            continue
        run(fast, 7)  # compile before timing
        t_fast = best_time(lambda: run(fast, 7), repeats)
        if run(base, 7).tobytes() != run(fast, 7).tobytes():
            raise SystemExit(f"{name}: flavors disagree on identical input")
        click.echo(
            f"{name:<22} {t_base * 1e3:>10.2f}ms {t_fast * 1e3:>10.2f}ms {t_base / t_fast:>8.1f}x"
        )
    run = WORKLOADS["redqueen_posts"]
    base = IMPLEMENTATIONS["redqueen_posts"]["fallback"]
    if run(_redqueen_posts_loop, 7).tobytes() != run(base, 7).tobytes():
        raise SystemExit("redqueen_posts: the fallback disagrees with the loop on identical input")
    t_loop = best_time(lambda: run(_redqueen_posts_loop, 7), repeats)
    t_base = best_time(lambda: run(base, 7), repeats)
    click.echo(f"\n{'kernel':<22} {'python loop':>12} {'fallback':>12} {'speedup':>9}")
    click.echo(
        f"{'redqueen_posts':<22} {t_loop * 1e3:>10.2f}ms {t_base * 1e3:>10.2f}ms "
        f"{t_loop / t_base:>8.1f}x"
    )


if __name__ == "__main__":
    main()
