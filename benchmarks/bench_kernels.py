"""Time each hot kernel's compiled flavor against its plain fallback.

Both flavors consume identical seeded inputs and must return identical
bytes; this script reports wall times and the speedup, and fails loudly
if the outputs ever diverge.  Run:

    python3 benchmarks/bench_kernels.py [--repeats 5]

The compiled flavor is only present when numba is importable and
WHENTOPOST_NUMBA is not 0/false/off.  The controller's fallback is a
vectorized twin of its loop, so the script also times that loop run as
plain Python against the fallback: that speed-up shows without numba.

An oracle section times the backward induction's fallback at 3k, 20k
and 100k stages, at a low and a high price, and prints each call's
``tracemalloc`` peak.  Next to it, wherever that finishes in seconds,
it times the scalar loop numba compiles, run as plain Python.  It fails
if the two return different decision bytes, or if a schedule costs more
than holding throughout or posting at every stage.

A sweep section runs the benchmark's ``hawkes-oracle`` command (budgets
100, 200 and 400 on a 3000-event feed, seed 0) in this process.  It
prints the command's best time next to the three single-budget commands
it replaces, and the oracle and controller call counts next to the
number of distinct (q, seed) pairs.  It fails if the sweep's report
bytes differ from the single-budget reports.

An I/O section then writes a 100k-event log with ``save_events`` and
times ``load_events`` (canonical lines parsed a chunk at a time) against
its per-line ``json.loads`` path, ``estimate_significance`` (one count
table for every follower), and ``write_profile_csv`` (a block of
followers at a time) against one ``csv.writerow`` per row.  It fails if
the times, sources or file bytes differ, or if any follower's weights
differ in a bit from ``bucket_weights`` on that follower's events alone.

``--json PATH`` also writes the I/O section's timings to PATH, with the
kernel flavor, ``nproc``, the git SHA of the package's checkout, and the
Python and NumPy versions.  The package is imported from ``PYTHONPATH``,
so the same script times another checkout's ``src/``:

    PYTHONPATH=OTHER/src python3 benchmarks/bench_kernels.py --json BENCH.json
"""

import collections
import contextlib
import csv
import json
import os
import platform
import re
import subprocess
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import click
import numpy as np
from click.testing import CliRunner

import whentopost
from whentopost import cli, data_io, scenarios
from whentopost.control_oracle import OracleInstance, schedule_cost
from whentopost.kernels import (
    IMPLEMENTATIONS,
    NUMBA_ENABLED,
    _oracle_decisions_loop,
    _redqueen_posts_loop,
)
from whentopost.point_process import EventStream
from whentopost.significance import bucket_weights, estimate_significance


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


def bench_oracle(repeats):
    """Time the induction at three scales; check each schedule against the loop and two trivial ones."""
    fallback = IMPLEMENTATIONS["oracle_decisions"]["fallback"]
    rng = np.random.default_rng(78)
    click.echo(
        f"\n{'oracle_decisions':<22} {'q':>10} {'python loop':>12} {'fallback':>12} {'speedup':>9} "
        f"{'peak':>10} {'posts':>7}"
    )
    for stages in (3_000, 20_000, 100_000):
        widths = rng.exponential(0.09, stages)  # the hawkes-oracle feed's mean gap
        for q in (16.0, 2.0**24):  # the tunes for 400 and 5 posts on 3k stages end near these
            t = best_time(lambda: fallback(widths, 0, q, 1.0), repeats)
            tracemalloc.start()
            try:
                decisions = fallback(widths, 0, q, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            loop = speedup = "-"
            # the loop costs the sum of the thresholds: ~1 s at 100k stages
            # and q = 16, but ~11 s at 20k stages and q = 2**24
            if q <= 16.0 or stages <= 3_000:
                if _oracle_decisions_loop(widths, 0, q, 1.0).tobytes() != decisions.tobytes():
                    raise SystemExit(
                        f"oracle_decisions: {stages} stages, q={q}: the fallback disagrees with the loop"
                    )
                t_loop = best_time(lambda: _oracle_decisions_loop(widths, 0, q, 1.0), repeats)
                loop = f"{t_loop * 1e3:.2f}ms"
                speedup = f"{t_loop / t:.1f}x"
            inst = OracleInstance(0, widths, q)
            cost = schedule_cost(decisions, inst)
            for name, fill in (("all-hold", 0), ("all-post", 1)):
                if cost > schedule_cost(np.full(stages, fill, np.int8), inst):
                    raise SystemExit(f"oracle_decisions: {stages} stages, q={q}: costs more than {name}")
            click.echo(
                f"{f'{stages} stages':<22} {q:>10.3g} {loop:>12} {t * 1e3:>10.2f}ms {speedup:>9} "
                f"{peak / 2**20:>7.2f}MiB {int(decisions.sum()):>7}"
            )


SWEEP_ARGV = [
    "simulate", "--scenario", "one-follower-hawkes", "--policy", "redqueen", "--policy", "oracle",
    "--policy", "uniform", "--policy", "segment-offline", "--feed-events", "3000", "--seeds", "0",
]
SWEEP_BUDGETS = ("100", "200", "400")


def simulate(budget, out):
    result = CliRunner().invoke(cli.main, SWEEP_ARGV + ["--budget", budget, "--out", str(out)])
    if result.exit_code:
        raise SystemExit(f"simulate --budget {budget} failed: {result.output}")
    return out.read_bytes()


@contextlib.contextmanager
def counted_evaluations():
    """Count the oracle and controller calls by (policy, q, feed), rebinding ``scenarios``."""
    calls = collections.Counter()
    oracle, controller = scenarios.oracle_schedule, scenarios.run_redqueen_fast

    def counted_oracle(inst):
        calls["oracle", inst.q, inst.widths.tobytes()] += 1
        return oracle(inst)

    def counted_controller(feeds, params, *args, **kwargs):
        calls["redqueen", params.q, feeds[0].times.tobytes()] += 1
        return controller(feeds, params, *args, **kwargs)

    with mock.patch.object(scenarios, "oracle_schedule", counted_oracle), \
            mock.patch.object(scenarios, "run_redqueen_fast", counted_controller):
        yield calls


def bench_sweep(repeats):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.csv"
        sweep = ",".join(SWEEP_BUDGETS)
        t_sweep = best_time(lambda: simulate(sweep, out), repeats)
        t_singles = best_time(lambda: [simulate(b, out) for b in SWEEP_BUDGETS], repeats)
        with counted_evaluations() as calls:
            got = simulate(sweep, out)
        with counted_evaluations() as single_calls:
            singles = sorted(simulate(b, out) for b in SWEEP_BUDGETS)  # rows sort by run label
        header = singles[0].splitlines(keepends=True)[0]
        if got != header + b"".join(data[len(header):] for data in singles):
            raise SystemExit("simulate: the sweep's report differs from the single-budget reports")

    click.echo(f"\n{'sweep (hawkes-oracle)':<22} {'3 commands':>12} {'1 sweep':>12} {'speedup':>9}")
    click.echo(
        f"{'simulate':<22} {t_singles * 1e3:>10.2f}ms {t_sweep * 1e3:>10.2f}ms "
        f"{t_singles / t_sweep:>8.1f}x"
    )
    click.echo(f"{'calls':<22} {'3 commands':>12} {'1 sweep':>12} {'(q, seed)':>10}")
    for policy, name in (("oracle", "oracle_schedule"), ("redqueen", "run_redqueen_fast")):
        singles_n, sweep_n = (sum(n for k, n in c.items() if k[0] == policy) for c in (single_calls, calls))
        distinct = sum(k[0] == policy for k in calls)
        click.echo(f"{name:<22} {singles_n:>12} {sweep_n:>12} {distinct:>10}")


def synthetic_log():
    """100k events from 1000 accounts over about a week, from a fixed seed."""
    rng = np.random.default_rng(56)
    times = np.cumsum(rng.exponential(6.0, 100_000))  # strictly increasing
    accounts = np.array([f"u{i:05d}" for i in range(1000)], dtype=object)
    return EventStream(times, accounts[rng.integers(0, 1000, times.shape[0])])


def write_profile_csv_by_rows(profile, path):
    """``write_profile_csv`` as one ``csv.writerow`` and one ``repr`` per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# granularity = {profile.granularity}\n")
        fh.write(f"# epoch = {float(profile.epoch)!r}\n")
        fh.write(f"# laplace = {float(profile.laplace)!r}\n")
        fh.write(
            f"# normalization = {profile.normalization} "
            "(each follower's peak bucket is scaled to 1; values are not probabilities)\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["follower_id", "bucket_index", "value"])
        for fid, vec in profile.values.items():
            for b in range(vec.shape[0]):
                writer.writerow([fid, b, repr(float(vec[b]))])


@contextlib.contextmanager
def per_line_events():
    """Make ``load_events`` read every line with ``json.loads``."""
    with mock.patch.object(data_io, "_CANONICAL_EVENT", re.compile(r"(?!)")):
        yield


def check_significance(stream, profile):
    """Exit unless every follower's weights are ``bucket_weights`` of its own events, bit for bit."""
    order = np.argsort(stream.sources, kind="stable")
    sources = stream.sources[order]
    bounds = np.flatnonzero(sources[1:] != sources[:-1]) + 1
    for lo, hi in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [len(sources)]])):
        fid = sources[lo]
        want = bucket_weights(stream.times[order[lo:hi]], profile.epoch, profile.granularity, profile.laplace)
        if profile.values[fid].tobytes() != want.tobytes():
            raise SystemExit(f"estimate_significance: {fid!r} differs from its own bucket_weights")


def bench_io(repeats):
    """Time and check the profile path's three calls; return the timings in seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.jsonl"
        data_io.save_events(synthetic_log(), log)
        with per_line_events():
            t_lines = best_time(lambda: data_io.load_events(log), repeats)
            want = data_io.load_events(log)
        t_chunks = best_time(lambda: data_io.load_events(log), repeats)
        got = data_io.load_events(log)
        if got.times.tobytes() != want.times.tobytes() or got.sources.tolist() != want.sources.tolist():
            raise SystemExit("load_events: the chunked path disagrees with the per-line path")

        ids = sorted(set(got.sources))
        estimate = lambda: estimate_significance(got, ids, epoch=0.0, granularity="weekday-hour")
        t_estimate = best_time(estimate, repeats)
        profile = estimate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every account has events: no flat fallback
            check_significance(got, profile)
        rows, chunked = Path(tmp) / "rows.csv", Path(tmp) / "chunked.csv"
        t_rows = best_time(lambda: write_profile_csv_by_rows(profile, rows), repeats)
        t_write = best_time(lambda: data_io.write_profile_csv(profile, chunked), repeats)
        if rows.read_bytes() != chunked.read_bytes():
            raise SystemExit("write_profile_csv: bytes differ from the row-by-row writer")

    click.echo(f"\n{'io (100k events)':<22} {'per line/row':>12} {'chunked':>12} {'speedup':>9}")
    for name, slow, fast in (
        ("load_events", t_lines, t_chunks),
        ("write_profile_csv", t_rows, t_write),
    ):
        click.echo(f"{name:<22} {slow * 1e3:>10.2f}ms {fast * 1e3:>10.2f}ms {slow / fast:>8.1f}x")
    click.echo(f"{'estimate_significance':<22} {'-':>12} {t_estimate * 1e3:>10.2f}ms {'-':>9}")
    return {
        "load_events": t_chunks,
        "load_events_per_line": t_lines,
        "estimate_significance": t_estimate,
        "write_profile_csv": t_write,
        "write_profile_csv_by_rows": t_rows,
    }


def git_sha():
    """SHA of the checkout the imported package lives in, and whether it has edits."""
    here = Path(whentopost.__file__).resolve().parent

    def git(*args):
        out = subprocess.run(["git", *args], cwd=here, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))


def write_json(path, repeats, timings):
    sha, dirty = git_sha()
    record = {
        "section": "io",
        "workload": "synthetic_log(): 100k events, 1000 accounts, weekday-hour profiles",
        "kernel_flavor": "numba" if NUMBA_ENABLED else "fallback",
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": repeats,
        "statistic": "best of repeats",
        "seconds": timings,
    }
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@click.command()
@click.option("--repeats", default=5, show_default=True, help="Timed repetitions; best counts.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the I/O section's timings and the run's environment here.")
def main(repeats, json_path):
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
    bench_oracle(repeats)
    bench_sweep(repeats)
    timings = bench_io(repeats)
    if json_path:
        write_json(json_path, repeats, timings)


if __name__ == "__main__":
    main()
