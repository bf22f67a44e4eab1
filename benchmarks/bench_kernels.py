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

A tune section replays the benchmark's ``replay-week`` log (``genlog``,
seed 0, weekday significance) at 60 followers and at 900, by patching
``genlog``'s constants here, and times the controller kernel over the
replay's price search as the package runs it (most evaluations decided
by capped runs) and with ``tune_q`` given no lower bounds.  It prints the
evaluations, the capped runs and the whole runs made again at a price
and seed a capped run had seen.  It fails if a capped run differs from
the first posts of the same run uncapped, or if the two searches give
different ``TuneResult``s or report bytes.

An I/O section then writes 100k-event and 1M-event logs with
``save_events`` and times ``load_events`` on each: as one byte range
parsed in this process, and as it runs by default, up to one range per
usable CPU with forked children parsing all but the first.  Where two
CPUs are usable it also times what a child's range costs beyond its
parse (forking, reaping and reading an empty range), sets that against
the one-range parse's cost per byte to give the range size that breaks
even, and times a 20k-event log, below the size the read splits at, as
one range and forced into two.  At 100k events it
also times the per-line ``json.loads`` path, ``estimate_significance``
(one count table for every follower), and ``write_profile_csv`` (a block
of followers at a time) against one ``csv.writerow`` per row.  It fails
if any two reads differ in times, sources or their sharing of one
string per id, if the file bytes differ, or if any follower's weights
differ in a bit from ``bucket_weights`` on that follower's events alone.

``--json PATH`` also writes the I/O and tune sections' numbers to PATH,
with the kernel flavor, ``nproc`` and the CPUs ``load_events`` may use, the git
SHA of the package's checkout, and the Python and NumPy versions.  The
package is imported from ``PYTHONPATH``, so the same script times
another checkout's ``src/`` (one that always reads one range times the
same read twice):

    PYTHONPATH=OTHER/src python3 benchmarks/bench_kernels.py --json BENCH.json
"""

import collections
import contextlib
import copy
import csv
import io
import json
import os
import platform
import re
import subprocess
import sys
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
from whentopost import cli, control_online, data_io, scenarios
from whentopost.control_oracle import OracleInstance, schedule_cost
from whentopost.kernels import (
    IMPLEMENTATIONS,
    NUMBA_ENABLED,
    _oracle_decisions_loop,
    _redqueen_posts_loop,
)
from whentopost.point_process import EventStream
from whentopost.significance import bucket_weights, estimate_significance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import genlog  # noqa: E402  (the benchmark's log generator, read as is)


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


#: Followers of the replayed broadcaster in the tune section's two logs: the
#: ``replay-week`` benchmark's ``genlog`` log, and one with 15 times as many.
TUNE_FOLLOWERS = (60, 900)
TUNE_CONFIG = scenarios.ReplayConfig(seeds=(0,), policies=("redqueen", "true-posts"), significance="weekday")


def replay_dataset(followers, workdir):
    """The seed-0 ``genlog`` replay with ``followers`` followers (and twice as many accounts, at least 1000)."""
    with mock.patch.multiple(genlog, FOLLOWERS=followers, ACCOUNTS=max(genlog.ACCOUNTS, 2 * followers)):
        genlog.generate(0, workdir)
    man = data_io.load_manifest(Path(workdir) / "manifest.txt")
    return data_io.build_replay_dataset(
        data_io.load_events(man.events_path), data_io.load_network(man.network_path),
        man.broadcaster, man.epoch, man.t0, man.tf,
    )


def uncapped_tune_q(target, mean_posts_fn, **kwargs):
    """``tune_q`` without the capped runs' lower bounds: every evaluation runs whole."""
    kwargs.pop("lower_bound_fn", None)
    return control_online.tune_q(target, mean_posts_fn, **kwargs)


@contextlib.contextmanager
def kernel_runs(check):
    """Time every controller kernel call; with ``check``, test each capped run against the whole run.

    Yields a list that gets one ``(seconds, capped, key)`` per call, ``key``
    naming the price (by its clock rates) and the seed (by its generator's
    state).  The check reruns a capped run uncapped from a copy of its
    generator and fails unless the capped posts are the whole run's first ones.
    """
    runs = []
    kernel = control_online.redqueen_posts

    def timed(*args):
        *rest, max_posts, rng = args
        capped = max_posts < 2**62
        key = (args[4].tobytes(), str(rng.bit_generator.state))
        spare = copy.deepcopy(rng) if check else None
        start = time.perf_counter()
        posts = kernel(*args)
        runs.append((time.perf_counter() - start, capped, key))
        if check and capped and posts.tobytes() != kernel(*rest, 2**62, spare)[:max_posts].tobytes():
            raise SystemExit(f"redqueen_posts: a run capped at {max_posts} posts is not the whole run's prefix")
        return posts

    with mock.patch.object(control_online, "redqueen_posts", timed):
        yield runs


def tune_counts(runs):
    """Kernel calls, capped ones, and whole runs at a (price, seed) that a capped run had seen."""
    capped = {key for _, is_capped, key in runs if is_capped}
    return {
        "kernel_calls": len(runs),
        "capped_calls": sum(is_capped for _, is_capped, _ in runs),
        "exact_reruns": sum(not is_capped and key in capped for _, is_capped, key in runs),
    }


def report_bytes(reports):
    buffer = io.StringIO()
    data_io.write_report_csv(reports, buffer)
    return buffer.getvalue()


def bench_tune(repeats):
    """Time the replay's price search as the package runs it and with every run whole; return numbers."""
    results = {}
    click.echo(
        f"\n{'tune (replay, seed 0)':<22} {'evals':>6} {'uncapped':>12} {'package':>12} {'speedup':>9} "
        f"{'capped':>7} {'reruns':>7}"
    )
    for followers in TUNE_FOLLOWERS:
        with tempfile.TemporaryDirectory() as tmp:
            dataset = replay_dataset(followers, tmp)
        modes = {
            "package": contextlib.nullcontext(),
            "uncapped": mock.patch.object(scenarios, "tune_q", uncapped_tune_q),
        }
        out = {}
        for mode, patch in modes.items():
            with patch:
                with kernel_runs(check=True) as runs:
                    reports, details = scenarios.run_replay(TUNE_CONFIG, dataset)
                best = float("inf")
                for _ in range(repeats):
                    with kernel_runs(check=False) as timed_runs:
                        scenarios.run_replay(TUNE_CONFIG, dataset)
                    best = min(best, sum(t for t, _, _ in timed_runs))
            out[mode] = (reports, details["redqueen_tune"], best, tune_counts(runs))
        (reports, tuned, t_pkg, counts), (reports_whole, tuned_whole, t_whole, _) = out["package"], out["uncapped"]
        if tuned != tuned_whole:
            raise SystemExit(f"tune_q: {followers} followers: {tuned} with capped runs, {tuned_whole} without")
        if report_bytes(reports) != report_bytes(reports_whole):
            raise SystemExit(f"run_replay: {followers} followers: the reports differ with capped runs")
        click.echo(
            f"{f'{followers} followers':<22} {tuned.iterations:>6} {t_whole * 1e3:>10.2f}ms {t_pkg * 1e3:>10.2f}ms "
            f"{t_whole / t_pkg:>8.1f}x {counts['capped_calls']:>7} {counts['exact_reruns']:>7}"
        )
        results[f"{followers}_followers"] = {
            "evaluations": tuned.iterations,
            "kernel_s": t_pkg,
            "kernel_s_uncapped": t_whole,
            **counts,
        }
    return results


def synthetic_log(n=100_000):
    """``n`` events from 1000 accounts, about a week per 100k, from a fixed seed."""
    rng = np.random.default_rng(56)
    times = np.cumsum(rng.exponential(6.0, n))  # strictly increasing
    accounts = np.array([f"u{i:05d}" for i in range(1000)], dtype=object)
    return EventStream(times, accounts[rng.integers(0, 1000, times.shape[0])])


def write_profile_csv_by_rows(profile, path):
    """``write_profile_csv`` as one ``csv.writerow`` and one ``repr`` per row.

    Each row is written with a ``"\\r\\n"`` terminator, so that csv quotes
    an id holding ``"\\r"``, and is then ended with ``"\\n"``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# granularity = {profile.granularity}\n")
        fh.write(f"# epoch = {float(profile.epoch)!r}\n")
        fh.write(f"# laplace = {float(profile.laplace)!r}\n")
        fh.write(
            f"# normalization = {profile.normalization} "
            "(each follower's peak bucket is scaled to 1; values are not probabilities)\n"
        )
        row = io.StringIO()
        writer = csv.writer(row, lineterminator="\r\n")

        def writerow(cells):
            row.seek(0)
            row.truncate()
            writer.writerow(cells)
            fh.write(row.getvalue()[:-2] + "\n")

        writerow(["follower_id", "bucket_index", "value"])
        for fid, vec in profile.values.items():
            for b in range(vec.shape[0]):
                writerow([fid, b, repr(float(vec[b]))])


@contextlib.contextmanager
def per_line_events():
    """Make ``load_events`` read every line with ``json.loads``."""
    with mock.patch.object(data_io, "_CANONICAL_EVENT", re.compile(r"(?!)")):
        yield


@contextlib.contextmanager
def one_range():
    """Make ``load_events`` read the log as one range in this process."""
    if not hasattr(data_io, "_usable_cpus"):  # a checkout that always does
        yield
        return
    with mock.patch.object(data_io, "_usable_cpus", lambda: 1):
        yield


def usable_cpus():
    """The CPUs ``load_events`` splits a large log across."""
    return data_io._usable_cpus() if hasattr(data_io, "_usable_cpus") else 1


def check_same_read(name, got, want):
    """Exit unless two reads of a log agree in times, sources and one string per id."""
    if got.times.tobytes() != want.times.tobytes() or got.sources.tolist() != want.sources.tolist():
        raise SystemExit(f"load_events: {name} disagrees with the one-range read")
    if len({id(s) for s in got.sources}) != len(set(got.sources)):
        raise SystemExit(f"load_events: {name} keeps more than one string per id")


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


def bench_load(log, repeats, per_line):
    """Time and check ``load_events`` on ``log``; return the read and its timings in seconds."""
    timings = {}
    with one_range():
        timings["load_events_one_range"] = best_time(lambda: data_io.load_events(log), repeats)
        want = data_io.load_events(log)
        if per_line:
            with per_line_events():
                timings["load_events_per_line"] = best_time(lambda: data_io.load_events(log), repeats)
                check_same_read("the per-line path", data_io.load_events(log), want)
    timings["load_events"] = best_time(lambda: data_io.load_events(log), repeats)
    got = data_io.load_events(log)
    check_same_read("the default read", got, want)
    return got, timings


def bench_split_cost(log, repeats, per_byte):
    """Time a child's fixed cost and a log too small to split; return seconds (none if it never splits)."""
    if not hasattr(data_io, "_MIN_RANGE_BYTES") or usable_cpus() < 2:
        return {}
    empty = [(0, 0), (0, 0)]  # this process and one child each parse no byte
    fork = best_time(lambda: data_io._parse_ranges(log, empty), repeats)
    small = log.with_name("events_20k.jsonl")
    data_io.save_events(synthetic_log(20_000), small)
    size = small.stat().st_size
    if len(data_io._ranges(small)) != 1:
        raise SystemExit("load_events: the 20k-event log is not below the size the read splits at")
    one = best_time(lambda: data_io.load_events(small), repeats)
    want = data_io.load_events(small)
    with mock.patch.object(data_io, "_MIN_RANGE_BYTES", size // 2):
        two = best_time(lambda: data_io.load_events(small), repeats)
        check_same_read("the 20k-event log in two ranges", data_io.load_events(small), want)

    click.echo(f"\n{'load_events split cost':<22} {'fork+reap':>12} {'parse/byte':>12} {'break-even':>11} {'min range':>10}")
    click.echo(
        f"{'empty child range':<22} {fork * 1e3:>10.2f}ms {per_byte * 1e9:>10.1f}ns "
        f"{fork / per_byte / 1024:>7.0f} KiB {data_io._MIN_RANGE_BYTES / 1024:>6.0f} KiB"
    )
    click.echo(f"{f'20k events ({size / 1024:.0f} KiB)':<22} {'one range':>12} {'two ranges':>12}")
    click.echo(f"{'':<22} {one * 1e3:>10.2f}ms {two * 1e3:>10.2f}ms")
    return {
        "fork_empty_range": fork,
        "parse_per_byte": per_byte,
        "load_events_20k": one,
        "load_events_20k_two_ranges": two,
    }


def bench_io(repeats):
    """Time and check the profile path's three calls and the log read at two sizes; return seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events_1m.jsonl"
        data_io.save_events(synthetic_log(1_000_000), log)
        _, timings_1m = bench_load(log, repeats, per_line=False)
        log.unlink()
        log = Path(tmp) / "events.jsonl"
        data_io.save_events(synthetic_log(), log)
        got, timings = bench_load(log, repeats, per_line=True)
        timings.update(bench_split_cost(log, repeats, timings["load_events_one_range"] / log.stat().st_size))

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
        ("load_events", timings["load_events_per_line"], timings["load_events_one_range"]),
        ("write_profile_csv", t_rows, t_write),
    ):
        click.echo(f"{name:<22} {slow * 1e3:>10.2f}ms {fast * 1e3:>10.2f}ms {slow / fast:>8.1f}x")
    click.echo(f"{'estimate_significance':<22} {'-':>12} {t_estimate * 1e3:>10.2f}ms {'-':>9}")
    click.echo(f"\n{f'load_events ({usable_cpus()} cpus)':<22} {'one range':>12} {'default':>12} {'speedup':>9}")
    for scale, t in (("100k events", timings), ("1M events", timings_1m)):
        one, default = t["load_events_one_range"], t["load_events"]
        click.echo(f"{scale:<22} {one * 1e3:>10.2f}ms {default * 1e3:>10.2f}ms {one / default:>8.1f}x")
    timings.update({f"{name}_1m": t for name, t in timings_1m.items()})
    timings.update(
        {"estimate_significance": t_estimate, "write_profile_csv": t_write, "write_profile_csv_by_rows": t_rows}
    )
    return timings


def git_sha():
    """SHA of the checkout the imported package lives in, and whether it has edits."""
    here = Path(whentopost.__file__).resolve().parent

    def git(*args):
        out = subprocess.run(["git", *args], cwd=here, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))


def write_json(path, repeats, timings, tune):
    sha, dirty = git_sha()
    record = {
        "section": ["io", "tune"],
        "workload": "synthetic_log(): 100k events (1M for the _1m reads, 20k for the _20k ones), 1000 accounts, "
                    "weekday-hour profiles",
        "tune": tune,
        "tune_workload": f"run_replay of the seed-0 genlog log at {' and '.join(map(str, TUNE_FOLLOWERS))} "
                         "followers, policies redqueen and true-posts, weekday significance; kernel_s sums "
                         "the controller kernel's calls (best of repeats), kernel_s_uncapped the same with "
                         "tune_q given no lower bounds",
        "kernel_flavor": "numba" if NUMBA_ENABLED else "fallback",
        "nproc": len(os.sched_getaffinity(0)),
        "cpus_usable": usable_cpus(),
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
              help="Also write the I/O and tune sections' numbers and the run's environment here.")
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
    tune = bench_tune(repeats)
    timings = bench_io(repeats)
    if json_path:
        write_json(json_path, repeats, timings, tune)


if __name__ == "__main__":
    main()
