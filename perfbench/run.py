"""The whentopost benchmark: real CLI commands, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it uses the package under ``src/`` next to this
directory.  For one workload it makes the inputs from ``--seed`` (outside
the timed region), then, one after another from this single process and
until the next command would end past ``--seconds``, cycles through the
inputs running:

* the workload's CLI command in a fresh worker process
  (``perfbench/worker.py``), timed inside the worker from CLI entry to
  exit, which also reads its own peak resident memory (``VmHWM``);
* before every other command, a set-up probe: a fresh interpreter that
  imports ``whentopost.cli`` (where the kernel flavor is chosen), timed
  from spawn to exit.

Every command's outputs are checked (``workloads.check``); a command that
exits nonzero, is killed by a signal or by the run's deadline, fails a
check or has a tune that did not converge counts as failed.  On the
digest seed the output bytes must equal recorded digests; on other seeds
every repetition must reproduce the first one's bytes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` and ``peak_rss_mib`` (per input the median over its commands,
then the mean over inputs), the median ``setup_s``, and ``ok_frac``
(commands that passed / commands run).  With ``--trace 1`` traced and
untraced commands alternate; the traced ones record spans
(``perfbench/tracer.py``) and the line carries the per-layer metrics
(medians over traced commands), the tracing overhead (traced minus
untraced median wall time) and the share of traced wall time left in
``cli`` and ``scenarios`` self time.  Spans and per-command counts are
written to ``.perfbench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

#: A run ends within this many seconds of its start: it starts no command
#: that would likely end later, and kills (and counts as failed) one that
#: is still running then.
RUN_DEADLINE_S = 150.0
#: A set-up probe that takes longer than this is an error of the set-up.
PROBE_TIMEOUT_S = 60.0
#: One set-up probe per this many commands.
PROBE_EVERY = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, import failure, ...)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _timed_child(argv, stdout_path, stderr_path, timeout: float):
    """Run argv to completion: (exit code, wall seconds); the code is None on timeout.

    A blocking wait, cut by a timer signal, keeps the measured wall time
    free of polling delays.  A child killed by a signal has code -signum.
    """
    timed_out = []
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)

        def _kill(signum, frame):
            timed_out.append(True)
            proc.kill()

        previous = signal.signal(signal.SIGALRM, _kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status = os.waitpid(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out else proc.returncode), wall


def _probe(workdir: Path, code: str):
    """Run ``code`` in a fresh interpreter: (stdout, wall seconds)."""
    status, wall = _timed_child(
        [sys.executable, "-c", code], workdir / "probe.out", workdir / "probe.err", PROBE_TIMEOUT_S
    )
    if status != 0:
        err = (workdir / "probe.err").read_text(encoding="utf-8", errors="replace").strip()
        why = f"timed out after {PROBE_TIMEOUT_S:g} s" if status is None else f"exit {status}"
        raise BenchError(f"set-up probe failed ({why}): {err[-500:]}")
    return (workdir / "probe.out").read_text(encoding="utf-8"), wall


def _setup_probe(workdir: Path) -> float:
    return _probe(workdir, "import whentopost.cli")[1]


STAMP_CODE = """
import json, sys, numpy, whentopost.cli, whentopost.kernels as k
print(json.dumps({"numba_enabled": bool(k.NUMBA_ENABLED), "numpy": numpy.__version__,
                  "python": sys.version.split()[0], "whentopost_file": whentopost.cli.__file__}))
"""


def _stamp_probe(workdir: Path) -> dict:
    """Kernel flavor and versions, as the workers see them."""
    stamp = json.loads(_probe(workdir, STAMP_CODE)[0])
    if not Path(stamp.pop("whentopost_file")).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"whentopost is not imported from {SRC}")
    return stamp


def _git_sha():
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _run_command(prepared, workdir: Path, k: int, traced: bool, run_id: str, timeout: float) -> dict:
    for path in prepared.outputs.values():
        Path(path).unlink(missing_ok=True)
    spec_path = workdir / "spec.json"
    spec = {
        "argv": prepared.argv,
        "trace": traced,
        "run_id": run_id,
        "result": str(workdir / f"result-{k}.json"),
        "spans": str(workdir / f"spans-{k}.json"),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, wall = _timed_child(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        workdir / "cmd.out",
        workdir / "cmd.err",
        timeout,
    )
    if code is None or code < 0:
        # the command hung past the deadline or crashed the interpreter: a
        # failed command, timed from the outside, with no memory figure
        killed = "timed out at the run's deadline" if code is None else f"killed by signal {-code}"
        return {"run_id": run_id, "wall_s": wall, "peak_rss_mib": None, "exit_code": None, "killed": killed}
    result_path = Path(spec["result"])
    if code != 0 or not result_path.is_file():
        err = (workdir / "cmd.err").read_text(encoding="utf-8", errors="replace").strip()
        raise BenchError(f"worker failed ({code}): {err[-500:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["run_id"] = run_id
    result["stdout"] = (workdir / "cmd.out").read_text(encoding="utf-8", errors="replace")
    if traced:
        result["spans"] = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
    return result


def _variant_mean(records, value) -> float:
    """Mean over input variants of the median of ``value`` per variant."""
    by_variant: dict = {}
    for r in records:
        by_variant.setdefault(r["variant"], []).append(value(r))
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details for the span file)."""
    started = time.perf_counter()
    if not (SRC / "whentopost" / "cli.py").is_file():
        raise BenchError(f"no package sources at {SRC}")
    workload = workloads.WORKLOADS[workload_name]
    workdir = WORK_DIR / f"{workload_name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # one round runs every input variant once (untraced, then traced)
    round_len = workloads.VARIANTS * (2 if trace else 1)
    try:
        inputs = []
        for v in range(workloads.VARIANTS):
            (workdir / f"v{v}").mkdir()
            inputs.append(workload.prepare(seed * workloads.VARIANTS + v, workdir / f"v{v}"))
        flavor = _stamp_probe(workdir)  # also the warm-up: byte-compiles the package once
        setups, records = [], []
        references = [None] * workloads.VARIANTS
        began = time.perf_counter()
        k = 0
        while True:
            slot = k % round_len
            v, traced = (slot // 2, slot % 2 == 1) if trace else (slot, False)
            if k % PROBE_EVERY == 0:
                setups.append(_setup_probe(workdir))
            prepared = inputs[v]
            left = started + RUN_DEADLINE_S - time.perf_counter()
            rec = _run_command(prepared, workdir, k, traced, f"{workload_name}/seed{seed}/cmd{k}", left)
            if "killed" in rec:
                problems = [rec["killed"]]
            else:
                problems = workloads.check(workload_name, prepared, rec["exit_code"], rec["stdout"])
            if not problems:
                digests = {role: workloads.sha256(p) for role, p in prepared.outputs.items()}
                problems = workloads.digest_problems(workload_name, seed, v, digests, references[v])
                references[v] = references[v] or digests
            rec.update(problems=problems, traced=traced, variant=v)
            records.append(rec)
            k += 1
            now = time.perf_counter()
            per_command = (now - began) / k
            # stop before a command that would likely end past the run length
            # (once every input has run) or past the deadline
            if k >= round_len and now - began + per_command > seconds:
                break
            if now + per_command > started + RUN_DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # fails, harmlessly, while another run still uses it

    failed = sum(1 for r in records if r["problems"])
    untraced = [r for r in records if not r["traced"]]
    stamp = {
        "workload": workload_name,
        "seed": seed,
        "input_seeds": [seed * workloads.VARIANTS + v for v in range(workloads.VARIANTS)],
        **flavor,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "commands": len(records),
        "setup_probes": len(setups),
        "why": workload.why,
    }
    details = {
        "stamp": stamp,
        "problems": [p for r in records for p in r["problems"]],
        "setup_s": setups,
        "commands": [
            {k: r[k] for k in ("run_id", "variant", "traced", "wall_s", "peak_rss_mib", "exit_code")}
            for r in records
        ],
    }
    wall = _variant_mean(untraced, lambda r: r["wall_s"])
    if not trace:
        # a killed command has no memory figure; if every one was killed, none is reported
        measured = [r for r in untraced if r["peak_rss_mib"] is not None]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (_variant_mean(measured, lambda r: r["peak_rss_mib"]) if measured else None, "MiB"),
            "ok_frac": ((len(records) - failed) / len(records), "frac"),
        }
    else:
        traced_recs = [r for r in records if r["traced"] and "spans" in r]
        if not traced_recs:
            raise BenchError("no traced command ran to its end: " + "; ".join(details["problems"]))
        for r in traced_recs:
            r["layers"] = tracer.layer_metrics(r["spans"])
        metrics = {
            name: (_variant_mean(traced_recs, lambda r: r["layers"][name]), unit)
            for name, (unit, _) in tracer.METRICS.items()
        }
        traced_wall = _variant_mean(traced_recs, lambda r: r["wall_s"])
        top = tracer.top_layer({name: value for name, (value, _) in metrics.items()})
        predicted = tracer.PREDICTED_TOP[workload_name]
        bench = {
            "bench.traced_wall_s": traced_wall,
            "bench.trace_overhead_s": traced_wall - wall,
            "bench.unattributed_share": _variant_mean(
                traced_recs, lambda r: (r["layers"]["cli.self_s"] + r["layers"]["scenarios.self_s"]) / r["wall_s"]
            ),
            "bench.top_layer_as_predicted": int(top == predicted),
        }
        metrics.update((name, (value, tracer.BENCH_METRICS[name])) for name, value in bench.items())
        details["top_layer"] = top
        details["predicted_top_layer"] = predicted
        details["per_command"] = [
            {"run": r["run_id"], "variant": r["variant"], "wall_s": r["wall_s"], **r["layers"]}
            for r in traced_recs
        ]
        details["spans"] = [s for r in traced_recs for s in r["spans"]]
    line = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return line, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one whentopost benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        line, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    out_path = OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}.json"
    out_path.write_text(json.dumps({**details, "result": line}, indent=1) + "\n", encoding="utf-8")
    summary = {k: v for k, v in details.items() if k not in ("spans", "per_command", "commands", "setup_s")}
    if "top_layer" in details and details["top_layer"] != details["predicted_top_layer"]:
        print(
            f"top layer by self time is {details['top_layer']}, predicted "
            f"{details['predicted_top_layer']}",
            file=sys.stderr,
        )
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({**summary, "details_file": str(out_path.relative_to(ROOT))}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
