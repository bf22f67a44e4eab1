"""Run one ``whentopost`` CLI command in this process and time it.

    python3 perfbench/worker.py SPEC.json

SPEC holds ``argv`` (the CLI arguments), ``trace`` (record spans),
``run_id`` and the ``result`` and ``spans`` paths to write.  The command's
own stdout and stderr pass through untouched; the measurement (wall
time and this process's peak resident memory) goes to the result file,
and spans (kept in memory while the command runs) to the spans file once
it has ended.  Importing ``whentopost.cli`` happens before the clock
starts: it is set-up, which the benchmark times apart.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def peak_rss_mib() -> float:
    """This process's high-water resident memory, in MiB.

    ``VmHWM`` belongs to the process's own address space, which starts
    fresh at exec; unlike ``ru_maxrss`` it does not inherit the parent's
    high-water mark.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import whentopost.cli as cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)
        root = tracer.open("cli")
    start = time.perf_counter()
    try:
        cli.main.main(args=spec["argv"], prog_name="whentopost")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # an escaped error is a failed command, not a crashed benchmark
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - start
    peak = peak_rss_mib()
    sys.stdout.flush()
    if tracer is not None:
        tracer.close(root)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    result = {"wall_s": wall, "peak_rss_mib": peak, "exit_code": code}
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
