"""The benchmark's workloads: the CLI command each runs and how its output is checked.

A run of the benchmark with seed ``s`` runs each workload's command on
``VARIANTS`` inputs, made from the input seeds ``s * VARIANTS + v``
(seed lists, or a generated log), so the same seed always runs the same
commands on the same bytes, and one run's time averages over several
inputs instead of resting on one.  ``check`` returns a list of failed
checks for one finished command; an empty list means the output passed.

Each command is sized to take one to three seconds on a two-core machine
with the NumPy fallback kernels, so that a run of tens of seconds takes
the median of several commands per input.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import genlog

#: Inputs per run; a run's timings average over them.
VARIANTS = 6
#: Benchmark seed whose output files must match the digests recorded below.
DIGEST_SEED = 0

REPORT_HEADER = [
    "run", "seed", "policy", "posts", "position_over_time", "time_at_top",
    "normalized_position", "normalized_time_at_top",
]
SUMMARY_HEADER = ["run", "policy", "metric", "n", "mean", "stderr", "median", "q25", "q75"]
PROFILE_HEADER = ["follower_id", "bucket_index", "value"]


@dataclass
class Prepared:
    """One workload's command for one seed, and what its outputs must hold."""

    argv: list
    outputs: dict  # role ("out", "summary") -> path
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: object  # (input seed, workdir) -> Prepared


# ---------------------------------------------------------------------------
# command builders
# ---------------------------------------------------------------------------

HAWKES_BUDGETS = (100, 200, 400)
HAWKES_POLICIES = ("redqueen", "oracle", "uniform", "segment-offline")


def _hawkes(seed: int, workdir: Path) -> Prepared:
    # 3000 feed events: the oracle's table is ~70 MiB, which sets peak memory
    out = workdir / "report.csv"
    argv = ["simulate", "--scenario", "one-follower-hawkes"]
    for p in HAWKES_POLICIES:
        argv += ["--policy", p]
    argv += [
        "--budget", ",".join(str(b) for b in HAWKES_BUDGETS), "--feed-events", "3000",
        "--seeds", str(seed), "--out", str(out),
    ]
    rows = len(HAWKES_BUDGETS) * len(HAWKES_POLICIES)
    return Prepared(argv, {"out": out}, {"report_rows": rows, "tunes": ("redqueen_tune", "oracle_tune")})


REPLAY_POLICIES = ("redqueen", "uniform", "segment-offline", "true-posts")


def _replay(seed: int, workdir: Path) -> Prepared:
    genlog.generate(seed, workdir / "log")
    out, summary = workdir / "report.csv", workdir / "summary.csv"
    argv = [
        "replay", "--manifest", str(workdir / "log" / "manifest.txt"),
        "--significance", "weekday", "--seeds", f"{seed}-{seed}",
    ]
    for p in REPLAY_POLICIES:
        argv += ["--policy", p]
    argv += ["--out", str(out), "--summary", str(summary)]
    return Prepared(
        argv,
        {"out": out, "summary": summary},
        {
            "report_rows": len(REPLAY_POLICIES),
            "summary_rows": 2 * len(REPLAY_POLICIES),
            "tunes": ("redqueen_tune",),
        },
    )


def _profile(seed: int, workdir: Path) -> Prepared:
    shape = genlog.generate(seed, workdir / "log")
    out = workdir / "profile.csv"
    argv = [
        "estimate-significance", "--events", str(workdir / "log" / "events.jsonl"),
        "--epoch", repr(genlog.EPOCH), "--granularity", "weekday-hour", "--out", str(out),
    ]
    return Prepared(argv, {"out": out}, {"profile_rows": shape["accounts"] * 168, "followers": shape["accounts"]})


# A fourth candidate, many short controller calls (the multi-follower
# sinusoid scenario with a tuned budget), is not run: with four workloads
# each run would be too short to give steady medians on a shared two-core
# host, and these three already cover the controller.
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "hawkes-oracle",
            "only workload that runs the clairvoyant oracle (quadratic table, forward cost) next to the controller",
            _hawkes,
        ),
        Workload(
            "replay-week",
            "loads and cuts a generated log, weekday significance schedule, true-posts normalisation, long merged feed",
            _replay,
        ),
        Workload(
            "profile-log",
            "read-and-write path: weekday-hour profiles of every account in a generated log, no controller",
            _profile,
        ),
    ]
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else None), rows[1:]


def _check_report(path, expect: dict, replay: bool) -> list:
    problems = []
    header, rows = _read_csv(path)
    if header != REPORT_HEADER:
        return [f"report header {header}"]
    if len(rows) != expect["report_rows"]:
        problems.append(f"report has {len(rows)} rows, expected {expect['report_rows']}")
    for row in rows:
        if len(row) != len(REPORT_HEADER):
            problems.append(f"report row of {len(row)} fields")
            continue
        values = row[4:6] + [v for v in row[6:8] if v]
        if not all(_finite(v) for v in values) or (replay and not row[6]):
            problems.append(f"non-finite or missing report value in {row}")
        if replay and row[2] == "true-posts":
            if row[6] != "1.0" or row[7] not in ("1.0", ""):
                problems.append(f"true-posts row not normalised to 1.0: {row}")
    return problems


def _check_summary(path, expect: dict) -> list:
    header, rows = _read_csv(path)
    if header != SUMMARY_HEADER:
        return [f"summary header {header}"]
    problems = []
    if len(rows) != expect["summary_rows"]:
        problems.append(f"summary has {len(rows)} rows, expected {expect['summary_rows']}")
    for row in rows:
        if len(row) != len(SUMMARY_HEADER) or not all(_finite(v) for v in row[4:]):
            problems.append(f"bad summary row {row}")
    return problems


def _check_profile(path, expect: dict) -> list:
    # read row by row: the profile has ~170k rows
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = csv.reader(ln for ln in fh if not ln.startswith("#"))
        header = next(rows, None)
        if header != PROFILE_HEADER:
            return [f"profile header {header}"]
        n = bad = 0
        for r in rows:
            n += 1
            bad += len(r) != 3 or not _finite(r[2]) or not 0.0 <= float(r[2]) <= 1.0
    problems = []
    if n != expect["profile_rows"]:
        problems.append(f"profile has {n} rows, expected {expect['profile_rows']}")
    if bad:
        problems.append(f"{bad} profile rows with a value outside [0, 1] or not finite")
    return problems


def _tunes(status: dict, names) -> list:
    """Every named tune result in a status line (simulate nests them per run)."""
    details = status.get("details", {})
    groups = [details] if any(n in details for n in names) else list(details.values())
    return [(n, g[n]) for g in groups if isinstance(g, dict) for n in names if n in g]


def check(workload: str, prepared: Prepared, exit_code: int, stdout: str) -> list:
    """Failed checks for one finished command (empty when it passed)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 1:
        return [f"{len(lines)} stdout lines, expected one JSON status line"]
    try:
        status = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"status line is not JSON ({exc})"]
    if not isinstance(status, dict):
        return ["status line is not a JSON object"]
    for path in prepared.outputs.values():
        if not Path(path).is_file():
            return [f"missing output {path}"]
    expect = prepared.expect
    problems = []
    if "report_rows" in expect:
        problems += _check_report(prepared.outputs["out"], expect, replay=workload == "replay-week")
        if status.get("rows") != expect["report_rows"]:
            problems.append(f"status reports {status.get('rows')} rows")
    if "summary_rows" in expect:
        problems += _check_summary(prepared.outputs["summary"], expect)
    if "profile_rows" in expect:
        problems += _check_profile(prepared.outputs["out"], expect)
        if status.get("followers") != expect["followers"]:
            problems.append(f"status reports {status.get('followers')} followers")
    if "tunes" in expect:
        tunes = _tunes(status, expect["tunes"])
        if not tunes:
            problems.append("status line has no tune results")
        for name, tune in tunes:
            if not tune.get("converged"):
                problems.append(f"{name} did not converge: {tune.get('message')}")
    return problems


def digest_problems(workload: str, seed: int, variant: int, digests: dict, reference: dict | None) -> list:
    """Byte checks: recorded digests on DIGEST_SEED, else equal to the variant's first output."""
    want = DIGESTS[workload][variant] if seed == DIGEST_SEED else reference
    if want is None:
        return []
    return [
        f"{role} sha256 {got[:12]} != {want.get(role, '?')[:12]}"
        for role, got in digests.items()
        if got != want.get(role)
    ]


#: sha256 of each output file at DIGEST_SEED, per variant, as written by the
#: package at the commit that defined the benchmark (NumPy fallback kernels).
DIGESTS = {
    "hawkes-oracle": [
        {"out": "73e5b9f92dfe628ef2aacb583ae2945ce476f1a199e06ae6150f9285c10ff898"},
        {"out": "e3f5fe40fe1b00e7f9ff49b9384e78e9cf6f918eb4f4e167110cf7c8709e83a0"},
        {"out": "3158f59c5765fe1149f7ef5d36f7320e57d2bddbacd609172d9e2c023817c778"},
        {"out": "3d1d2e1f23b901e92d2cc3f6f369e065a29d6aa8e6260a2e43133dcb2669d6f6"},
        {"out": "8195c9467ad643ea8547c8e98c6c956470c0d343ac4029acbfa4c91949f05b29"},
        {"out": "4b7021df44211d234ab3cb45f842debf8185a0c1182fba0e4aea5651b3414caa"},
    ],
    "replay-week": [
        {"out": "6a7771c4423829c0f622c709c7f6a76c4cd566a0c931ce078d1bdd493142bf1d", "summary": "a72190906ec3fa186775a7db705a949e7cfc6c55c705e0b5bf547310cce582d5"},
        {"out": "7a33c69b7bd28e3bae6e7bb0a16976a594694dff5b826d00460af12ed36e0890", "summary": "a7f1b4fd0b54aa98a511b04c25ca72892319dc7aa1f923302cbe03dc7514bf9c"},
        {"out": "7abe59d08a817c99a3354461afea443d9d48ea031bff4a0aaeeb136c27352334", "summary": "92390e58b6e0d1ca501d91e09f5c1afa1b898e29e635a535439bc3b0935a1747"},
        {"out": "7e84ce2dad9412f12fff2e2a96ade0eec077aa36396fd8d0aa28250831ec2acb", "summary": "5b98d06efd2483e08e6545fcf8166befc1e76cc15d3c5d55cf3e88118ffb0b04"},
        {"out": "cc9818af2c1c61f469b8fa44f16242352ffeba7eaa6f041cab3f2e9bc2f0bc2b", "summary": "cd7d4e9343f0564764c741cf3da66d52e1744e3d8318c70ebc8aa3164ee4df47"},
        {"out": "214a08a62576d50bd06d3a63408695f00c36128e325bf29e51d564350404f6ed", "summary": "a4c42fc2784137abe2299550308f8d2c8d7ccb2d5ff15b530e11988e5c4046cf"},
    ],
    "profile-log": [
        {"out": "73e33ea9dd391a34878d983e17d6b7c8d7869c9e6e60de1c6060c5e6f9397509"},
        {"out": "26a79092374888f1ed9267e5812344fc050d267308a484906c78293f0e0508ec"},
        {"out": "ebb3f8614e1198f665c8294ef0f1a8792507c31f2f98d2e8284eec0a902409c7"},
        {"out": "169dcdc78c71461314ef234a79199d318ba2f1a2d99c4c0ccae6c22f4810d238"},
        {"out": "3319e85726e53932f8477cf624f06b1e3a153611d360ad9ab5268aa33a371fa7"},
        {"out": "c5524d7aa2c54d0ffb184c19fbce4646727bd5b013ce2abcbc8976f71827b067"},
    ],
}
