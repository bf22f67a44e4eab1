"""File formats: event logs, follower graphs, manifests, reports, profiles.

* Events: JSON lines, one object per event: ``{"t": <seconds>, "src": "<id>"}``.
  Times are seconds relative to the manifest's epoch.  Lines in exactly
  the form ``save_events`` writes (that spacing and key order, a string id
  without escapes) are read a chunk at a time by one regular-expression
  pass; a chunk holding any other line is read with one ``json.loads`` a
  line.  Both give the same times, ids, warnings and ``file:line`` errors.
* Network: headerless CSV, one ``broadcaster_id,follower_id`` edge per line.
* Manifest: ``key = value`` text pointing at the two files and fixing the
  epoch, window and broadcaster.
* Reports: CSV with the fixed header
  ``run,seed,policy,posts,position_over_time,time_at_top,normalized_position,normalized_time_at_top``.
* Profiles: CSV of ``follower_id,bucket_index,value`` rows, preceded by
  ``#``-comment metadata lines (granularity, epoch, normalization).  Each
  follower's rows are built as one string, with the id quoted once as
  ``csv`` quotes it, so the bytes equal one ``writerow`` per row.

Floats are written with ``repr``, which round-trips exactly, so loading
what was saved reproduces the original values bit for bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feed_sim import Network
from .metrics import MetricsReport
from .point_process import EventStream, _dedupe_increasing
from .significance import SignificanceProfile, bucket_count

__all__ = [
    "load_events",
    "save_events",
    "load_network",
    "Manifest",
    "load_manifest",
    "ReplayDataset",
    "build_replay_dataset",
    "REPORT_HEADER",
    "write_report_csv",
    "read_report_csv",
    "write_profile_csv",
    "read_profile_csv",
    "save_trajectory",
    "load_trajectory",
]


class DataFormatError(ValueError):
    """A file did not match its declared format."""


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# event logs
# ---------------------------------------------------------------------------


#: Size hint, in characters, for the lines ``load_events`` parses at a time.
_CHUNK_CHARS = 1 << 18

#: The line ``save_events`` writes: a JSON number and a string with no escape
#: or control character, so the captured text is the value JSON would read.
_CANONICAL_EVENT = re.compile(
    r'^\{"t": (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?), '
    r'"src": "([^"\\\x00-\x1f]*)"\}$',
    re.M,
)


def load_events(path) -> EventStream:
    """Read a JSON-lines event log.

    Out-of-order lines are sorted with a warning; coincident times are
    nudged one float step apart with a warning, so every event keeps a
    distinct timestamp.  Malformed lines fail with their line number.
    Each account's id is kept as one shared string, however many events
    it has.
    """
    parts = []
    sources: list = []
    interned: dict = {}
    lineno = 1
    with open(path, "r", encoding="utf-8") as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            times, ids = _parse_chunk(lines, path, lineno)
            parts.append(times)
            sources.extend(map(interned.setdefault, ids, ids))
            lineno += len(lines)
    times = np.concatenate(parts) if parts else np.empty(0)
    # NaN propagates through min and max, and +-inf shows in one of them
    if times.size and not (math.isfinite(times.min()) and math.isfinite(times.max())):
        bad = int(np.flatnonzero(~np.isfinite(times))[0])
        raise DataFormatError(
            f"{path}:{_event_lineno(path, bad)}: event time must be finite, "
            f"got {float(times[bad])!r}"
        )
    sources = np.asarray(sources, dtype=object)
    if times.shape[0] > 1:
        diffs = np.diff(times)
        if np.any(diffs < 0):
            warnings.warn(f"{path}: events out of order; sorting", stacklevel=2)
            order = np.argsort(times, kind="stable")
            times = times[order]
            sources = sources[order]
        fixed, nudged = _dedupe_increasing(times)
        if nudged:
            warnings.warn(
                f"{path}: nudged {nudged} coincident event(s) one float step apart",
                stacklevel=2,
            )
            times = fixed
    return EventStream(times, sources)


def _parse_chunk(lines, path, first_lineno) -> tuple[np.ndarray, list]:
    """Times and source ids of ``lines``, which start at line ``first_lineno``.

    When every line is canonical one regex pass reads them all; any other
    chunk is read line by line, with the same result for canonical lines.
    """
    matches = _CANONICAL_EVENT.findall("".join(lines))
    if len(matches) == len(lines):  # one match per line at most: all canonical
        times = np.fromiter((float(t) for t, _ in matches), np.float64, len(matches))
        # JSON reads the integer token -0 as 0, and an integer too large for a
        # float fails, where float() gives -0.0 and inf: such chunks go per line
        if np.isfinite(times).all() and not np.signbit(times[times == 0.0]).any():
            return times, [s for _, s in matches]
    return _parse_lines(lines, path, first_lineno)


def _parse_lines(lines, path, first_lineno) -> tuple[np.ndarray, list]:
    """``_parse_chunk`` with one ``json.loads`` a line; blank lines are skipped."""
    times = []
    ids = []
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            t = float(obj["t"])
            src = str(obj["src"])
        except (
            json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError, RecursionError
        ) as exc:  # RecursionError: a deeply nested line
            raise DataFormatError(f"{path}:{lineno}: bad event line ({exc})") from exc
        times.append(t)
        ids.append(src)
    return np.array(times, dtype=np.float64), ids


def _event_lineno(path, index: int) -> int:
    """Line number of the ``index``-th event (blank lines skipped) in ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        linenos = (lineno for lineno, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(linenos, index, None))


def save_events(stream: EventStream, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, src in zip(stream.times, stream.sources):
            fh.write(json.dumps({"t": float(t), "src": str(src)}) + "\n")


# ---------------------------------------------------------------------------
# follower graph
# ---------------------------------------------------------------------------


def load_network(path) -> Network:
    """Read a headerless broadcaster_id,follower_id edge list; duplicates collapse."""
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2 or not row[0].strip() or not row[1].strip():
                raise DataFormatError(f"{path}:{lineno}: expected broadcaster_id,follower_id")
            edges.append((row[0].strip(), row[1].strip()))
    return Network.from_edges(edges)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    """Replay run description: where the data lives and what window to use."""

    events_path: Path
    network_path: Path
    epoch: float
    t0: float
    tf: float
    broadcaster: str

    def __post_init__(self):
        for key in ("epoch", "t0", "tf"):
            if not math.isfinite(getattr(self, key)):
                raise DataFormatError(f"manifest {key} must be finite, got {getattr(self, key)!r}")
        if self.tf <= self.t0:
            raise DataFormatError("manifest window must have tf > t0")


def load_manifest(path) -> Manifest:
    """Parse ``key = value`` lines; paths resolve relative to the manifest."""
    path = Path(path)
    fields: dict[str, str] = {}
    linenos: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
            linenos[key.strip()] = lineno
    required = ("events", "network", "epoch", "t0", "tf", "broadcaster")
    missing = [k for k in required if k not in fields]
    if missing:
        raise DataFormatError(f"{path}: manifest is missing {', '.join(missing)}")
    numbers = {}
    for key in ("epoch", "t0", "tf"):
        try:
            numbers[key] = float(fields[key])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{linenos[key]}: {exc}") from exc
        if not math.isfinite(numbers[key]):
            raise DataFormatError(
                f"{path}:{linenos[key]}: {key} must be finite, got {fields[key]!r}"
            )
    return Manifest(
        events_path=(path.parent / fields["events"]).resolve(),
        network_path=(path.parent / fields["network"]).resolve(),
        broadcaster=fields["broadcaster"],
        **numbers,
    )


# ---------------------------------------------------------------------------
# replay dataset
# ---------------------------------------------------------------------------


@dataclass
class ReplayDataset:
    """Everything a replay run needs, cut out of one event log."""

    broadcaster: str
    follower_ids: list
    feeds: list  # EventStream per follower, broadcaster's own posts excluded
    true_posts: EventStream
    epoch: float
    t0: float
    tf: float
    events: EventStream  # the full log, for significance estimation


def build_replay_dataset(
    events: EventStream,
    network: Network,
    broadcaster: str,
    epoch: float,
    t0: float,
    tf: float,
    max_followees: int = 500,
) -> ReplayDataset:
    """Cut one broadcaster's replay problem out of a shared event log.

    Each retained follower's feed is every event from their other
    followees inside (t0, tf].  Followers following more than
    ``max_followees`` accounts are dropped (their feeds drown everyone
    out and bloat the replay).  A broadcaster with no retained
    followers cannot be replayed.
    """
    followers = network.followers(broadcaster)
    retained = [f for f in followers if len(network.followees_of.get(f, ())) <= max_followees]
    if not retained:
        raise DataFormatError(
            f"broadcaster {broadcaster!r} has no retained followers "
            f"(started with {len(followers)}; followee cap {max_followees})"
        )
    windowed = events.window(t0, tf)
    # code the windowed sources once; each feed is then one table lookup
    code_of: dict = {}
    codes = np.fromiter(
        (code_of.setdefault(s, len(code_of)) for s in windowed.sources), np.int32, len(windowed)
    )

    def from_sources(wanted) -> EventStream:
        table = np.zeros(len(code_of), bool)
        table[[code_of[s] for s in wanted if s in code_of]] = True
        mask = table[codes]
        return EventStream(windowed.times[mask], windowed.sources[mask])

    feeds = [
        from_sources(set(network.followees_of.get(f, ())) - {broadcaster}) for f in retained
    ]
    true_posts = from_sources({broadcaster})
    return ReplayDataset(
        broadcaster=broadcaster,
        follower_ids=retained,
        feeds=feeds,
        true_posts=true_posts,
        epoch=epoch,
        t0=t0,
        tf=tf,
        events=events,
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

REPORT_HEADER = (
    "run,seed,policy,posts,position_over_time,time_at_top,"
    "normalized_position,normalized_time_at_top"
)


def write_report_csv(reports, path_or_buffer) -> None:
    """Write reports sorted by (run, policy, seed); reruns are byte-identical."""
    rows = sorted(reports, key=lambda r: (r.run, r.policy, r.seed))
    own = isinstance(path_or_buffer, (str, Path))
    fh = open(path_or_buffer, "w", encoding="utf-8", newline="") if own else path_or_buffer
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [
                    r.run,
                    r.seed,
                    r.policy,
                    r.posts,
                    _fmt(r.position_over_time),
                    _fmt(r.time_at_top),
                    "" if r.normalized_position is None else _fmt(r.normalized_position),
                    "" if r.normalized_time_at_top is None else _fmt(r.normalized_time_at_top),
                ]
            )
    finally:
        if own:
            fh.close()


def read_report_csv(path) -> list[MetricsReport]:
    reports = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != REPORT_HEADER.split(","):
            raise DataFormatError(f"{path}: unexpected report header {header}")
        for row in reader:
            if len(row) != 8:
                raise DataFormatError(f"{path}: bad report row {row}")
            reports.append(
                MetricsReport(
                    run=row[0],
                    seed=int(row[1]),
                    policy=row[2],
                    posts=int(row[3]),
                    position_over_time=float(row[4]),
                    time_at_top=float(row[5]),
                    normalized_position=float(row[6]) if row[6] else None,
                    normalized_time_at_top=float(row[7]) if row[7] else None,
                )
            )
    return reports


# ---------------------------------------------------------------------------
# significance profiles
# ---------------------------------------------------------------------------


def write_profile_csv(profile: SignificanceProfile, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# granularity = {profile.granularity}\n")
        fh.write(f"# epoch = {_fmt(profile.epoch)}\n")
        fh.write(f"# laplace = {_fmt(profile.laplace)}\n")
        fh.write(
            f"# normalization = {profile.normalization} "
            "(each follower's peak bucket is scaled to 1; values are not probabilities)\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["follower_id", "bucket_index", "value"])
        middles = [f",{b}," for b in range(bucket_count(profile.granularity))]
        quoted = io.StringIO()
        quote = csv.writer(quoted, lineterminator="\n")
        for fid, vec in profile.values.items():
            # the id cell exactly as writerow would quote it, then its rows in one write
            quoted.seek(0)
            quoted.truncate()
            quote.writerow([fid, ""])
            head = quoted.getvalue()[:-2]
            vec = np.asarray(vec, dtype=np.float64)
            reprs: dict = {}  # keyed by bits, so 0.0 and -0.0 stay apart
            cells = [
                reprs.get(bits) or reprs.setdefault(bits, repr(x))
                for bits, x in zip(vec.view(np.int64).tolist(), vec.tolist())
            ]
            fh.write("".join([head + mid + cell + "\n" for mid, cell in zip(middles, cells)]))


def read_profile_csv(path) -> SignificanceProfile:
    meta: dict[str, str] = {}
    body = io.StringIO()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip().split(" ")[0] if value else ""
            else:
                body.write(line)
    for key in ("granularity", "epoch", "laplace"):
        if key not in meta:
            raise DataFormatError(f"{path}: profile metadata is missing {key!r}")
    body.seek(0)
    reader = csv.reader(body)
    header = next(reader, None)
    if header != ["follower_id", "bucket_index", "value"]:
        raise DataFormatError(f"{path}: unexpected profile header {header}")
    granularity = meta["granularity"]
    b = bucket_count(granularity)
    values: dict = {}
    for row in reader:
        if len(row) != 3:
            raise DataFormatError(f"{path}: bad profile row {row}")
        fid, idx, val = row[0], int(row[1]), float(row[2])
        values.setdefault(fid, np.zeros(b))[idx] = val
    return SignificanceProfile(
        granularity=granularity,
        epoch=float(meta["epoch"]),
        values=values,
        laplace=float(meta["laplace"]),
    )


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def save_trajectory(trajectory, path) -> None:
    """JSON dump of a trajectory; floats survive the round trip exactly."""
    payload = {
        "t0": trajectory.t0,
        "tf": trajectory.tf,
        "own_posts": [float(t) for t in trajectory.own_posts],
        "feeds": [
            {"times": [float(t) for t in f.times], "sources": [str(s) for s in f.sources]}
            for f in trajectory.feeds
        ],
        "rank_times": [[float(t) for t in ts] for ts in trajectory.rank_times],
        "rank_values": [[int(v) for v in vs] for vs in trajectory.rank_values],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_trajectory(path):
    from .feed_sim import SimulationTrajectory

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return SimulationTrajectory(
        t0=float(payload["t0"]),
        tf=float(payload["tf"]),
        own_posts=np.asarray(payload["own_posts"], dtype=np.float64),
        feeds=[
            EventStream(np.asarray(f["times"], np.float64), np.asarray(f["sources"], object))
            for f in payload["feeds"]
        ],
        rank_times=[np.asarray(ts, np.float64) for ts in payload["rank_times"]],
        rank_values=[np.asarray(vs, np.int64) for vs in payload["rank_values"]],
    )
