"""File formats: event logs, follower graphs, manifests, reports, profiles.

* Events: JSON lines, one object per event: ``{"t": <seconds>, "src": "<id>"}``.
  Times are seconds relative to the manifest's epoch.  The log is read
  about 32 KiB at a time, as UTF-8 with universal newlines.  A chunk
  whose lines are all in exactly the form ``save_events`` writes (that
  spacing and key order, a string id without escapes) passes one
  regular-expression ``fullmatch``; two string passes then cut out its
  times and ids, and one NumPy call reads the times.  A chunk holding any
  other line is read with one ``json.loads`` a line.  Both give the same
  times, ids, warnings and ``file:line`` errors.

  Where ``os.fork`` exists and two or more CPUs are usable, a regular
  file of at least 1 MiB is cut into byte ranges of at least 0.5 MiB, at
  most one per usable CPU, each starting after a newline.  This process
  parses the first range, and a forked child parses each other one; the
  parse's text and scratch then live in the child, and only 12 bytes an
  event (the time, and the id's code in the child's list of distinct
  ids) come back through a pipe.  The ranges are joined in file order,
  so times, ids, warnings and errors are those of one range.  Python 3.12
  and later warn when a process that runs threads forks, and importing
  NumPy starts OpenBLAS threads: the read ignores that warning, since the
  children only parse text and run no BLAS.
* Network: headerless CSV, one ``broadcaster_id,follower_id`` edge per line.
* Manifest: ``key = value`` text pointing at the two files and fixing the
  epoch, window and broadcaster.
* Reports: CSV with the fixed header
  ``run,seed,policy,posts,position_over_time,time_at_top,normalized_position,normalized_time_at_top``.
* Profiles: CSV of ``follower_id,bucket_index,value`` rows, preceded by
  ``#``-comment metadata lines (granularity, epoch, normalization).  The
  rows of 64 followers are built as one string: each id is quoted once
  as ``csv`` quotes it, each distinct value is spelled once, and one
  ``%`` formatting fills them in, so the bytes equal one ``writerow`` per
  row while the scratch stays bounded.

Floats are written with ``repr``, which round-trips exactly, so loading
what was saved reproduces the original values bit for bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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


#: Size hint, in bytes, for the text ``load_events`` parses at a time.
#: The ``fullmatch`` of a chunk keeps a backtracking entry per line (up to
#: ~0.7 KiB), so a chunk of ~750 lines bounds that scratch near 0.5 MiB.
_CHUNK_BYTES = 1 << 15

#: Smallest byte range ``load_events`` parses on its own CPU.  A range pays
#: for its fork once its parse takes longer than the fork: on a 2-CPU
#: x86-64 host, ``benchmarks/bench_kernels.py`` times forking, reaping and
#: reading an empty range at 6-8 ms and the parse at 27-40 ns a byte, so
#: a range of ~0.2 MiB breaks even.  Ranges are at least twice that.
_MIN_RANGE_BYTES = 1 << 19

#: The line ``save_events`` writes: a JSON number and a string with no escape
#: or control character, so the text is the value JSON would read.
_CANONICAL_LINE = (
    r'\{"t": -?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?, '
    r'"src": "[^"\\\x00-\x1f]*"\}'
)
#: A chunk of canonical lines, the last one with or without its newline.
_CANONICAL_EVENT = re.compile(f"(?:{_CANONICAL_LINE}\n)*{_CANONICAL_LINE}\n?")
#: What joins a line's time to its id, and one line's id to the next time.
_SRC_SEP = ', "src": "'
_LINE_SEP = '"}\n{"t": '


def load_events(path) -> EventStream:
    """Read a JSON-lines event log.

    Out-of-order lines are sorted with a warning; coincident times are
    nudged one float step apart with a warning, so every event keeps a
    distinct timestamp.  Malformed lines fail with their line number.
    Each account's id is kept as one shared string, however many events
    it has.  A large log is parsed in byte ranges on up to one CPU each
    (see :func:`_ranges`); the result is the same as from one range.
    """
    parts = _parse_ranges(path, _ranges(path))
    times = np.concatenate([part[0] for part in parts])
    sources = _join_ids(parts)
    # NaN propagates through min and max, and +-inf shows in one of them
    if times.size and not (math.isfinite(times.min()) and math.isfinite(times.max())):
        bad = int(np.flatnonzero(~np.isfinite(times))[0])
        raise DataFormatError(
            f"{path}:{_event_lineno(path, bad)}: event time must be finite, "
            f"got {float(times[bad])!r}"
        )
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


def _join_ids(parts) -> np.ndarray:
    """The ids of ``_parse_ranges``'s ``parts`` in order, one shared string per distinct id.

    Empties ``parts``, freeing each range's buffers once its ids are filled in.
    """
    sources = np.empty(sum(part[2].shape[0] for part in parts), dtype=object)
    interned: dict = {}
    lo = 0
    while parts:
        _, vocab, codes = parts.pop(0)
        table = np.array(list(map(interned.setdefault, vocab, vocab)), dtype=object)
        np.take(table, codes, out=sources[lo : lo + codes.shape[0]])
        lo += codes.shape[0]
    return sources


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or see its affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _ranges(path) -> list[tuple]:
    """The byte ranges ``(start, stop)`` to parse ``path`` in; ``stop=None`` is the end.

    ``min(usable CPUs, size // _MIN_RANGE_BYTES)`` ranges of about equal
    size, each starting just after a ``\\n``, when ``path`` is a regular
    file; one range otherwise, or when that count is below two.
    """
    cpus = _usable_cpus()
    size = os.path.getsize(path) if cpus > 1 and os.path.isfile(path) else 0
    n = min(cpus, size // _MIN_RANGE_BYTES)
    if n < 2:
        return [(0, None)]
    starts = [0]
    with open(path, "rb") as fh:
        for k in range(1, n):
            fh.seek(max(size * k // n, 1) - 1)
            fh.readline()  # to just after the next "\n"
            if starts[-1] < fh.tell() < size:
                starts.append(fh.tell())
    return list(zip(starts, starts[1:] + [None]))


def _parse_ranges(path, ranges) -> list[tuple]:
    """``_parse_range`` of each range in ``ranges``, in order, without its line count.

    This process parses the first range; a forked child parses each other
    one and sends back its times and codes as raw bytes and its distinct
    ids as JSON.  A child does not know the line its range starts on, so
    when it fails (or cannot be forked, or sends a short payload) this
    process parses its range again, counting lines from the ranges before
    it: a bad line fails with the same ``file:line`` error as in one range.
    Every child is reaped before this returns or raises, and killed first
    when it raises.
    """
    children: dict = {}
    done = False
    try:
        for k, (start, stop) in enumerate(ranges[1:], start=1):
            try:
                children[k] = _fork_parser(path, start, stop)
            except OSError:  # e.g. EAGAIN: this range is parsed here
                pass
        parts = []
        lineno = 1
        for k, (start, stop) in enumerate(ranges):
            part = None
            if k in children:
                pid, pipe = children[k]
                with pipe:
                    part = _receive(pipe)
                status = os.waitpid(pid, 0)[1]
                del children[k]
                if status != 0:
                    part = None
            if part is None:
                part = _parse_range(path, start, stop, lineno)
            lineno += part[3]
            parts.append(part[:3])
        done = True
        return parts
    finally:
        for pid, pipe in children.values():
            pipe.close()
            if not done:
                import signal  # only a raising read needs it

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_parser(path, start, stop) -> tuple:
    """Fork a child that sends ``_parse_range(path, start, stop, 1)`` down a pipe.

    Returns the child's pid and the pipe's read end.  The child writes
    nothing else, runs no BLAS and always ends with ``os._exit``: nonzero
    if anything raised, so its output buffers and exit handlers never run.
    Python 3.12 and later warn after forking a process that runs threads
    (importing NumPy starts OpenBLAS threads); that warning is ignored,
    since the child takes no lock another thread could hold, and an error
    filter would raise it here with the child's pid lost.
    """
    rfd, wfd = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            times, vocab, codes, lines = _parse_range(path, start, stop, 1)
            vocab = json.dumps(vocab).encode("ascii")
            with open(wfd, "wb") as out:
                out.write(np.array([times.shape[0], lines, len(vocab)], np.int64).tobytes())
                out.write(times)
                out.write(codes)
                out.write(vocab)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _receive(pipe):
    """The ``_parse_range`` result a child wrote to ``pipe``, or None if it is short."""
    head = pipe.read(24)
    if len(head) < 24:
        return None
    n, lines, vocab_bytes = np.frombuffer(head, np.int64).tolist()
    body = pipe.read(12 * n + vocab_bytes)
    if len(body) < 12 * n + vocab_bytes:
        return None
    times = np.frombuffer(body, np.float64, n)
    codes = np.frombuffer(body, np.int32, n, 8 * n)
    return times, json.loads(body[12 * n :]), codes, lines


def _parse_range(path, start, stop, first_lineno) -> tuple:
    """Times, ids and line count of the bytes ``[start, stop)`` of ``path``.

    ``start`` is 0 or just after a ``\\n``, and ``stop`` is just after one,
    or None for the end of the file.  The bytes are read about
    ``_CHUNK_BYTES`` at a time (finishing the last line), decoded as
    UTF-8 (invalid bytes fail with their line), with ``\\r\\n`` and a bare
    ``\\r`` read as ``\\n``, as a text-mode read does, and each chunk goes to
    ``_parse_chunk``; the first line is line ``first_lineno``.  Returns
    ``(times, vocab, codes, lines)``: the ``i``-th event's id is
    ``vocab[codes[i]]``, and ``lines`` counts the newlines read.
    """
    times = []
    codes = []
    code_of = _Codes()
    lineno = first_lineno
    pos = start
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        while data := fh.read(_CHUNK_BYTES if stop is None else min(_CHUNK_BYTES, stop - pos)):
            if not data.endswith(b"\n"):
                data += fh.readline(-1 if stop is None else stop - pos - len(data))
            pos += len(data)
            try:
                text = _text_mode(data.decode("utf-8"))
            except UnicodeDecodeError as exc:
                head = _text_mode(data[: exc.start].decode("utf-8"))
                line, column = lineno + head.count("\n"), len(head) - head.rfind("\n")
                raise DataFormatError(
                    f"{path}:{line}: bad event line (invalid UTF-8 at column {column}: {exc.reason})"
                ) from exc
            part, ids = _parse_chunk(text, path, lineno)
            times.append(part)
            codes.append(np.fromiter(map(code_of.__getitem__, ids), np.int32, len(ids)))
            lineno += text.count("\n")  # only the last chunk can end without one
    if not times:
        return np.empty(0), [], np.empty(0, np.int32), 0
    return np.concatenate(times), list(code_of), np.concatenate(codes), lineno - first_lineno


def _text_mode(text: str) -> str:
    """``text`` with ``\\r\\n`` and a bare ``\\r`` read as ``\\n``, as a text-mode read does."""
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


class _Codes(dict):
    """Id -> code, numbering ids in order of first lookup.

    A lookup that finds its id is ``dict``'s own, so ``map`` of
    ``__getitem__`` codes a list of ids with no Python frame but one per
    new id.
    """

    def __missing__(self, key):
        code = self[key] = len(self)
        return code


def _parse_chunk(text, path, first_lineno) -> tuple[np.ndarray, list]:
    """Times and source ids of the lines in ``text``, which start at line ``first_lineno``.

    When every line is canonical, one ``fullmatch`` checks them all, two
    string passes cut out the times and ids, and one NumPy call reads the
    times.  Any other chunk is read line by line, with the same result for
    canonical lines.
    """
    if _CANONICAL_EVENT.fullmatch(text):
        body = text[len('{"t": ') : -3 if text.endswith("\n") else -2]
        tokens = body.replace(_LINE_SEP, _SRC_SEP).split(_SRC_SEP)
        times = np.array(tokens[0::2], dtype=np.float64)
        # JSON reads the integer token -0 as 0, and an integer too large for a
        # float fails, where NumPy gives -0.0 and inf: such chunks go per line
        if np.isfinite(times).all() and not np.signbit(times[times == 0.0]).any():
            return times, tokens[1::2]
    return _parse_lines(text.split("\n"), path, first_lineno)


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


#: Events ``save_events`` formats and writes at a time.
_SAVE_CHUNK = 1 << 16


def save_events(stream: EventStream, path) -> None:
    """Write ``stream`` as JSON lines, ``json.dumps({"t": float(t), "src": str(src)})`` each.

    A chunk of events is formatted in one pass and written with one call.
    A finite time is its float ``repr``, which is what ``json.dumps``
    writes; a chunk holding a non-finite time has ``json.dumps`` spell
    its times (``NaN``, ``Infinity``).  Ids are escaped as ``json.dumps``
    escapes them (ASCII only).
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(stream), _SAVE_CHUNK):
            times = stream.times[lo : lo + _SAVE_CHUNK]
            spell = float.__repr__ if np.isfinite(times).all() else json.dumps
            ts = map(spell, times.tolist())
            ids = map(encode_basestring_ascii, map(str, stream.sources[lo : lo + _SAVE_CHUNK].tolist()))
            fh.write("".join(map('{{"t": {}, "src": {}}}\n'.format, ts, ids)))


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
    # code the windowed sources and sort the codes once: an account's events
    # are then one run of ``order``, and a feed merges its followees' runs
    code_of = _Codes()
    codes = np.fromiter(map(code_of.__getitem__, windowed.sources.tolist()), np.int32, len(windowed))
    order = np.argsort(codes, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(codes, minlength=len(code_of)))))

    def from_sources(wanted) -> EventStream:
        runs = [order[bounds[c] : bounds[c + 1]] for c in map(code_of.get, wanted) if c is not None]
        index = np.sort(np.concatenate([order[:0], *runs]))
        return EventStream(windowed.times[index], windowed.sources[index])

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


#: Followers ``write_profile_csv`` formats at a time; bounds its scratch
#: strings whatever the number of followers.
_PROFILE_BLOCK = 64


def write_profile_csv(profile: SignificanceProfile, path) -> None:
    """Write ``profile``; the bytes equal one ``csv.writerow`` per row.

    A block of followers is formatted at a time: each distinct value is
    spelled (``repr``) once per block, each follower's id is quoted once
    as ``csv`` quotes it, and the block's rows come out of one ``%``
    formatting of a template built from the quoted ids.
    """
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
        rows = [f",{b},%s\n" for b in range(bucket_count(profile.granularity))]
        quoted = io.StringIO()
        # a "\r\n" terminator makes csv quote an id holding "\r" as well as "\n"
        quote = csv.writer(quoted, lineterminator="\r\n")
        fids = list(profile.values)
        for lo in range(0, len(fids), _PROFILE_BLOCK):
            block = fids[lo : lo + _PROFILE_BLOCK]
            template = []
            for fid in block:
                # the id cell exactly as writerow would quote it, before each row
                quoted.seek(0)
                quoted.truncate()
                quote.writerow([fid, ""])
                head = quoted.getvalue()[:-3].replace("%", "%%")
                template.append(head + head.join(rows))
            vecs = np.stack([profile.values[fid] for fid in block])
            # keyed by bits, so 0.0 and -0.0 stay apart
            distinct, cell = np.unique(vecs.view(np.int64), return_inverse=True)
            spelled = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), object)
            fh.write("".join(template) % tuple(spelled[cell.reshape(-1)].tolist()))


def read_profile_csv(path) -> SignificanceProfile:
    """Read a profile ``write_profile_csv`` wrote; the ``#`` lines before the header are its metadata."""
    meta: dict[str, str] = {}
    # newline="": a quoted id keeps its "\r" and "\n"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip().split(" ")[0] if value else ""
            line = fh.readline()
        for key in ("granularity", "epoch", "laplace"):
            if key not in meta:
                raise DataFormatError(f"{path}: profile metadata is missing {key!r}")
        reader = csv.reader(itertools.chain([line], fh))
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
