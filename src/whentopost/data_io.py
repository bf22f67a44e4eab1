"""File formats: event logs, follower graphs, manifests, reports, summaries, profiles.

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
  parse's text and scratch then live in the child, and only its pickled
  result (each event's time and id code, and the child's distinct ids)
  comes back through a pipe.  The ranges are copied in file order into
  one times and one codes array, each allocated once, each range's codes
  remapped through one table of the ids in order of first appearance,
  so times, codes, ids, warnings and errors are those of one range.
  Python 3.12 and later warn when a process that runs threads forks, and
  importing NumPy starts OpenBLAS threads: the read ignores that warning,
  since the children only parse text and run no BLAS.
* Network: headerless CSV, one ``broadcaster_id,follower_id`` edge per line.
* Manifest: ``key = value`` text pointing at the two files and fixing the
  epoch, window and broadcaster.

  All three inputs are read as UTF-8 with universal newlines, and a byte
  that is not UTF-8 fails with its ``file:line`` and column.
* Reports: CSV with the fixed header
  ``run,seed,policy,posts,position_over_time,time_at_top,normalized_position,normalized_time_at_top``.
* Summaries: CSV with the fixed header
  ``run,policy,metric,n,mean,stderr,median,q25,q75``, one row per run,
  policy and metric (``position_over_time``, then ``time_at_top``),
  sorted by (run, policy): each metric's ``aggregate`` over the seeds.
* Profiles: CSV of ``follower_id,bucket_index,value`` rows, preceded by
  ``#``-comment metadata lines (granularity, epoch, normalization).  The
  rows of 64 followers are built as one string: each id is quoted once
  as ``csv`` quotes it, each distinct value is spelled once, and one
  ``%`` formatting fills them in, so the bytes equal one ``writerow`` per
  row while the scratch stays bounded.

Floats are written with ``repr``, which round-trips exactly: an event log
that ``save_events`` wrote loads back bit for bit, and so do reports and
profiles read back as ``tests/reference.py`` reads them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import re
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .feed_sim import Feeds
from .point_process import _dedupe_increasing
from .significance import NORMALIZATION, SignificanceProfile, bucket_count, estimate_significance

__all__ = [
    "EventLog",
    "load_events",
    "save_events",
    "Network",
    "load_network",
    "Manifest",
    "load_manifest",
    "ReplayDataset",
    "build_replay_dataset",
    "REPORT_HEADER",
    "write_report_csv",
    "write_summary_csv",
    "write_profile_csv",
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


@dataclass(frozen=True, eq=False)
class EventLog:
    """A parsed log: event ``i`` at ``times[i]`` (finite, strictly increasing), from ``ids[codes[i]]``.

    ``codes`` is ``int32`` and ``ids`` the distinct ids, an object array.
    Logs compare by identity: a generated ``__eq__`` over arrays raises.
    """

    times: np.ndarray
    codes: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        codes = np.asarray(self.codes)
        ids = np.asarray(self.ids, dtype=object)
        if times.ndim != 1 or codes.shape != times.shape or ids.ndim != 1:
            raise ValueError("times and codes must be parallel 1-d arrays, and ids 1-d")
        if not _increasing(times):
            raise ValueError("event times must be strictly increasing")
        if times.size and not np.isfinite(times[[0, -1]]).all():  # increasing: any NaN or inf is at an end
            raise ValueError("event times must be finite")
        if codes.size and (codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= ids.shape[0]):
            raise ValueError(f"source codes must be integers in [0, {ids.shape[0]})")
        if len(set(ids.tolist())) != ids.shape[0]:
            raise ValueError("ids must be distinct")
        self.__dict__.update(times=times, codes=codes.astype(np.int32, copy=False), ids=ids)

    def __len__(self) -> int:
        return int(self.times.shape[0])


def _increasing(times: np.ndarray) -> bool:
    """Whether ``times`` strictly increases; compares neighbours with no ``np.diff`` temporary."""
    return bool(np.all(times[1:] > times[:-1]))


def load_events(path) -> EventLog:
    """Read a JSON-lines event log.

    Out-of-order lines are sorted with a warning; coincident times are
    nudged one float step apart with a warning, so every event keeps a
    distinct timestamp.  Malformed lines and non-finite times fail with
    their line number.
    Each event's source is a code into the log's distinct ids, which are
    listed in order of first appearance in the file.  A large log is
    parsed in byte ranges on up to one CPU each (see :func:`_ranges`);
    each range's codes are remapped through one table of the ids, so the
    result is the same as from one range.

    Each range comes back as a list of chunk arrays.  ``times`` and
    ``codes`` are then allocated once each and filled range by range,
    each range dropped once copied, so the read peaks near twice the
    bytes it returns.  A log that is in order and has no tie is only
    compared with itself shifted by one event.
    """
    parts = _parse_ranges(path, _ranges(path))
    n = sum(t.shape[0] for chunk_times, _, _ in parts for t in chunk_times)
    times = np.empty(n)
    codes = np.empty(n, np.int32)
    code_of = _Codes()  # each range's codes through one table of every range's ids
    at = 0
    for k, (chunk_times, vocab, chunk_codes) in enumerate(parts):
        parts[k] = None  # the range's arrays go once copied
        table = np.fromiter(map(code_of.__getitem__, vocab), np.int32, len(vocab))
        for t, c in zip(chunk_times, chunk_codes):
            times[at : at + t.shape[0]] = t
            codes[at : at + t.shape[0]] = table[c]
            at += t.shape[0]
        del chunk_times, chunk_codes  # the last range too, before any sort
    if not _increasing(times):
        if np.any(times[1:] < times[:-1]):
            warnings.warn(f"{path}: events out of order; sorting", stacklevel=2)
            order = np.argsort(times, kind="stable")
            times = times[order]
            codes = codes[order]
        if not _increasing(times):  # a tie
            times, nudged = _dedupe_increasing(times)
            warnings.warn(
                f"{path}: nudged {nudged} coincident event(s) one float step apart",
                stacklevel=2,
            )
    return EventLog(times, codes, np.array(list(code_of), dtype=object))


def _read_cpu_max() -> str | None:
    """cgroup v2's ``"<quota> <period>"`` (``"max <period>"``: none); None if unreadable."""
    try:
        with open("/sys/fs/cgroup/cpu.max", encoding="ascii") as fh:
            return fh.read()
    except (OSError, ValueError):
        return None


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or see its affinity.

    The affinity count, lowered to ``max(1, quota // period)`` CPUs when a
    cgroup v2 ``cpu.max`` sets a quota.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    cpus = len(os.sched_getaffinity(0))
    quota, _, period = (_read_cpu_max() or "max").strip().partition(" ")
    if quota.isdigit() and period.isdigit() and int(period) > 0:
        cpus = min(cpus, max(1, int(quota) // int(period)))
    return cpus


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
    one and pickles back what ``_parse_range`` returns, so each range is
    ``(times, vocab, codes)``, with ``times`` and ``codes`` lists of
    parallel chunk arrays, wherever it was parsed.  A child does not know
    the line its range starts on, so when it fails (or cannot be forked,
    or its pickle is cut short) this process parses its range again,
    counting lines from the ranges before it: a bad line fails with the
    same ``file:line`` error as in one range.  Only this process's own
    children write to the pipes it unpickles.  Every child is reaped
    before this returns or raises, and killed first when it raises.
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
                    try:
                        part = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):  # a payload cut short, or none
                        pass
                if os.waitpid(pid, 0)[1] != 0:
                    part = None
                del children[k]
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
    """Fork a child that pickles ``_parse_range(path, start, stop, 1)`` down a pipe.

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
            with open(wfd, "wb") as out:
                pickle.dump(_parse_range(path, start, stop, 1), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _parse_range(path, start, stop, first_lineno) -> tuple:
    """Times, ids and line count of the bytes ``[start, stop)`` of ``path``.

    ``start`` is 0 or just after a ``\\n``, and ``stop`` is just after one,
    or None for the end of the file.  The bytes are read about
    ``_CHUNK_BYTES`` at a time (finishing the last line), decoded as
    UTF-8 (invalid bytes fail with their line), with ``\\r\\n`` and a bare
    ``\\r`` read as ``\\n``, as a text-mode read does, and each chunk goes to
    ``_parse_chunk``; the first line is line ``first_lineno``.  Returns
    ``(times, vocab, codes, lines)``: ``times`` and ``codes`` are lists of
    each chunk's arrays, not joined, the ``i``-th event's id is
    ``vocab[codes[i]]`` over their concatenation, and ``lines`` counts the
    newlines read.
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
            text = _decode(data, path, lineno, "bad event line")
            part, ids = _parse_chunk(text, path, lineno)
            times.append(part)
            codes.append(np.fromiter(map(code_of.__getitem__, ids), np.int32, len(ids)))
            lineno += text.count("\n")  # only the last chunk can end without one
    return times, list(code_of), codes, lineno - first_lineno


def _decode(data: bytes, path, first_lineno: int, what: str) -> str:
    """``data`` as a text-mode read gives it: UTF-8, with ``\\r\\n`` and a bare ``\\r`` read as ``\\n``.

    ``data`` starts at line ``first_lineno`` of ``path``.  A byte that is not
    UTF-8 fails as ``what`` on its line, naming its column.
    """
    try:
        return _text_mode(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        head = _text_mode(data[: exc.start].decode("utf-8"))
        line, column = first_lineno + head.count("\n"), len(head) - head.rfind("\n")
        raise DataFormatError(
            f"{path}:{line}: {what} (invalid UTF-8 at column {column}: {exc.reason})"
        ) from exc


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
        # float fails, where NumPy gives -0.0 and inf: such chunks go per line,
        # as does one with a non-finite time, which fails there with its line
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
        if not math.isfinite(t):
            raise DataFormatError(f"{path}:{lineno}: event time must be finite, got {t!r}")
        times.append(t)
        ids.append(src)
    return np.array(times, dtype=np.float64), ids


#: Events ``save_events`` formats and writes at a time.
_SAVE_CHUNK = 1 << 16


def save_events(log: EventLog, path) -> None:
    """Write ``log`` as JSON lines, ``json.dumps({"t": float(t), "src": str(src)})`` each.

    Each event's id is ``ids[codes]``, escaped as ``json.dumps`` escapes
    it (ASCII only); each distinct id is escaped once.  A chunk of events
    is formatted in one pass and written with one call.  Each time is its
    float ``repr``, which is what ``json.dumps`` writes for the finite
    times an ``EventLog`` holds.
    """
    spelled = np.array([encode_basestring_ascii(str(i)) for i in log.ids.tolist()], dtype=object)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for lo in range(0, len(log), _SAVE_CHUNK):
            ts = map(float.__repr__, log.times[lo : lo + _SAVE_CHUNK].tolist())
            ids = spelled[log.codes[lo : lo + _SAVE_CHUNK]].tolist()
            fh.write("".join(map('{{"t": {}, "src": {}}}\n'.format, ts, ids)))


# ---------------------------------------------------------------------------
# follower graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Network:
    """Who-follows-whom, as two adjacency maps over string ids."""

    followers_of: dict
    followees_of: dict

    @classmethod
    def from_edges(cls, edges) -> "Network":
        """Build from (broadcaster_id, follower_id) pairs; duplicates collapse."""
        followers_of: dict[str, set] = {}
        followees_of: dict[str, set] = {}
        for b, f in edges:
            followers_of.setdefault(b, set()).add(f)
            followees_of.setdefault(f, set()).add(b)
        return cls(followers_of, followees_of)

    def followers(self, broadcaster: str) -> list:
        return sorted(self.followers_of.get(broadcaster, ()))


def load_network(path) -> Network:
    """Read a headerless broadcaster_id,follower_id edge list; duplicates collapse."""
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path, 1, "bad network line")
    edges = []
    for lineno, row in enumerate(csv.reader(io.StringIO(text)), start=1):
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
    with open(path, "rb") as fh:
        text = _decode(fh.read(), path, 1, "bad manifest line")
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise DataFormatError(f"{path}:{lineno}: {key} is set again (first on line {linenos[key]})")
        fields[key] = value.strip()
        linenos[key] = lineno
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


@dataclass(eq=False)
class ReplayDataset:
    """Everything a replay run needs, cut out of one event log; compares by identity.

    It keeps no reference to the log or the follower graph it was cut
    from, so a caller that drops them frees them before the run.
    """

    broadcaster: str
    follower_ids: list
    feeds: Feeds  # the window (t0, tf], and one feed per follower without the broadcaster's posts
    true_posts: np.ndarray  # the broadcaster's post times on (t0, tf]
    profile: SignificanceProfile | None  # from the followers' own events in the whole log; None without a granularity


def build_replay_dataset(
    events: EventLog,
    network: Network,
    broadcaster: str,
    epoch: float,
    t0: float,
    tf: float,
    max_followees: int = 500,
    granularity: str | None = None,
    laplace: float = 1.0,
) -> ReplayDataset:
    """Cut one broadcaster's replay problem out of a shared event log.

    Each retained follower's feed is every event from their other
    followees inside (t0, tf].  Followers following more than
    ``max_followees`` accounts are dropped (their feeds drown everyone
    out and bloat the replay).  A broadcaster with no retained
    followers cannot be replayed.  Every array of the dataset is a copy,
    so it holds neither ``events`` nor ``network``.  With a
    ``granularity``, the retained followers' profile is estimated from
    ``events`` as ``estimate-significance --follower`` estimates it.
    """
    followers = network.followers(broadcaster)
    retained = [f for f in followers if len(network.followees_of.get(f, ())) <= max_followees]
    if not retained:
        raise DataFormatError(
            f"broadcaster {broadcaster!r} has no retained followers "
            f"(started with {len(followers)}; followee cap {max_followees})"
        )
    lo, hi = events.times.searchsorted([t0, tf], "right")  # the events on (t0, tf]
    times, codes = events.times[lo:hi], events.codes[lo:hi]
    # sort the window's codes once: an account's events are then one run
    # of ``order``, and a feed merges its followees' runs
    order = np.argsort(codes, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(codes, minlength=len(events.ids)))))
    code_of = dict(zip(events.ids.tolist(), range(len(events.ids))))

    def from_sources(wanted) -> np.ndarray:  # the window's indices of their events, in time order
        runs = [order[bounds[c] : bounds[c + 1]] for c in map(code_of.get, wanted) if c is not None]
        return np.sort(np.concatenate([order[:0], *runs]))

    index = [from_sources(set(network.followees_of.get(f, ())) - {broadcaster}) for f in retained]
    feeds = Feeds(times[np.concatenate(index)], np.cumsum([0] + [i.shape[0] for i in index]), t0, tf)
    return ReplayDataset(
        broadcaster=broadcaster,
        follower_ids=retained,
        feeds=feeds,
        true_posts=times[from_sources({broadcaster})],
        profile=None if granularity is None else estimate_significance(events, retained, epoch, granularity, laplace),
    )


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

REPORT_HEADER = (
    "run,seed,policy,posts,position_over_time,time_at_top,"
    "normalized_position,normalized_time_at_top"
)


def write_report_csv(reports, path) -> None:
    """Write reports sorted by (run, policy, seed); reruns are byte-identical."""
    rows = sorted(reports, key=lambda r: (r.run, r.policy, r.seed))
    with open(path, "w", encoding="utf-8", newline="") as fh:
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


#: The ``aggregate`` statistics a summary row spells as floats, after its count.
_SUMMARY_STATS = ("mean", "stderr", "median", "q25", "q75")


def write_summary_csv(reports, path) -> None:
    """Write each (run, policy)'s ``aggregate`` of both metrics over its seeds; reruns are byte-identical."""
    # imported here, not with the module: importing metrics while data_io
    # loads put 2-4 ms (10 of 10 pairs) on every estimate-significance
    # command of the benchmark's profile-log workload, which never summarizes
    from .metrics import aggregate

    by_policy: dict = {}
    for r in reports:
        by_policy.setdefault((r.run, r.policy), []).append(r)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "policy", "metric", "n", *_SUMMARY_STATS])
        for run, policy in sorted(by_policy):
            for metric in ("position_over_time", "time_at_top"):
                stats = aggregate(getattr(r, metric) for r in by_policy[run, policy])
                writer.writerow([run, policy, metric, stats["n"], *(_fmt(stats[k]) for k in _SUMMARY_STATS)])


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
            f"# normalization = {NORMALIZATION} "
            "(each follower's peak bucket is scaled to 1; values are not probabilities)\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["follower_id", "bucket_index", "value"])
        rows = [f",{b},%s\n" for b in range(bucket_count(profile.granularity))]
        quoted = io.StringIO()
        # a "\r\n" terminator makes csv quote an id holding "\r" as well as "\n"
        quote = csv.writer(quoted, lineterminator="\r\n")
        for lo in range(0, len(profile.ids), _PROFILE_BLOCK):
            template = []
            for fid in profile.ids[lo : lo + _PROFILE_BLOCK]:
                # the id cell exactly as writerow would quote it, before each row
                quoted.seek(0)
                quoted.truncate()
                quote.writerow([fid, ""])
                head = quoted.getvalue()[:-3].replace("%", "%%")
                template.append(head + head.join(rows))
            # keyed by bits, so 0.0 and -0.0 stay apart
            block = profile.values[lo : lo + _PROFILE_BLOCK]
            distinct, cell = np.unique(block.view(np.int64), return_inverse=True)
            spelled = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), object)
            fh.write("".join(template) % tuple(spelled[cell.reshape(-1)].tolist()))

