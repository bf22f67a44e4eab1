"""When are followers paying attention: calendar-bucket activity profiles.

A follower's own activity is bucketed by weekday (7 buckets) or by
weekday-hour (168).  Bucket values are Laplace-smoothed frequencies,
then divided by the largest bucket so every profile peaks at exactly 1.
That max-normalization (``NORMALIZATION``) is a reporting choice, not a
probability claim, and is stamped into every serialized profile so nobody
mistakes the values for calibrated probabilities.  A
:class:`SignificanceProfile` is one table, the followers' ids and a
followers x buckets array of weights, from the estimate to the profile
CSV; it unrolls into a :class:`StepSchedule`, the same rows of weights
over a window, which the controller reads.  A ``StepSchedule`` is the
package's one step table: a feed rate, and the summed rate the offline
planner is told, are one-row schedules.  A table's knots span exactly
the window it is read on, so no function takes a window beside one.

Event times are seconds relative to an epoch (itself UNIX seconds), so
calendar arithmetic is plain integer math on days-since-1970, which was
a Thursday.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRANULARITIES",
    "bucket_count",
    "bucket_index",
    "StepSchedule",
    "SignificanceProfile",
    "estimate_significance",
]

#: Seconds per calendar bucket of each granularity; a week is 7 days of
#: whole buckets, counted from Monday 00:00.
_BUCKET_SECONDS = {"weekday": 86_400, "weekday-hour": 3_600}
GRANULARITIES = tuple(_BUCKET_SECONDS)
_EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday; Monday is 0
#: Largest absolute time (UNIX seconds, either sign) taken into a calendar
#: bucket: up to it every whole second is a float64.
MAX_ABS_SECONDS = 2.0**53
#: How every profile is scaled: each follower's peak bucket is 1.
NORMALIZATION = "max"


def bucket_count(granularity: str) -> int:
    if granularity not in _BUCKET_SECONDS:
        raise ValueError(f"unknown granularity {granularity!r}; choose from {GRANULARITIES}")
    return 7 * 86_400 // _BUCKET_SECONDS[granularity]


def bucket_index(abs_seconds, granularity: str):
    """Bucket of an absolute time (UNIX seconds); vectorized."""
    count = bucket_count(granularity)
    w = _BUCKET_SECONDS[granularity]
    buckets = np.floor_divide(np.asarray(abs_seconds, dtype=np.float64), w).astype(np.int64)
    return (buckets + _EPOCH_WEEKDAY * (86_400 // w)) % count


def _check_calendar(epoch: float, *times: float) -> None:
    """Reject an ``epoch`` that puts one of ``times`` (Python floats) past ``MAX_ABS_SECONDS``."""
    if not all(abs(epoch + t) <= MAX_ABS_SECONDS for t in times):
        raise ValueError(f"epoch {epoch!r} puts a time outside +-MAX_ABS_SECONDS = 2**53 UNIX seconds")


def _normalize_table(table: np.ndarray, laplace: float) -> np.ndarray:
    """Weights of every row of an integer count table at once.

    Each row's weights are its Laplace-smoothed frequencies, divided by
    their maximum.  The counts are exact integers, so each row's sum and
    maximum are the bits the row-by-row arithmetic gives.  Each all-zero
    row warns once and becomes flat; its divisions are skipped, so
    ``laplace=0`` divides no zero by zero.
    """
    weights = table.astype(np.float64)
    totals = weights.sum(axis=1)
    empty = totals == 0
    for _ in range(int(empty.sum())):
        warnings.warn("empty activity log: falling back to a flat profile", stacklevel=3)
    full = ~empty[:, None]
    weights += laplace
    np.divide(weights, (totals + laplace * table.shape[1])[:, None], out=weights, where=full)
    weights[empty] = 1.0
    weights /= weights.max(axis=1, keepdims=True)
    return weights


@dataclass(frozen=True, eq=False)
class StepSchedule:
    """Rows of nonnegative piecewise-constant values on a shared time grid.

    ``values[i, k]`` applies on ``[knots[k], knots[k+1])``, and the
    window a reader reads is ``knots[0]`` to ``knots[-1]``.  The
    controller's attention weights hold a row per follower; a feed rate,
    and the summed rate the offline planner is told, are one-row tables.
    Schedules compare by identity: a generated ``__eq__`` over arrays
    raises.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or values.ndim != 2 or knots.shape[0] != values.shape[1] + 1:
            raise ValueError("need 1-d knots and a 2-d values table with one more knot than columns")
        # written so that NaN fails both checks
        if knots.shape[0] < 2 or not np.all(np.diff(knots) > 0):
            raise ValueError("need at least two strictly increasing knots")
        if not np.all(values >= 0):
            raise ValueError("values must be nonnegative")
        self.__dict__.update(knots=knots, values=values)


@dataclass(frozen=True, eq=False)
class SignificanceProfile:
    """Every follower's bucket weights plus the calendar anchoring them.

    Row ``i`` of the ``float64`` table ``values`` holds follower
    ``ids[i]``'s ``bucket_count(granularity)`` weights in [0, 1], peaking
    at 1 (``NORMALIZATION``); ``ids`` are distinct.  Profiles compare by
    identity: a generated ``__eq__`` over arrays raises.
    """

    granularity: str
    epoch: float
    ids: tuple
    values: np.ndarray
    laplace: float = 1.0

    def __post_init__(self):
        ids = tuple(self.ids)
        values = np.asarray(self.values, dtype=np.float64)
        shape = (len(ids), bucket_count(self.granularity))
        if values.shape != shape:
            raise ValueError(f"values must be a {shape[0]} x {shape[1]} table, got shape {values.shape}")
        if len(set(ids)) != len(ids):
            raise ValueError("follower ids must be distinct")
        # written so that NaN is outside too; the first follower to fail is named
        outside = np.flatnonzero(~((values >= 0) & (values <= 1)).all(axis=1))
        if outside.size:
            raise ValueError(f"profile for {ids[outside[0]]!r} must lie in [0, 1]")
        self.__dict__.update(ids=ids, values=values)

    def step_schedule(self, t0: float, tf: float) -> StepSchedule:
        """Unroll every follower's bucket weights into window-time step functions.

        Row ``i`` of the schedule is follower ``ids[i]``.  Its knots run
        from ``t0`` to ``tf`` and land on every bucket boundary (day or
        hour edges in absolute time) that falls inside (t0, tf) in window
        time.  An edge that rounds onto an end or outside is dropped; one
        dropped at ``t0`` gives the first segment its bucket.
        """
        if tf <= t0:
            raise ValueError("window must have positive length")
        _check_calendar(self.epoch, t0, tf)
        width = _BUCKET_SECONDS[self.granularity]
        a0 = self.epoch + t0
        first = np.floor(a0 / width) * width + width
        edges_abs = np.arange(first, self.epoch + tf, width)
        edges = edges_abs - self.epoch
        lo, hi = np.searchsorted(edges, t0, "right"), np.searchsorted(edges, tf, "left")
        knots = np.concatenate([[t0], edges[lo:hi], [tf]])
        buckets = bucket_index(np.concatenate([[a0], edges_abs])[lo : hi + 1], self.granularity)
        return StepSchedule(knots, self.values[:, buckets])


#: Log events bucketed per pass in :func:`estimate_significance`; bounds
#: the temporaries to a fixed size whatever the log length.
_CHUNK = 1 << 13


def estimate_significance(
    events,
    follower_ids,
    epoch: float,
    granularity: str = "weekday",
    laplace: float = 1.0,
) -> SignificanceProfile:
    """Profiles for each follower from their own events in a shared log.

    ``events`` is a :class:`~whentopost.data_io.EventLog` whose ids
    include the followers, with their own activity.  The profile has a
    row per distinct follower, in the order the ids first appear in
    ``follower_ids``.  A follower with no events gets the flat fallback
    (with a warning).

    One pass over the log counts every follower at once: each event's
    source code maps to its follower's row of one count table, and
    ``row * b + bucket`` indexes the cell to increment.  The map is one
    table with a row (or -1) per id of the log, so a chunk gathers its
    rows with one indexing and no per-event lookup.  The log goes through
    in fixed-size chunks; a sort (``np.unique``) counts each chunk's
    distinct cells, and the counts are added to the table by those cells,
    with no table-sized temporary such as a ``np.bincount`` per chunk
    would make.  The counts are exact integers, and the whole table is
    then normalized at once, each row with the same arithmetic, and so
    the same bits, as ``bucket_weights`` (``tests/reference.py``) on that
    follower's events alone.
    """
    b = bucket_count(granularity)
    if not (0 <= laplace and laplace * b < math.inf):
        raise ValueError(f"laplace must be finite, nonnegative and times {b} buckets finite, got {laplace!r}")
    if not math.isfinite(epoch):
        raise ValueError(f"epoch must be finite, got {epoch!r}")
    if len(events):  # log times are sorted
        _check_calendar(epoch, float(events.times[0]), float(events.times[-1]))
    ids = tuple(dict.fromkeys(follower_ids))
    row_of = dict(zip(ids, range(len(ids))))
    row_of_code = np.array([row_of.get(i, -1) for i in events.ids.tolist()], np.int64)
    table = np.zeros((len(ids), b), np.int32)
    flat = table.reshape(-1)
    for lo in range(0, len(events), _CHUNK):
        rows = row_of_code[events.codes[lo : lo + _CHUNK]]
        keep = rows >= 0
        buckets = bucket_index(epoch + events.times[lo : lo + _CHUNK][keep], granularity)
        cells, counts = np.unique(rows[keep] * b + buckets, return_counts=True)
        flat[cells] += counts
    return SignificanceProfile(granularity, float(epoch), ids, _normalize_table(table, laplace), float(laplace))
