"""When are followers paying attention: calendar-bucket activity profiles.

A follower's own activity is bucketed by weekday (7 buckets) or by
weekday-hour (168).  Bucket values are Laplace-smoothed frequencies,
then divided by the largest bucket so every profile peaks at exactly 1.
That max-normalization is a reporting choice, not a probability claim,
and is stamped into the profile (and its serialized form) so nobody
mistakes the values for calibrated probabilities.  A profile unrolls
into a :class:`StepSchedule`, the per-follower weights over a window
that the controller reads.

Event times are seconds relative to an epoch (itself UNIX seconds), so
calendar arithmetic is plain integer math on days-since-1970, which was
a Thursday.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "GRANULARITIES",
    "bucket_count",
    "bucket_index",
    "StepSchedule",
    "SignificanceProfile",
    "estimate_significance",
]

GRANULARITIES = ("weekday", "weekday-hour")
_SECONDS_PER_DAY = 86_400
_SECONDS_PER_HOUR = 3_600
_EPOCH_WEEKDAY = 3  # 1970-01-01 was a Thursday; Monday is 0


def bucket_count(granularity: str) -> int:
    if granularity == "weekday":
        return 7
    if granularity == "weekday-hour":
        return 7 * 24
    raise ValueError(f"unknown granularity {granularity!r}; choose from {GRANULARITIES}")


def bucket_index(abs_seconds, granularity: str):
    """Bucket of an absolute time (UNIX seconds); vectorized."""
    abs_seconds = np.asarray(abs_seconds, dtype=np.float64)
    days = np.floor_divide(abs_seconds, _SECONDS_PER_DAY).astype(np.int64)
    weekday = (days + _EPOCH_WEEKDAY) % 7
    if granularity == "weekday":
        return weekday
    if granularity == "weekday-hour":
        hour = (np.floor_divide(abs_seconds, _SECONDS_PER_HOUR).astype(np.int64)) % 24
        return weekday * 24 + hour
    raise ValueError(f"unknown granularity {granularity!r}; choose from {GRANULARITIES}")


def _check_laplace(laplace: float) -> None:
    if not (0 <= laplace < math.inf):
        raise ValueError("laplace smoothing must be finite and nonnegative")


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


@dataclass(frozen=True)
class StepSchedule:
    """Per-follower piecewise-constant weights on a shared time grid.

    ``values[i, k]`` applies on ``[knots[k], knots[k+1])``.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or values.ndim != 2:
            raise ValueError("knots must be 1-d and values 2-d")
        if knots.shape[0] != values.shape[1] + 1:
            raise ValueError("need one more knot than value columns")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(values < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float, n_followers: int, t0: float, tf: float) -> "StepSchedule":
        return cls(np.array([t0, tf]), np.full((n_followers, 1), float(value)))

    @property
    def n_followers(self) -> int:
        return int(self.values.shape[0])

    def value_at(self, i: int, t: float) -> float:
        k = int(np.searchsorted(self.knots, t, side="right")) - 1
        k = min(max(k, 0), self.values.shape[1] - 1)
        return float(self.values[i, k])


#: Followers whose range :class:`SignificanceProfile` checks at a time.
_CHECK_BLOCK = 64


@dataclass(frozen=True)
class SignificanceProfile:
    """Per-follower bucket weights plus the calendar anchoring them.

    ``values[follower_id]`` is a vector of ``bucket_count(granularity)``
    weights in [0, 1], peaking at 1.  ``normalization`` documents that
    scaling and travels with the profile through serialization.
    """

    granularity: str
    epoch: float
    values: dict
    laplace: float = 1.0
    normalization: str = "max"

    def __post_init__(self):
        # the range of a block of followers is checked at a time, up to the
        # first with the wrong shape; the first follower to fail is named
        b = bucket_count(self.granularity)
        fids = list(self.values)
        vecs = [np.asarray(vec, dtype=np.float64) for vec in self.values.values()]
        shaped = next((i for i, vec in enumerate(vecs) if vec.shape != (b,)), len(vecs))
        for lo in range(0, shaped, _CHECK_BLOCK):
            block = np.concatenate(vecs[lo : min(lo + _CHECK_BLOCK, shaped)]).reshape(-1, b)
            # written so that NaN is outside too
            outside = np.flatnonzero((~((block >= 0) & (block <= 1))).any(axis=1))
            if outside.size:
                raise ValueError(f"profile for {fids[lo + outside[0]]!r} must lie in [0, 1]")
        if shaped < len(vecs):
            raise ValueError(f"profile for {fids[shaped]!r} needs {b} buckets")
        self.values.update(zip(fids, vecs))

    def follower_ids(self) -> list:
        return list(self.values.keys())

    def step_schedule(self, follower_ids, t0: float, tf: float) -> StepSchedule:
        """Unroll bucket weights into window-time step functions.

        Knots land on every bucket boundary (day or hour edges in
        absolute time) that falls inside (t0, tf).
        """
        if tf <= t0:
            raise ValueError("window must have positive length")
        width = _SECONDS_PER_DAY if self.granularity == "weekday" else _SECONDS_PER_HOUR
        a0 = self.epoch + t0
        first = np.floor(a0 / width) * width + width
        edges_abs = np.arange(first, self.epoch + tf, width)
        knots = np.concatenate([[t0], edges_abs - self.epoch, [tf]])
        starts_abs = np.concatenate([[a0], edges_abs])
        buckets = bucket_index(starts_abs, self.granularity)
        values = np.empty((len(follower_ids), knots.shape[0] - 1))
        for i, fid in enumerate(follower_ids):
            if fid not in self.values:
                raise KeyError(f"no profile for follower {fid!r}")
            values[i] = self.values[fid][buckets]
        return StepSchedule(knots, values)


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

    ``events`` is an :class:`~whentopost.point_process.EventStream`
    whose sources include the followers' own activity.  A follower with
    no events gets the flat fallback (with a warning).

    One pass over the log counts every follower at once: each event's
    source maps to its follower's row of one count table, and
    ``row * b + bucket`` indexes the cell to increment.  The log goes
    through in fixed-size chunks; a sort (``np.unique``) counts each
    chunk's distinct cells, and the counts are added to the table by
    those cells, with no table-sized temporary such as a ``np.bincount``
    per chunk would make.  Each source's row is looked up by a
    ``map`` of ``dict.get``, with no Python frame per event.  The counts
    are exact integers, and the whole table is then normalized at once,
    each row with the same arithmetic, and so the same bits, as
    ``bucket_weights`` (``tests/reference.py``) on that follower's events
    alone.
    """
    _check_laplace(laplace)
    if not math.isfinite(epoch):
        raise ValueError(f"epoch must be finite, got {epoch!r}")
    b = bucket_count(granularity)
    row_of = {}
    for fid in follower_ids:
        row_of.setdefault(fid, len(row_of))
    table = np.zeros((len(row_of), b), np.int32)
    flat = table.reshape(-1)
    for lo in range(0, events.times.shape[0], _CHUNK):
        sources = events.sources[lo : lo + _CHUNK].tolist()
        rows = np.fromiter(map(row_of.get, sources, repeat(-1)), np.int64, len(sources))
        keep = rows >= 0
        buckets = bucket_index(epoch + events.times[lo : lo + _CHUNK][keep], granularity)
        cells, counts = np.unique(rows[keep] * b + buckets, return_counts=True)
        flat[cells] += counts
    weights = _normalize_table(table, laplace)
    values = dict(zip(row_of, weights))
    return SignificanceProfile(
        granularity=granularity,
        epoch=float(epoch),
        values=values,
        laplace=float(laplace),
    )
