"""Independent references that tests check production code against."""

import math
from itertools import product

import numpy as np

from whentopost.control_oracle import MAX_BRUTE_FORCE_STAGES


def _value_table(widths, r0, q, s):
    """The full ``(m+2) x (r0+m+2)`` value table, one row per stage."""
    mp1 = widths.shape[0]
    size = r0 + mp1 + 1
    table = np.empty((mp1 + 1, size), np.float64)
    ranks = np.arange(size, dtype=np.float64)
    table[mp1] = 0.5 * ranks * ranks
    bumped_sq = (ranks + 1.0) * (ranks + 1.0)
    for k in range(mp1 - 1, -1, -1):
        post = 0.5 * q + table[k + 1, 0]
        top = r0 + k + 1
        hold = 0.5 * s * widths[k] * bumped_sq[:top] + table[k + 1, 1 : top + 1]
        table[k, :top] = np.minimum(post, hold)
    return table


def oracle_decisions_table(widths, r0, q, s):
    """Backward induction over the full ``(m+2) x (r0+m+2)`` value table.

    Same problem and tie rule as ``kernels.oracle_decisions``, solved
    without the threshold argument: every reachable rank of every stage
    gets its value.  Memory is quadratic in the number of stages, so
    this serves as a reference only.
    """
    widths = np.asarray(widths, np.float64)
    mp1 = widths.shape[0]
    table = _value_table(widths, r0, q, s)
    decisions = np.zeros(mp1, np.int8)
    r = r0
    for k in range(mp1):
        post = 0.5 * q + table[k + 1, 0]
        bumped = r + 1.0
        hold = 0.5 * s * widths[k] * (bumped * bumped) + table[k + 1, r + 1]
        if post < hold:
            decisions[k] = 1
            r = 0
        else:
            r = r + 1
    return decisions


def oracle_thresholds_table(widths, r0, q, s):
    """Each stage's threshold ``T_k`` read off the full value table.

    ``T_k`` is the first reachable rank whose hold cost exceeds the
    post cost, or ``r0 + k + 1`` when no reachable rank posts.
    """
    widths = np.asarray(widths, np.float64)
    table = _value_table(widths, r0, q, s)
    ranks = np.arange(table.shape[1], dtype=np.float64)
    bumped_sq = (ranks + 1.0) * (ranks + 1.0)
    thresholds = []
    for k in range(widths.shape[0]):
        top = r0 + k + 1
        hold = 0.5 * s * widths[k] * bumped_sq[:top] + table[k + 1, 1 : top + 1]
        posts = np.flatnonzero(0.5 * q + table[k + 1, 0] < hold)
        thresholds.append(int(posts[0]) if posts.size else top)
    return thresholds


def brute_force_schedule_multi(
    feeds: list[np.ndarray],
    t0: float,
    tf: float,
    q: float,
    s=1.0,
    r0s=None,
) -> tuple[np.ndarray, float]:
    """Exhaustive schedule search with one rank per follower (tiny scale).

    Decision stages sit at the window start and after each merged feed
    event; ranks evolve physically (a stage only bumps the followers
    whose feeds fired there).  Returns the best 0/1 decision vector and
    its cost 0.5*sum_i s_i*integral(r_i^2) + 0.5*q*posts +
    0.5*sum_i r_i(tf)^2.
    """
    n = len(feeds)
    feeds = [np.asarray(f, dtype=np.float64) for f in feeds]
    s = np.broadcast_to(np.asarray(s, dtype=np.float64), (n,))
    r0s = np.zeros(n) if r0s is None else np.asarray(r0s, dtype=np.float64)
    merged = np.concatenate(feeds) if n else np.empty(0)
    merged = np.unique(merged[(merged > t0) & (merged <= tf)])
    stages = merged.shape[0] + 1
    if stages > MAX_BRUTE_FORCE_STAGES:
        raise ValueError(f"brute force is capped at {MAX_BRUTE_FORCE_STAGES} stages")
    # bumps[i, k]: how many events follower i's feed got at stage k >= 1
    bumps = np.zeros((n, stages), dtype=np.float64)
    for i, f in enumerate(feeds):
        f = f[(f > t0) & (f <= tf)]
        idx = np.searchsorted(merged, f)
        np.add.at(bumps[i], idx + 1, 1.0)
    widths = np.diff(np.concatenate([[t0], merged, [tf]]))
    best_cost = math.inf
    best = None
    for dec in product((0.0, 1.0), repeat=stages):
        r = r0s.copy()
        cost = 0.0
        for k in range(stages):
            r = (r + bumps[:, k]) * (1.0 - dec[k])
            cost += 0.5 * widths[k] * float(np.sum(s * r * r)) + 0.5 * q * dec[k]
        cost += 0.5 * float(np.sum(r * r))
        if cost < best_cost:
            best_cost = cost
            best = dec
    return np.asarray(best, dtype=np.int8), float(best_cost)


def replay_feeds_by_mask(events, network, broadcaster, t0, tf, max_followees=500):
    """``build_replay_dataset``'s feeds and true posts, one boolean mask over the window per feed.

    Each feed masks the windowed log with a table of its followees' codes:
    a full pass over the window per follower.
    """
    from whentopost.point_process import EventStream

    windowed = events.window(t0, tf)
    code_of: dict = {}
    codes = np.array([code_of.setdefault(s, len(code_of)) for s in windowed.sources.tolist()], np.int64)

    def from_sources(wanted):
        table = np.zeros(len(code_of), bool)
        table[[code_of[s] for s in wanted if s in code_of]] = True
        mask = table[codes]
        return EventStream(windowed.times[mask], windowed.sources[mask])

    retained = [
        f for f in network.followers(broadcaster)
        if len(network.followees_of.get(f, ())) <= max_followees
    ]
    feeds = [from_sources(set(network.followees_of.get(f, ())) - {broadcaster}) for f in retained]
    return feeds, from_sources({broadcaster})
