"""Hot numeric kernels, compiled with numba when available.

Every kernel is written once in nopython-compatible Python and compiled
with ``numba.njit`` when numba is importable and the ``WHENTOPOST_NUMBA``
environment variable is not ``0``/``false``/``off``.  Otherwise the
same source runs as plain Python: the feed sampler as a scalar loop,
the backward induction through NumPy slices.  Only the online
controller keeps a separate fallback, a vectorized NumPy twin of its
loop.

The controller's flavors consume ``numpy.random.Generator`` streams and
draw the same values in the same order, so for a given seed they
return bitwise-identical results.  The flag therefore only changes
speed, never output.  One difference remains: the vectorized controller
draws its exponentials in bulk, a chunk of feed events at a time, so it
can leave the generator further along than the loop does.  Its callers
pass a fresh generator per run and never reuse it.  The benchmark in
``benchmarks/bench_kernels.py`` times the flavors against each other.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "sample_hawkes_times",
    "redqueen_posts",
    "oracle_decisions",
    "IMPLEMENTATIONS",
]

_ENV_FLAG = "WHENTOPOST_NUMBA"


def _numba_requested() -> bool:
    return os.environ.get(_ENV_FLAG, "1").strip().lower() not in ("0", "false", "off")


NUMBA_ENABLED = False
_njit = None
if _numba_requested():
    try:
        from numba import njit as _njit

        NUMBA_ENABLED = True
    except ImportError:  # numba absent or broken: the NumPy fallback runs
        _njit = None


def _maybe_jit(fn):
    if NUMBA_ENABLED:
        return _njit(cache=True)(fn)
    return fn


# ---------------------------------------------------------------------------
# Self-exciting feed sampler (thinning)
# ---------------------------------------------------------------------------


def _sample_hawkes_loop(t0, tf, knots, rates, alpha, w, rng, cap_hint):
    """Sample event times of a self-exciting process on (t0, tf].

    Baseline rate is piecewise constant: ``rates[k]`` on
    ``[knots[k], knots[k+1])``; the knots must cover the window.  Each
    accepted event adds ``alpha`` to the intensity, which then relaxes
    toward the baseline at speed ``w``.

    Thinning proposal: within one baseline segment the intensity is
    non-increasing between events, so the intensity just after the last
    event (or segment entry) is a valid bound.  The bound is refreshed
    at segment knots because the baseline may step up there.
    """
    nseg = rates.shape[0]
    cap = cap_hint if cap_hint > 16 else 16
    out = np.empty(cap, np.float64)
    n = 0
    seg = 0
    while seg + 1 < nseg and knots[seg + 1] <= t0:
        seg += 1
    t = t0
    excite = 0.0  # alpha-weighted sum of exp(-w (t - t_i)) over past events
    while True:
        seg_end = knots[seg + 1]
        if seg_end > tf:
            seg_end = tf
        lam_bar = rates[seg] + excite
        if lam_bar <= 0.0:
            if seg_end >= tf:
                break
            t = seg_end
            seg += 1
            continue
        delta = rng.exponential(1.0 / lam_bar)
        if delta <= 0.0:  # underflow guard: keeps times strictly increasing
            continue
        if t + delta >= seg_end:
            if seg_end >= tf:
                break
            excite *= math.exp(-w * (seg_end - t))
            t = seg_end
            seg += 1
            continue
        t = t + delta
        excite *= math.exp(-w * delta)
        if rng.random() * lam_bar <= rates[seg] + excite:
            if n == cap:
                grown = np.empty(cap * 2, np.float64)
                grown[:n] = out[:n]
                out = grown
                cap *= 2
            out[n] = t
            n += 1
            excite += alpha
    return out[:n].copy()


# ---------------------------------------------------------------------------
# Online posting controller (superposed exponential clocks)
# ---------------------------------------------------------------------------


def _clock_first_time(tau, i, mult, knots, clock_rates, tf, e_draw):
    """First tick of a clock spawned at ``tau`` for follower ``i``.

    The clock rate over time is the piecewise-constant row
    ``clock_rates[i]``, scaled by ``mult`` (a bulk of ``mult`` identical
    clocks ticks like one clock at ``mult`` times the rate).  ``e_draw``
    is a unit-exponential variate; the tick time inverts the cumulative
    rate against it.  Returns ``inf`` when the tick falls beyond ``tf``.
    """
    nseg = clock_rates.shape[1]
    seg = np.searchsorted(knots, tau, side="right") - 1
    if seg < 0:
        seg = 0
    if seg > nseg - 1:
        seg = nseg - 1
    t = tau
    rem = e_draw
    while True:
        seg_end = knots[seg + 1]
        if seg_end > tf:
            seg_end = tf
        rate = clock_rates[i, seg] * mult
        if rate > 0.0:
            cap = rate * (seg_end - t)
            if rem <= cap:
                return t + rem / rate
            rem -= cap
        if seg_end >= tf:
            return math.inf
        t = seg_end
        seg += 1


def _redqueen_posts_loop(
    feed_times,
    feed_followers,
    init_ranks,
    knots,
    clock_rates,
    t0,
    tf,
    max_posts,
    rng,
):
    """Run the online posting policy over a merged feed, returning post times.

    One exponential clock is spawned per observed feed event (and one
    bulk clock per follower with a nonzero initial rank); the pending
    candidate is the minimum tick.  A candidate commits once the next
    feed event falls at or after it; posting resets every rank and
    discards all clocks.  Draw order: initial ranks by follower index,
    then one unit-exponential per feed event.
    """
    n_followers = clock_rates.shape[0]
    m = feed_times.shape[0]
    cand = math.inf
    for i in range(n_followers):
        if init_ranks[i] > 0:
            e = rng.standard_exponential()
            tick = _clock_first_time(
                t0, i, float(init_ranks[i]), knots, clock_rates, tf, e
            )
            if tick < cand:
                cand = tick
    cap = 64
    posts = np.empty(cap, np.float64)
    n_posted = 0
    k = 0
    while True:
        t_feed = feed_times[k] if k < m else math.inf
        t_next = cand if cand <= t_feed else t_feed
        if t_next > tf or t_next == math.inf:
            break
        if cand <= t_feed:
            if n_posted == cap:
                grown = np.empty(cap * 2, np.float64)
                grown[:n_posted] = posts[:n_posted]
                posts = grown
                cap *= 2
            posts[n_posted] = cand
            n_posted += 1
            cand = math.inf
            if n_posted >= max_posts:
                break
        else:
            j = feed_followers[k]
            e = rng.standard_exponential()
            tick = _clock_first_time(t_feed, j, 1.0, knots, clock_rates, tf, e)
            if tick < cand:
                cand = tick
            k += 1
    return posts[:n_posted].copy()


#: Feed events per bulk draw in :func:`_redqueen_posts_numpy`.  Bounds its
#: temporaries and the ticks computed past an early stop (``max_posts``).
_REDQUEEN_CHUNK = 1 << 12


def _clock_first_times(tau, rows, mult, knots, clock_rates, tf, e_draw):
    """Array twin of :func:`_clock_first_time`, one clock per element.

    Clock ``n`` is spawned at ``tau[n]`` for follower ``rows[n]`` with
    multiplicity ``mult`` (a scalar, or one value per clock) and unit
    draw ``e_draw[n]``.  Each pass of the loop advances every clock that
    has not ticked by one rate segment, through the scalar version's
    float operations in the same order, so every tick has the same bits.
    """
    nseg = clock_rates.shape[1]
    out = np.full(tau.shape[0], math.inf)
    seg = np.clip(np.searchsorted(knots, tau, side="right") - 1, 0, nseg - 1)
    live = np.arange(tau.shape[0])
    t = tau
    rem = e_draw
    while live.shape[0]:
        seg_end = np.minimum(knots[seg + 1], tf)
        rate = clock_rates[rows, seg] * mult
        cap = rate * (seg_end - t)
        pos = rate > 0.0
        hit = pos & (rem <= cap)
        out[live[hit]] = t[hit] + rem[hit] / rate[hit]
        rem = np.where(pos, rem - cap, rem)
        going = ~hit & ~(seg_end >= tf)
        live = live[going]
        t = seg_end[going]
        seg = seg[going] + 1
        rem = rem[going]
        rows = rows[going]
        if np.ndim(mult):
            mult = mult[going]
    return out


def _redqueen_posts_numpy(
    feed_times,
    feed_followers,
    init_ranks,
    knots,
    clock_rates,
    t0,
    tf,
    max_posts,
    rng,
):
    """Vectorized twin of :func:`_redqueen_posts_loop` (same bits out).

    Exponentials are drawn in bulk, first the initial-rank clocks and
    then the feed clocks chunk by chunk: the same stream in the same
    order as the loop's scalar draws.  Ticks come from
    :func:`_clock_first_times`; a plain scan over the feed then applies
    the loop's commit rule.  Since a whole chunk is drawn before it is
    scanned, a run that ends inside a chunk leaves the generator further
    along than the loop leaves it; callers must not reuse it.
    """
    feed_times = np.asarray(feed_times, np.float64)
    feed_followers = np.asarray(feed_followers, np.int64)
    init_ranks = np.asarray(init_ranks)
    knots = np.asarray(knots, np.float64)
    clock_rates = np.asarray(clock_rates, np.float64)
    inf = math.inf
    cand = inf
    starters = np.flatnonzero(init_ranks[: clock_rates.shape[0]] > 0)
    if starters.shape[0]:
        e = rng.standard_exponential(starters.shape[0])
        tau = np.full(starters.shape[0], t0, np.float64)
        mult = init_ranks[starters].astype(np.float64)
        for tick in _clock_first_times(tau, starters, mult, knots, clock_rates, tf, e).tolist():
            if tick < cand:
                cand = tick
    posts = []
    m = feed_times.shape[0]
    for lo in range(0, m, _REDQUEEN_CHUNK):
        times = feed_times[lo : lo + _REDQUEEN_CHUNK]
        e = rng.standard_exponential(times.shape[0])
        ticks = _clock_first_times(
            times, feed_followers[lo : lo + _REDQUEEN_CHUNK], 1.0, knots, clock_rates, tf, e
        )
        for t_feed, tick in zip(times.tolist(), ticks.tolist()):
            if cand <= t_feed:
                if cand > tf or cand == inf:
                    return np.array(posts, np.float64)
                posts.append(cand)
                cand = inf
                if len(posts) >= max_posts:
                    return np.array(posts, np.float64)
            if t_feed > tf or t_feed == inf:
                return np.array(posts, np.float64)
            if tick < cand:
                cand = tick
    if cand <= tf and cand != inf:
        posts.append(cand)
    return np.array(posts, np.float64)


# ---------------------------------------------------------------------------
# Clairvoyant schedule (backward induction over the revealed feed)
# ---------------------------------------------------------------------------


def _oracle_decisions(widths, r0, q, s):
    """Backward induction over post/hold decisions on a revealed feed.

    Decision stages k = 0..m sit at the window start and after each of
    the m feed events; ``widths[k]`` is the length of the interval that
    follows stage k.  The controlled rank recursion is
    ``r_{k+1} = (r_k + 1) * (1 - u_k)`` with stage cost
    ``0.5 * s * widths[k] * r_{k+1}**2 + 0.5 * q * u_k`` and terminal
    cost ``0.5 * r_{m+1}**2``.  Returns the 0/1 decision vector; ties
    resolve to holding.

    For finite inputs the value function ``V_k`` is nondecreasing in
    rank, and float ``+``, ``*`` and ``<`` are monotone, so each stage
    posts iff ``r >= T_k`` and ``V_k(r)`` is the stage's post cost from
    ``T_k`` on.  Two swapped buffers hold a prefix of ``V_{k+1}``: its
    values below ``T_{k+1}``, then its post cost, written out on demand
    in doubling chunks.  Memory is O(r0 + m) and a stage costs
    O(T_k + T_{k+1}), at worst O(r0 + m).  The float expressions are
    those of the full ``(m+2) x (r0+m+2)`` value table, so the decisions
    match it bit for bit.
    """
    mp1 = widths.shape[0]  # m + 1 decision stages
    size = r0 + mp1 + 1  # ranks 0 .. r0+m+1 at the terminal stage
    ranks = np.arange(size).astype(np.float64)
    bumped_sq = (ranks + 1.0) * (ranks + 1.0)
    nxt = 0.5 * ranks * ranks  # terminal cost: no post region
    cur = np.empty(size, np.float64)
    n_nxt = size  # nxt[:n_nxt] holds V_{k+1}
    post_nxt = 0.0  # V_{k+1}(r) past its threshold
    thresholds = np.empty(mp1, np.int64)
    for k in range(mp1 - 1, -1, -1):
        a = 0.5 * s * widths[k]
        post = 0.5 * q + nxt[0]
        top = r0 + k + 1  # ranks 0 .. r0+k are reachable at stage k
        lo = 0
        hi = min(n_nxt - 1, top)
        while True:
            # holding from rank r costs a*(r+1)^2 + V_{k+1}(r+1); below
            # the threshold that is V_k(r), past it cur is overwritten
            hold = cur[lo:hi]
            np.multiply(a, bumped_sq[lo:hi], hold)
            np.add(hold, nxt[lo + 1 : hi + 1], hold)
            t = lo + np.searchsorted(hold, post, side="right")
            if t < hi or hi == top:
                break
            grown = min(2 * n_nxt, size)
            nxt[n_nxt:grown] = post_nxt
            n_nxt = grown
            lo = hi
            hi = min(n_nxt - 1, top)
        thresholds[k] = t
        # V_k(r) = post for r >= t; writing some of it out keeps cur[0]
        # valid when t == 0
        grown = min(t + 64, size)
        cur[t:grown] = post
        nxt, cur = cur, nxt
        n_nxt = grown
        post_nxt = post
    decisions = np.zeros(mp1, np.int8)
    r = r0
    for k in range(mp1):
        if r >= thresholds[k]:
            decisions[k] = 1
            r = 0
        else:
            r = r + 1
    return decisions


sample_hawkes_times = _maybe_jit(_sample_hawkes_loop)
_clock_first_time = _maybe_jit(_clock_first_time)

oracle_decisions = _maybe_jit(_oracle_decisions)

if NUMBA_ENABLED:
    redqueen_posts = _njit(cache=True)(_redqueen_posts_loop)
else:
    redqueen_posts = _redqueen_posts_numpy

#: Both flavors of every kernel, keyed by kernel name then flavor name.
#: The fallback flavor is always callable; the "numba" flavor is None when
#: numba is disabled.  Used by equivalence tests and the benchmark.
IMPLEMENTATIONS = {
    "sample_hawkes_times": {
        "numba": sample_hawkes_times if NUMBA_ENABLED else None,
        "fallback": _sample_hawkes_loop,
    },
    "redqueen_posts": {
        "numba": redqueen_posts if NUMBA_ENABLED else None,
        "fallback": _redqueen_posts_numpy,
    },
    "oracle_decisions": {
        "numba": oracle_decisions if NUMBA_ENABLED else None,
        "fallback": _oracle_decisions,
    },
}
