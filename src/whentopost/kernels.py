"""Hot numeric kernels, compiled with numba when it imports.

Every kernel is written once as a scalar loop in nopython-compatible
Python.  When numba imports, ``numba.njit`` compiles the loop and it
runs; otherwise a fallback does.  The feed sampler (a self-exciting feed
with a constant baseline, by thinning) falls back to its loop run as
plain Python.  The online controller and the backward induction keep
separate fallbacks, since their loops are slow in plain Python: the
controller's is a vectorized NumPy twin, and the induction's scans short
stages in plain Python and long ones in NumPy slices.  Tests hold both
to their loops.

Both flavors of a kernel return bitwise-identical results; the
controller's consume ``numpy.random.Generator`` streams and draw the
same values in the same order.  Whether numba imports therefore only
changes speed, never output.  One difference remains: the vectorized
controller draws its exponentials in bulk, a chunk of feed events at a
time, so it can leave the generator further along than the loop does.
Its callers pass a fresh generator per run and never reuse it.  The
benchmark in ``benchmarks/bench_kernels.py`` times the flavors against
each other.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "sample_hawkes_times",
    "redqueen_posts",
    "oracle_decisions",
    "IMPLEMENTATIONS",
]

try:
    from numba import njit
except ImportError:  # numba absent or broken: the fallbacks run
    njit = None

#: Whether the kernels bound below are the compiled flavors.
NUMBA_ENABLED = njit is not None


# ---------------------------------------------------------------------------
# Self-exciting feed sampler (thinning)
# ---------------------------------------------------------------------------


def _sample_hawkes_loop(t0, tf, lam0, alpha, w, rng, cap_hint, max_events=2**62):
    """Sample event times of a self-exciting process on (t0, tf].

    The intensity starts at the constant baseline ``lam0``; each accepted
    event adds ``alpha`` to it, and it relaxes toward ``lam0`` at speed
    ``w``.

    Thinning proposal: the intensity is non-increasing between events,
    so the intensity just after the last event (or at ``t0``) is a valid
    bound.

    Sampling stops at the event after the ``max_events``-th: a result
    longer than ``max_events`` means the window held more events than
    that, and is cut short.
    """
    cap = cap_hint if cap_hint > 16 else 16
    out = np.empty(cap, np.float64)
    n = 0
    t = t0
    excite = 0.0  # alpha-weighted sum of exp(-w (t - t_i)) over past events
    while True:
        lam_bar = lam0 + excite
        if lam_bar <= 0.0:
            break
        delta = rng.exponential(1.0 / lam_bar)
        if delta <= 0.0:  # underflow guard: keeps times strictly increasing
            continue
        if t + delta >= tf:
            break
        t = t + delta
        excite *= math.exp(-w * delta)
        if rng.random() * lam_bar <= lam0 + excite:
            if n == cap:
                grown = np.empty(cap * 2, np.float64)
                grown[:n] = out[:n]
                out = grown
                cap *= 2
            out[n] = t
            n += 1
            if n > max_events:
                break
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


#: Feed events per bulk draw in :func:`_redqueen_posts_numpy`, which bounds
#: its temporaries.  A run that ``max_posts`` may stop early (one with fewer
#: allowed posts than feed events) draws ``_REDQUEEN_FIRST_CHUNK`` events
#: first: a price search caps its runs a little above the target's posts,
#: and a cheap price reaches that cap within tens to hundreds of events, so
#: a full first chunk would compute thousands of ticks past the stop.  A
#: capped run that does not stop pays one more draw.  Either way the draws
#: are one stream, whatever the chunk sizes.
_REDQUEEN_CHUNK = 1 << 12
_REDQUEEN_FIRST_CHUNK = 1 << 10


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
    lo = 0
    hi = _REDQUEEN_FIRST_CHUNK if max_posts < m else _REDQUEEN_CHUNK
    while lo < m:
        times = feed_times[lo:hi]
        e = rng.standard_exponential(times.shape[0])
        ticks = _clock_first_times(times, feed_followers[lo:hi], 1.0, knots, clock_rates, tf, e)
        lo, hi = hi, hi + _REDQUEEN_CHUNK
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


def _oracle_decisions_loop(widths, r0, q):
    """Backward induction over post/hold decisions on a revealed feed.

    Decision stages k = 0..m sit at the window start and after each of
    the m feed events; ``widths[k]`` is the length of the interval that
    follows stage k.  The controlled rank recursion is
    ``r_{k+1} = (r_k + 1) * (1 - u_k)`` with stage cost
    ``0.5 * widths[k] * r_{k+1}**2 + 0.5 * q * u_k`` and terminal
    cost ``0.5 * r_{m+1}**2``.  Returns the 0/1 decision vector; ties
    resolve to holding.

    For finite inputs the value function ``V_k`` is nondecreasing in
    rank, and float ``+``, ``*`` and ``<`` are monotone, so each stage
    posts iff ``r >= T_k`` and ``V_k(r)`` is the stage's post cost
    ``0.5*q + V_{k+1}(0)`` from ``T_k`` on.  Holding from rank r costs
    ``a*(r+1)^2 + V_{k+1}(r+1)`` with ``a = 0.5*widths[k]``; a stage
    scans ranks upward and ``T_k`` is the first whose hold cost exceeds
    the post cost.  Two swapped buffers hold ``V_{k+1}`` below
    ``T_{k+1}``.  Memory is O(r0 + m) and a stage costs O(T_k), at
    worst O(r0 + m).  The float expressions are those of the full
    ``(m+2) x (r0+m+2)`` value table, so the decisions match it bit for
    bit.

    This scalar loop is what numba compiles, and run as plain Python it
    is the reference :func:`_oracle_decisions_numpy` is tested against.
    """
    mp1 = widths.shape[0]  # m + 1 decision stages
    size = r0 + mp1 + 1  # ranks 0 .. r0+m+1 at the terminal stage
    nxt = np.empty(size, np.float64)
    for r in range(size):
        nxt[r] = 0.5 * float(r) * float(r)  # terminal cost: no post region
    cur = np.empty(size, np.float64)
    n_nxt = size  # V_{k+1}(r) = nxt[r] for r < n_nxt, else post_nxt
    post_nxt = 0.0
    thresholds = np.empty(mp1, np.int64)
    for k in range(mp1 - 1, -1, -1):
        a = 0.5 * widths[k]
        post = 0.5 * q + (nxt[0] if n_nxt > 0 else post_nxt)
        top = r0 + k + 1  # ranks 0 .. r0+k are reachable at stage k
        t = top
        for r in range(top):
            bumped = r + 1.0
            hold = a * (bumped * bumped) + (nxt[r + 1] if r + 1 < n_nxt else post_nxt)
            if post < hold:
                t = r
                break
            cur[r] = hold
        thresholds[k] = t
        nxt, cur = cur, nxt
        n_nxt = t
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


#: Stages whose successor's threshold is below this many ranks scan in
#: plain Python; the rest take NumPy slices, whose ~10 us of dispatch per
#: stage only pays off on long scans.
_ORACLE_SCALAR_RANKS = 128


def _oracle_decisions_numpy(widths, r0, q):
    """:func:`_oracle_decisions_loop` with long stages done in NumPy slices.

    The recursion, the stage order and every float expression are the
    loop's.  A stage takes one of two paths, picked by the threshold
    ``T_{k+1}`` of the stage after it, which ``T_k`` usually stays near:

    * below ``_ORACLE_SCALAR_RANKS``, it scans ranks one by one in
      Python floats, with the values of ``V_{k+1}`` below ``T_{k+1}`` in
      a list.  A scan that reaches ``_ORACLE_SCALAR_RANKS`` ranks
      without finding the threshold is dropped and the stage redone as
      below;
    * otherwise it computes the hold costs of a run of ranks with two
      ufunc calls and finds the threshold with ``searchsorted``.  Two
      swapped buffers hold ``V_{k+1}``: its values below ``T_{k+1}``,
      then its post cost, written out on demand in doubling chunks.

    A stage costs O(T_k + T_{k+1}) on either path: the scan ~0.1 us a
    rank, the slices ~10 us of call overhead.  The values below the
    threshold move between list and buffer only when the path changes.
    Both paths are bitwise equal to the loop: each hold cost is the same
    product and sum of the same float64 values, rounded once per
    operation (``np.multiply`` then ``np.add`` fuse nothing), and since
    the hold costs are nondecreasing, ``searchsorted(post, "right")``
    lands on the first rank whose hold cost exceeds ``post``, which is
    where the scan stops.  Memory is O(r0 + m), as in the loop.
    """
    mp1 = widths.shape[0]
    size = r0 + mp1 + 1
    ranks = np.arange(size).astype(np.float64)
    bumped_sq = (ranks + 1.0) * (ranks + 1.0)
    cut = _ORACLE_SCALAR_RANKS
    sq = bumped_sq[:cut].tolist()
    nxt = 0.5 * ranks * ranks
    cur = np.empty(size, np.float64)
    n_nxt = size  # nxt[:n_nxt] holds V_{k+1} while vals is None
    vals = None  # else V_{k+1} below T_{k+1}, as a list
    post_nxt = 0.0  # V_{k+1}(r) past its threshold
    t = size  # T_{k+1}; the terminal stage never posts
    half_q = 0.5 * q
    widths = memoryview(np.asarray(widths, np.float64))  # Python floats, no copy
    thresholds = memoryview(np.empty(mp1, np.int64))  # Python ints in and out
    for k in range(mp1 - 1, -1, -1):
        a = 0.5 * widths[k]
        top = r0 + k + 1
        if t < cut:
            if vals is None:
                vals = nxt[:t].tolist()
            post = half_q + (vals[0] if vals else post_nxt)
            limit = top if top < cut else cut
            holds = []
            for b, v in zip(sq, vals[1 : limit + 1]):
                hold = a * b + v
                if post < hold:
                    break
                holds.append(hold)
            else:
                for b in islice(sq, len(holds), limit):
                    hold = a * b + post_nxt
                    if post < hold:
                        break
                    holds.append(hold)
            t = len(holds)
            if t < limit or limit == top:
                thresholds[k] = t
                vals = holds
                post_nxt = post
                continue
        if vals is not None:
            n = len(vals)
            nxt[:n] = vals
            n_nxt = min(n + 64, size)
            nxt[n:n_nxt] = post_nxt
            vals = None
        post = half_q + float(nxt[0])
        lo = 0
        hi = min(n_nxt - 1, top)
        while True:
            # below the threshold the hold cost is V_k(r); past it cur is
            # overwritten
            hold = cur[lo:hi]
            np.multiply(a, bumped_sq[lo:hi], hold)
            np.add(hold, nxt[lo + 1 : hi + 1], hold)
            t = lo + int(hold.searchsorted(post, "right"))
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
    decisions = bytearray(mp1)
    r = r0
    for k, t in enumerate(thresholds):
        if r >= t:
            decisions[k] = 1
            r = 0
        else:
            r += 1
    return np.frombuffer(decisions, np.int8)


if NUMBA_ENABLED:
    _clock_first_time = njit(cache=True)(_clock_first_time)

#: Both flavors of every kernel, by kernel then flavor name, from one
#: ``(name, loop, fallback)`` table; the "numba" flavor is None without
#: numba.  Used by equivalence tests and the benchmark.
IMPLEMENTATIONS = {
    name: {"numba": njit(cache=True)(loop) if NUMBA_ENABLED else None, "fallback": fallback}
    for name, loop, fallback in (
        ("sample_hawkes_times", _sample_hawkes_loop, _sample_hawkes_loop),
        ("redqueen_posts", _redqueen_posts_loop, _redqueen_posts_numpy),
        ("oracle_decisions", _oracle_decisions_loop, _oracle_decisions_numpy),
    )
}
sample_hawkes_times, redqueen_posts, oracle_decisions = (
    impls["numba" if NUMBA_ENABLED else "fallback"] for impls in IMPLEMENTATIONS.values()
)
