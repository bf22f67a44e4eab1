"""Deterministic synthetic replay log for the benchmark.

Scales up the pattern of ``fixtures/replay_small/generate.py``: one week of
activity from a population of accounts with heavy-tailed (Pareto) activity
and a shared weekly rhythm shifted per account, one broadcaster with a few
dozen recorded posts inside the replay window (the first days of the
week), regular followers who each follow a handful of accounts, and a few
heavy followers who follow more accounts than the replay's followee cap
and so get dropped.

The files use the package's own formats: JSON-lines events, a headerless
``followee,follower`` network CSV and a ``key = value`` manifest.  The same
seed always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WEEK = 7 * 86_400.0
EPOCH = 1_475_452_800.0  # 2016-10-03 00:00 UTC, a Monday
BROADCASTER = "broadcaster"

ACCOUNTS = 1000
EVENTS = 100_000
PARETO_A = 2.5  # heavy tail with finite variance: feed sizes stay comparable across seeds
BROADCASTER_POSTS = 40
FOLLOWERS = 60
FOLLOWEES_EACH = 6
HEAVY_FOLLOWERS = 5
HEAVY_FOLLOWEES = 600  # above the replay's default followee cap of 500
WINDOW_DAYS = 2.0  # replay window; the log itself spans a week


def _weekly_rhythm() -> np.ndarray:
    """Relative activity per hour of the week: daytime peak, quiet weekend."""
    hours = np.arange(168)
    hour_of_day = hours % 24
    day = hours // 24
    daily = 0.15 + np.maximum(np.sin(np.pi * (hour_of_day - 6) / 16.0), 0.0)
    weekend = np.where(day >= 5, 0.4, 1.0)
    return daily * weekend


def generate(seed: int, out_dir) -> dict:
    """Write events.jsonl, network.csv and manifest.txt into ``out_dir``.

    Returns a summary of what was written (counts used by output checks).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10C]))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = np.array([f"u{i:05d}" for i in range(ACCOUNTS)], dtype=object)

    activity = rng.pareto(PARETO_A, ACCOUNTS) + 1.0
    counts = rng.multinomial(EVENTS, activity / activity.sum())
    owner = np.repeat(np.arange(ACCOUNTS), counts)
    phase = rng.integers(0, 24, ACCOUNTS)  # per-account shift, hours
    cdf = np.cumsum(_weekly_rhythm())
    cdf /= cdf[-1]
    hour = np.searchsorted(cdf, rng.random(owner.shape[0]), side="right")
    hour = (hour + phase[owner]) % 168
    times = (hour + rng.random(owner.shape[0])) * 3600.0
    srcs = names[owner]

    # the recorded posts fall inside the replay window, so the budget the
    # controller is tuned to stays reachable at any window length
    tf = WINDOW_DAYS * 86_400.0
    post_times = np.sort(rng.random(BROADCASTER_POSTS) * tf)
    times = np.concatenate([times, post_times])
    srcs = np.concatenate([srcs, np.full(BROADCASTER_POSTS, BROADCASTER, dtype=object)])
    order = np.argsort(times, kind="stable")
    times, srcs = times[order], srcs[order]
    keep = np.concatenate([[True], np.diff(times) > 0]) & (times > 0.0)
    times, srcs = times[keep], srcs[keep]

    people = rng.permutation(ACCOUNTS)
    regular = people[: FOLLOWERS]
    heavy = people[FOLLOWERS: FOLLOWERS + HEAVY_FOLLOWERS]
    edges = []
    for f in regular:
        followees = rng.choice(ACCOUNTS - 1, FOLLOWEES_EACH, replace=False)
        followees[followees >= f] += 1  # never follow yourself
        edges.append((BROADCASTER, names[f]))
        edges.extend((names[g], names[f]) for g in np.sort(followees))
    for f in heavy:
        followees = rng.choice(ACCOUNTS - 1, HEAVY_FOLLOWEES, replace=False)
        followees[followees >= f] += 1
        edges.append((BROADCASTER, names[f]))
        edges.extend((names[g], names[f]) for g in np.sort(followees))

    with open(out_dir / "events.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f'{{"t": {t!r}, "src": "{s}"}}\n' for t, s in zip(times.tolist(), srcs)))
    with open(out_dir / "network.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{a},{b}\n" for a, b in edges))
    (out_dir / "manifest.txt").write_text(
        "# synthetic replay window for the benchmark\n"
        "events = events.jsonl\n"
        "network = network.csv\n"
        f"epoch = {EPOCH!r}\n"
        "t0 = 0.0\n"
        f"tf = {tf!r}\n"
        f"broadcaster = {BROADCASTER}\n",
        encoding="utf-8",
    )
    own = times[srcs == BROADCASTER]
    in_window = int(np.sum((own > 0.0) & (own <= tf)))
    return {
        "events": int(times.shape[0]),
        "accounts": int(len(set(srcs.tolist()))),
        "followers": FOLLOWERS + HEAVY_FOLLOWERS,
        "followers_kept": FOLLOWERS,
        "true_posts": in_window,
    }

