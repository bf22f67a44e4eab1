"""Regenerate the small replay fixture in this directory.

One broadcaster ("alice") with two followers over a 240 s window.  Her
four recorded posts are clustered in the first nine seconds, so any
evenly spread four-post schedule beats them on position over time; the
feeds are small enough (14 distinct events) that exhaustive schedule
search stays cheap.  Event times are fixed constants, so the output
files are byte-stable.

Run from anywhere: python3 fixtures/replay_small/generate.py
"""

from pathlib import Path

import numpy as np

from whentopost.data_io import EventLog, save_events

HERE = Path(__file__).resolve().parent

SOURCES = {
    "alice": [2.25, 4.5, 6.75, 9.0],
    "wire": [20.5, 45.25, 70.75, 101.5, 130.25, 161.0, 190.5, 221.25],
    "local1": [36.5, 111.75, 206.25],
    "local2": [55.25, 141.5, 216.75],
}

# row format: followee,follower
EDGES = [
    ("alice", "bob"),
    ("alice", "carol"),
    ("wire", "bob"),
    ("wire", "carol"),
    ("local1", "bob"),
    ("local2", "carol"),
]

MANIFEST = """\
# small replay window: one broadcaster, two followers
events = events.jsonl
network = network.csv
epoch = 345600.0
t0 = 0.0
tf = 240.0
broadcaster = alice
"""


def event_log() -> EventLog:
    """``SOURCES`` as one log in time order, its ids in ``SOURCES``'s order."""
    ids = list(SOURCES)
    times = np.concatenate([SOURCES[i] for i in ids])
    codes = np.repeat(np.arange(len(ids)), [len(SOURCES[i]) for i in ids])
    order = np.argsort(times, kind="stable")
    return EventLog(times[order], codes[order], np.array(ids, dtype=object))


def main():
    save_events(event_log(), HERE / "events.jsonl")
    with open(HERE / "network.csv", "w", encoding="utf-8") as fh:
        for followee, follower in EDGES:
            fh.write(f"{followee},{follower}\n")
    (HERE / "manifest.txt").write_text(MANIFEST, encoding="utf-8")
    print(f"wrote {HERE}/{{events.jsonl,network.csv,manifest.txt}}")


if __name__ == "__main__":
    main()
