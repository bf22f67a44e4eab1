"""Log, graph, manifest, report and profile serialization round trips."""

import contextlib
import csv
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from whentopost import data_io
from whentopost.data_io import (
    DataFormatError,
    REPORT_HEADER,
    build_replay_dataset,
    load_events,
    load_manifest,
    load_network,
    load_trajectory,
    read_profile_csv,
    read_report_csv,
    save_events,
    save_trajectory,
    write_profile_csv,
    write_report_csv,
)
from whentopost.feed_sim import trajectory_from_posts
from whentopost.metrics import MetricsReport
from whentopost.point_process import EventStream
from whentopost.significance import SignificanceProfile


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_load_events_empty_file(tmp_path):
    p = tmp_path / "events.jsonl"
    p.write_text("", encoding="utf-8")
    assert len(load_events(p)) == 0


def test_load_events_preserves_sorted_input(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, [
        '{"t": 1.0, "src": "a"}',
        '{"t": 2.5, "src": "b"}',
        '{"t": 3.0, "src": "a"}',
    ])
    stream = load_events(p)
    assert np.array_equal(stream.times, [1.0, 2.5, 3.0])
    assert list(stream.sources) == ["a", "b", "a"]


def test_load_events_sorts_shuffled_input_with_warning(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, [
        '{"t": 3.0, "src": "a"}',
        '{"t": 1.0, "src": "b"}',
        '{"t": 2.0, "src": "c"}',
    ])
    with pytest.warns(UserWarning, match="out of order"):
        stream = load_events(p)
    assert np.array_equal(stream.times, [1.0, 2.0, 3.0])
    assert list(stream.sources) == ["b", "c", "a"]


def test_load_events_nudges_ties_with_warning(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, [
        '{"t": 1.0, "src": "a"}',
        '{"t": 1.0, "src": "b"}',
    ])
    with pytest.warns(UserWarning, match="nudged"):
        stream = load_events(p)
    assert len(stream) == 2
    assert stream.times[1] == np.nextafter(1.0, math.inf)


def test_load_events_reports_bad_line_number(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, [
        '{"t": 1.0, "src": "a"}',
        'not json at all',
    ])
    with pytest.raises(DataFormatError, match=":2:"):
        load_events(p)
    write_lines(p, ['{"src": "missing-t"}'])
    with pytest.raises(DataFormatError, match=":1:"):
        load_events(p)


def test_events_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(0)
    stream = EventStream(
        np.sort(rng.uniform(0, 1000, size=50)),
        np.asarray([f"u{i % 7}" for i in range(50)], dtype=object),
    )
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_events(stream, p1)
    save_events(load_events(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def save_events_per_event(stream, path):
    """``save_events`` as one ``json.dumps`` per event."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, src in zip(stream.times, stream.sources):
            fh.write(json.dumps({"t": float(t), "src": str(src)}) + "\n")


AWKWARD_IDS = ['say "hi"', "back\\slash", "tab\tnew\nline", "nul\x00", "caf\u00e9", "\U0001f600",
               "\u2028", "plain", "", "'", "\x7f"]


@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_save_events_writes_json_dumps_lines(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data_io, "_SAVE_CHUNK", chunk)
    rng = np.random.default_rng(4)
    times = np.concatenate([[-1e300, -5e-324, 0.0, 5e-324, 1e-7, 0.1, 1.0, 2.5e15, 1e16],
                            np.sort(rng.uniform(1e16, 1e17, 40)), [1e300]])
    sources = np.array(AWKWARD_IDS, dtype=object)[rng.integers(0, len(AWKWARD_IDS), times.shape[0])]
    sources[:len(AWKWARD_IDS)] = AWKWARD_IDS
    streams = {
        "finite": EventStream(times, sources),
        "numpy-str": EventStream(times[:5], np.array(["a", 'b"', "c\\", "d", "\u00e9"])),
        "empty": EventStream.empty(),
    }
    for t in (math.inf, -math.inf, math.nan):  # one event: no order to break
        streams[repr(t)] = EventStream(np.array([t]), np.array(["x"], dtype=object))
    for name, stream in streams.items():
        got, want = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-want.jsonl"
        save_events(stream, got)
        save_events_per_event(stream, want)
        assert got.read_bytes() == want.read_bytes(), name
    back = load_events(tmp_path / "finite.jsonl")
    assert back.times.tobytes() == times.tobytes()
    assert back.sources.tolist() == sources.tolist()


def test_load_network_empty_and_dedup(tmp_path):
    p = tmp_path / "net.csv"
    p.write_text("", encoding="utf-8")
    net = load_network(p)
    assert net.followers("anyone") == []
    write_lines(p, ["b,f1", "b,f2", "b,f1", "c,f1"])
    net = load_network(p)
    assert net.followers("b") == ["f1", "f2"]
    assert net.followees("f1") == ["b", "c"]


def test_load_network_rejects_malformed(tmp_path):
    p = tmp_path / "net.csv"
    write_lines(p, ["b,f1", "only-one-field"])
    with pytest.raises(DataFormatError, match=":2:"):
        load_network(p)


def test_manifest_parses_and_resolves_paths(tmp_path):
    m = tmp_path / "manifest.txt"
    write_lines(m, [
        "# replay fixture",
        "events = events.jsonl",
        "network = net.csv",
        "epoch = 1000.0",
        "t0 = 0.0",
        "tf = 3600.0",
        "broadcaster = b",
    ])
    manifest = load_manifest(m)
    assert manifest.events_path == (tmp_path / "events.jsonl").resolve()
    assert manifest.network_path == (tmp_path / "net.csv").resolve()
    assert manifest.epoch == 1000.0
    assert manifest.broadcaster == "b"


def test_manifest_missing_keys_and_bad_values(tmp_path):
    m = tmp_path / "manifest.txt"
    write_lines(m, ["events = e.jsonl"])
    with pytest.raises(DataFormatError, match="missing"):
        load_manifest(m)
    write_lines(m, [
        "events = e", "network = n", "epoch = soon", "t0 = 0", "tf = 1", "broadcaster = b",
    ])
    with pytest.raises(DataFormatError):
        load_manifest(m)
    write_lines(m, [
        "events = e", "network = n", "epoch = 0", "t0 = 5", "tf = 1", "broadcaster = b",
    ])
    with pytest.raises(DataFormatError, match="window"):
        load_manifest(m)


def small_log():
    times = np.arange(1.0, 13.0)
    sources = np.asarray(
        ["b", "x", "y", "b", "x", "z", "y", "x", "b", "z", "x", "y"], dtype=object
    )
    return EventStream(times, sources)


def small_network():
    from whentopost.feed_sim import Network

    return Network.from_edges([
        ("b", "f1"), ("x", "f1"), ("y", "f1"),
        ("b", "f2"), ("z", "f2"),
        ("b", "f3"),
    ])


def test_build_replay_dataset_unions_followee_events():
    dataset = build_replay_dataset(small_log(), small_network(), "b", 0.0, 0.0, 12.0)
    assert dataset.follower_ids == ["f1", "f2", "f3"]
    feeds = dict(zip(dataset.follower_ids, dataset.feeds))
    # f1 follows x and y (besides b): their events only, in time order
    assert np.array_equal(feeds["f1"].times, [2.0, 3.0, 5.0, 7.0, 8.0, 11.0, 12.0])
    assert np.array_equal(feeds["f2"].times, [6.0, 10.0])
    # f3 follows only the broadcaster: empty feed
    assert len(feeds["f3"]) == 0
    assert np.array_equal(dataset.true_posts.times, [1.0, 4.0, 9.0])


def test_build_replay_dataset_excludes_broadcaster_everywhere():
    dataset = build_replay_dataset(small_log(), small_network(), "b", 0.0, 0.0, 12.0)
    for feed in dataset.feeds:
        assert "b" not in set(feed.sources)


def test_build_replay_dataset_followee_cap():
    from whentopost.feed_sim import Network

    edges = [("b", "f1"), ("b", "f2"), ("x", "f2")]
    edges += [(f"fan{k}", "f1") for k in range(3)]  # f1 follows 4 total
    net = Network.from_edges(edges)
    dataset = build_replay_dataset(small_log(), net, "b", 0.0, 0.0, 12.0, max_followees=3)
    assert dataset.follower_ids == ["f2"]
    with pytest.raises(DataFormatError, match="no retained"):
        build_replay_dataset(small_log(), net, "b", 0.0, 0.0, 12.0, max_followees=1)


def test_build_replay_dataset_window_clips_events():
    dataset = build_replay_dataset(small_log(), small_network(), "b", 0.0, 2.0, 8.0)
    assert np.array_equal(dataset.true_posts.times, [4.0])
    feeds = dict(zip(dataset.follower_ids, dataset.feeds))
    assert np.array_equal(feeds["f1"].times, [3.0, 5.0, 7.0, 8.0])


def test_build_replay_dataset_matches_per_follower_from_sources():
    from whentopost.feed_sim import Network

    rng = np.random.default_rng(5)
    accounts = np.array([f"a{i}" for i in range(40)], dtype=object)
    n = 5000
    log = EventStream(np.sort(rng.uniform(0.0, 1000.0, n)), accounts[rng.integers(0, 40, n)])
    edges = [("a0", f"f{k}") for k in range(20)]
    for k in range(20):
        followees = rng.choice(list(accounts) + ["ghost"], size=int(rng.integers(0, 12)))
        edges += [(str(a), f"f{k}") for a in followees]
    net = Network.from_edges(edges)
    dataset = build_replay_dataset(log, net, "a0", 0.0, 100.0, 700.0, max_followees=9)
    assert 0 < len(dataset.follower_ids) < 20
    windowed = log.window(100.0, 700.0)
    for fid, feed in zip(dataset.follower_ids, dataset.feeds):
        want = windowed.from_sources(set(net.followees_of[fid]) - {"a0"})
        assert feed.times.tobytes() == want.times.tobytes()
        assert feed.sources.tolist() == want.sources.tolist()
    want = windowed.from_sources({"a0"})
    assert dataset.true_posts.times.tobytes() == want.times.tobytes()
    assert dataset.true_posts.sources.tolist() == want.sources.tolist()


def test_load_events_rejects_non_finite_times_with_line_number(tmp_path):
    p = tmp_path / "events.jsonl"
    shown = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan", '"inf"': "inf"}
    for bad in shown:
        write_lines(p, ['{"t": 1.0, "src": "a"}', "", '{"t": %s, "src": "b"}' % bad])
        with pytest.raises(DataFormatError, match=rf":3: event time must be finite, got {shown[bad]}$"):
            load_events(p)


def test_manifest_rejects_non_finite_numbers_with_line_number(tmp_path):
    m = tmp_path / "manifest.txt"
    for key in ("epoch", "t0", "tf"):
        fields = {"epoch": "0", "t0": "0", "tf": "1"}
        fields[key] = "inf" if key != "t0" else "nan"
        write_lines(m, [
            "# replay window", "events = e", "network = n",
            *(f"{k} = {v}" for k, v in fields.items()), "broadcaster = b",
        ])
        lineno = 4 + list(fields).index(key)
        with pytest.raises(DataFormatError, match=rf":{lineno}: {key} must be finite"):
            load_manifest(m)


def sample_reports():
    return [
        MetricsReport("runB", 1, "p2", 4, 2.5, 0.5, None, None),
        MetricsReport("runA", 0, "p1", 3, 10.0, 4.0, 0.5, 1.0),
        MetricsReport("runA", 1, "p1", 2, 11.0, 3.0, None, 0.25),
    ]


def test_report_csv_round_trip_and_order(tmp_path):
    p = tmp_path / "report.csv"
    write_report_csv(sample_reports(), p)
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 4
    # sorted by (run, policy, seed)
    assert lines[1].startswith("runA,0,")
    assert lines[2].startswith("runA,1,")
    assert lines[3].startswith("runB,1,")
    # empty cells encode missing normalization
    assert lines[3].endswith(",,")
    back = read_report_csv(p)
    assert back == sorted(sample_reports(), key=lambda r: (r.run, r.policy, r.seed))


def test_report_csv_empty_is_header_only(tmp_path):
    p = tmp_path / "report.csv"
    write_report_csv([], p)
    assert p.read_text(encoding="utf-8") == REPORT_HEADER + "\n"
    assert read_report_csv(p) == []


def test_report_csv_write_is_deterministic(tmp_path):
    p1 = tmp_path / "r1.csv"
    p2 = tmp_path / "r2.csv"
    write_report_csv(sample_reports(), p1)
    write_report_csv(list(reversed(sample_reports())), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_report_csv_rejects_foreign_header(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="header"):
        read_report_csv(p)


def test_profile_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    raw = rng.uniform(0.0, 1.0, size=(2, 7))
    raw[:, 0] = 1.0  # peak pinned at 1 as the estimator guarantees
    profile = SignificanceProfile(
        "weekday", epoch=123.5, laplace=0.5,
        values={"f1": raw[0], "f2": raw[1]},
    )
    p = tmp_path / "profile.csv"
    write_profile_csv(profile, p)
    text = p.read_text(encoding="utf-8")
    assert "# normalization = max" in text
    assert "not probabilities" in text
    back = read_profile_csv(p)
    assert back.granularity == "weekday"
    assert back.epoch == 123.5
    assert back.laplace == 0.5
    for fid in ("f1", "f2"):
        assert np.array_equal(back.values[fid], profile.values[fid])


def write_profile_csv_by_rows(profile, path):
    """The one-``writerow``-per-row writer; ``write_profile_csv`` must match its bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# granularity = {profile.granularity}\n")
        fh.write(f"# epoch = {float(profile.epoch)!r}\n")
        fh.write(f"# laplace = {float(profile.laplace)!r}\n")
        fh.write(
            f"# normalization = {profile.normalization} "
            "(each follower's peak bucket is scaled to 1; values are not probabilities)\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["follower_id", "bucket_index", "value"])
        for fid in profile.values:
            vec = profile.values[fid]
            for b in range(vec.shape[0]):
                writer.writerow([fid, b, repr(float(vec[b]))])


def test_profile_csv_matches_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(8)
    special = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-5, 0.1, 1 / 3]
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rx", "", " pad ", "é", 7]
    for granularity, width in (("weekday", 7), ("weekday-hour", 168)):
        values = {}
        for fid in ids:
            vec = rng.uniform(0.0, 1.0, width)
            vec[rng.integers(0, width, width // 2)] = rng.choice(special, width // 2)
            values[fid] = vec
        values["zeros"] = np.zeros(width)
        values["negzeros"] = -np.zeros(width)
        profile = SignificanceProfile(granularity, epoch=1.5e9, laplace=0.5, values=values)
        write_profile_csv(profile, tmp_path / "new.csv")
        write_profile_csv_by_rows(profile, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    empty = SignificanceProfile("weekday", epoch=0.0, laplace=1.0, values={})
    write_profile_csv(empty, tmp_path / "new.csv")
    write_profile_csv_by_rows(empty, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("followers", [1, 64, 65, 130])
def test_profile_csv_blocks_match_row_by_row_writer(tmp_path, followers):
    # follower counts on both sides of the block size; ids csv must quote or
    # that hold a template's %, signed zeros, and values followers share
    rng = np.random.default_rng(followers)
    shared = rng.uniform(0.0, 1.0, 5)
    odd_ids = ["a,b", 'say "hi"', "two\nlines", "cr\rx", "100%", "%s%%", "%(x)s", ""]
    values = {}
    for k in range(followers):
        vec = rng.choice(np.concatenate([shared, [0.0, -0.0, 1.0]]), 168)
        values[odd_ids[k] if k < len(odd_ids) else f"u{k}"] = vec
    profile = SignificanceProfile("weekday-hour", epoch=1.5e9, laplace=1.0, values=values)
    assert sum(np.signbit(v[v == 0.0]).any() for v in profile.values.values()) > 0
    write_profile_csv(profile, tmp_path / "new.csv")
    write_profile_csv_by_rows(profile, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_profile_csv_block_size_does_not_change_bytes(tmp_path):
    rng = np.random.default_rng(9)
    values = {f"f{k}": rng.uniform(0.0, 1.0, 7) for k in range(10)}
    profile = SignificanceProfile("weekday", epoch=0.0, laplace=1.0, values=values)
    write_profile_csv_by_rows(profile, tmp_path / "old.csv")
    for block in (1, 3, 10, 11):
        with mock.patch.object(data_io, "_PROFILE_BLOCK", block):
            write_profile_csv(profile, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_profile_csv_requires_metadata(tmp_path):
    p = tmp_path / "profile.csv"
    p.write_text("follower_id,bucket_index,value\nf,0,1.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="metadata"):
        read_profile_csv(p)


def test_trajectory_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    feeds = [
        EventStream.from_times(np.sort(rng.uniform(0, 10, size=12)), "x"),
        EventStream.from_times(np.sort(rng.uniform(0, 10, size=5)), "y"),
    ]
    traj = trajectory_from_posts(feeds, np.sort(rng.uniform(0, 10, size=3)), 0.0, 10.0)
    p = tmp_path / "trajectory.json"
    save_trajectory(traj, p)
    back = load_trajectory(p)
    assert back.t0 == traj.t0 and back.tf == traj.tf
    assert np.array_equal(back.own_posts, traj.own_posts)
    for j in range(2):
        assert np.array_equal(back.feeds[j].times, traj.feeds[j].times)
        assert np.array_equal(back.rank_times[j], traj.rank_times[j])
        assert np.array_equal(back.rank_values[j], traj.rank_values[j])
    # saving the loaded copy reproduces the file exactly
    p2 = tmp_path / "again.json"
    save_trajectory(back, p2)
    assert p.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# load_events: the canonical-line fast path against the per-line path
# ---------------------------------------------------------------------------


def load_outcome(path):
    """What loading ``path`` gives: times bytes, sources and warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            stream = load_events(path)
        except DataFormatError as exc:
            return ("error", str(exc))
    return (stream.times.tobytes(), stream.sources.tolist(), [str(w.message) for w in caught])


@contextlib.contextmanager
def per_line_only():
    """Read every chunk line by line, as if no line were canonical."""
    with mock.patch.object(data_io, "_CANONICAL_EVENT", re.compile(r"(?!)")):
        yield


def load_both_ways(path, chunk_chars=1 << 18):
    """``load_outcome`` with and without the fast path; both must agree."""
    with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars):
        fast = load_outcome(path)
        with per_line_only():
            slow = load_outcome(path)
    assert fast == slow
    return fast


def fuzz_time(rng):
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return str(int(rng.integers(-10**6, 10**6)))  # integer token
    if kind == 1:
        return "%de%d" % (rng.integers(1, 99), rng.integers(-3, 4))  # exponent, no point
    if kind == 2:
        return "%.3fE+%d" % (rng.uniform(0, 9), rng.integers(0, 3))
    if kind == 3:
        return str(rng.choice(["-0", "-0.0", "0", "0.0", "0e0", "-0E-0", "-0.000e5"]))
    if kind == 4:
        return repr(float(rng.integers(0, 20)))  # a small pool: ties and disorder
    return repr(float(rng.uniform(-1e6, 1e6)))


FUZZ_SOURCES = ["u1", "u2", "a,b", "qé", "sp ace", "del\x7f", "line\u2028sep", ""]


def fuzz_line(rng):
    t = fuzz_time(rng)
    src = str(rng.choice(FUZZ_SOURCES))
    kind = int(rng.integers(0, 30))
    if kind == 0:
        return ""
    if kind == 1:
        return "  \t"
    if kind == 2:
        return '{"src": %s, "t": %s}' % (json.dumps(src), t)  # keys reordered
    if kind == 3:
        return ' { "t" :%s ,  "src":%s } ' % (t, json.dumps(src))  # extra spaces
    if kind == 4:
        return '{"t": %s, "src": %s}' % (t, json.dumps(src + '"\\'))  # escaped src
    if kind == 5:
        return '{"t": %s, "src": %s}' % (t, json.dumps(src, ensure_ascii=True))
    if kind == 6:
        return '{"t": 99, "src": "dup", "t": %s, "src": %s}' % (t, json.dumps(src))
    if kind == 7:
        return '{"t": "%s", "src": %s}' % (t, json.dumps(src))  # time as a string
    if kind == 8 and rng.random() < 0.1:
        return '{"t": %s, "src": "x"}' % rng.choice(["NaN", "Infinity", "1e999", "1" + "0" * 400])
    if kind == 9 and rng.random() < 0.1:
        return str(rng.choice(['{"t": 01, "src": "x"}', '{"t": 1.0, "src": "x"', '{"t": 1.0}']))
    return '{"t": %s, "src": %s}' % (t, json.dumps(src, ensure_ascii=False))


def test_load_events_fast_path_matches_per_line_path(tmp_path):
    rng = np.random.default_rng(2024)
    p = tmp_path / "events.jsonl"
    calls = {"_parse_chunk": 0, "_parse_lines": 0}

    def counted(name):
        real = getattr(data_io, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return mock.patch.object(data_io, name, wrapper)

    outcomes = set()
    mixed_loads = 0
    for _ in range(400):
        lines = [fuzz_line(rng) for _ in range(int(rng.integers(0, 40)))]
        text = "".join(line + str(rng.choice(["\n", "\r\n"])) for line in lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")  # no final newline
        p.write_bytes(text.encode("utf-8"))
        before = dict(calls)
        with mock.patch.object(data_io, "_CHUNK_CHARS", int(rng.choice([1, 60, 300, 1 << 18]))):
            with counted("_parse_chunk"), counted("_parse_lines"):
                fast = load_outcome(p)
            with per_line_only():
                slow = load_outcome(p)
        assert fast == slow, text
        per_line = calls["_parse_lines"] - before["_parse_lines"]
        mixed_loads += 0 < per_line < calls["_parse_chunk"] - before["_parse_chunk"]
        outcomes.add("error" if fast[0] == "error" else "warned" if fast[2] else "clean")
    assert outcomes == {"error", "warned", "clean"}
    assert mixed_loads >= 100


NEAR_CANONICAL = [
    '{"t": 01, "src": "x"}', '{"t": 1., "src": "x"}', '{"t": .5, "src": "x"}',
    '{"t": +1, "src": "x"}', '{"t": 1e, "src": "x"}', '{"t": 1_0, "src": "x"}',
    '{"t": 1\u0661, "src": "x"}', '{"t": 0.\u0661, "src": "x"}', '{"t": -, "src": "x"}',
    '{"t": 1.0, "src": "x"}}', '{"t": 1.0, "src": "x"} x', '{"t": 1.0, "src": "x"} ',
    '{"t": 1.0, "src": "x"}\x0c',
    '{"t": 1.0, "src": "\tx"}', '{"t": 1.0, "src": "a\\"b"}', '{"t": 1.0, "src": "x\\u0041"}',
    '{"t": 1.0, "src": "x\\\\"}', '\ufeff{"t": 1.0, "src": "x"}', '{"t": NaN, "src": "x"}',
    '{"t": -Infinity, "src": "x"}', '{"t": 1e999, "src": "x"}', '{"t": -0, "src": "x"}',
    '{"t": 1.0, "src": "x", "src": "y"}', '{"t": 1.0, "src": 5}', '{"t": true, "src": "x"}',
]


def test_load_events_near_canonical_lines_agree(tmp_path):
    p = tmp_path / "events.jsonl"
    for line in NEAR_CANONICAL:
        write_lines(p, ['{"t": -1.5, "src": "a"}', line, '{"t": 2.5, "src": "b"}'])
        for chunk_chars in (1, 1 << 18):
            load_both_ways(p, chunk_chars)


def test_load_events_long_and_exponent_times_agree(tmp_path):
    # times with more digits than a double holds, and at the edges of its
    # range, read as the per-line json.loads path reads them
    rng = np.random.default_rng(77)
    tokens = ["0.1000000000000000055511151231257827", "9007199254740993", "123456789012345678901234",
              "2.4703282292062328e-324", "2.4703282292062327e-324", "1.7976931348623158e308",
              "4.9e-324", "1e-400", "0.0", "0e-5"]
    for _ in range(200):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 30)))))
        tokens.append("%d.%se%d" % (rng.integers(1, 10), digits, rng.integers(-320, 300)))
    p = tmp_path / "events.jsonl"
    write_lines(p, ['{"t": %s, "src": "u%d"}' % (t, k % 5) for k, t in enumerate(tokens)])
    for chunk_chars in (50, 1 << 18):
        load_both_ways(p, chunk_chars)
        with mock.patch.object(data_io, "_CHUNK_CHARS", chunk_chars), \
                mock.patch.object(data_io, "_parse_lines", side_effect=AssertionError("per line")):
            load_outcome(p)  # every chunk took the fast path


def test_load_events_bad_line_in_a_later_chunk(tmp_path):
    p = tmp_path / "events.jsonl"
    good = ['{"t": %r, "src": "u%d"}' % (k + 0.5, k % 3) for k in range(60)]
    for bad, message in (
        ("not json", ":41: bad event line"),
        ('{"t": Infinity, "src": "u1"}', ":41: event time must be finite, got inf"),
        ('{"t": 1%s, "src": "u1"}' % ("0" * 400), ":41: bad event line (int too large"),
    ):
        write_lines(p, good[:40] + [bad] + good[40:])
        for chunk_chars in (100, 1000, 1 << 18):
            outcome = load_both_ways(p, chunk_chars)
            assert outcome[0] == "error" and message in outcome[1]


def test_load_events_oversized_integer_time_fails_with_line_number(tmp_path):
    p = tmp_path / "events.jsonl"
    huge = "1" + "0" * 400
    want = f"{p}:2: bad event line (int too large to convert to float)"
    for bad in ('{"t": %s, "src": "b"}' % huge, '{"t":%s,"src":"b"}' % huge):  # fast, per line
        write_lines(p, ['{"t": 1.0, "src": "a"}', bad])
        for loader in (contextlib.nullcontext, per_line_only):
            with loader(), pytest.raises(DataFormatError) as err:
                load_events(p)
            assert str(err.value) == want


def test_load_events_deeply_nested_line_fails_with_line_number(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, ['{"t": 1.0, "src": "a"}', "[" * 100_000 + "]" * 100_000])
    for loader in (contextlib.nullcontext, per_line_only):
        with loader(), pytest.raises(DataFormatError) as err:
            load_events(p)
        assert str(err.value).startswith(f"{p}:2: bad event line (maximum recursion depth")


def test_load_events_reads_integer_minus_zero_as_positive_zero(tmp_path):
    p = tmp_path / "events.jsonl"
    for token, negative in (("-0", False), ("-0.0", True), ("-0e3", True), ("0", False)):
        write_lines(p, ['{"t": %s, "src": "a"}' % token])
        times = load_events(p).times
        assert times[0] == 0.0 and bool(np.signbit(times[0])) is negative


def test_load_events_keeps_one_string_per_account(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, ['{"t": %d.5, "src": "u%d"}' % (k, k % 4) for k in range(50)])
    for loader in (contextlib.nullcontext, per_line_only):
        with loader():
            sources = load_events(p).sources
        assert len({id(s) for s in sources}) == 4


def test_load_events_warnings_agree_on_shuffled_and_tied_logs(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, ['{"t": %r, "src": "u%d"}' % (float(t), t % 3) for t in [5, 3, 3, 9, 1, 9, 9]])
    times, sources, caught = load_both_ways(p)
    assert len(caught) == 2
    assert "out of order" in caught[0] and "nudged 3 coincident" in caught[1]
    assert sources == ["u1", "u0", "u0", "u2", "u0", "u0", "u0"]
