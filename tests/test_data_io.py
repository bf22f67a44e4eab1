"""Log, graph, manifest, report and profile serialization round trips."""

import contextlib
import errno
import importlib.util
import json
import math
import os
import pickle
import re
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import reference
from reference import per_line_only, read_profile_csv, read_report_csv, write_profile_csv_by_rows

from whentopost import data_io
from whentopost.data_io import (
    DataFormatError,
    EventLog,
    REPORT_HEADER,
    Network,
    build_replay_dataset,
    load_events,
    load_manifest,
    load_network,
    save_events,
    write_profile_csv,
    write_report_csv,
)
from whentopost.metrics import MetricsReport
from whentopost.significance import SignificanceProfile

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "replay_small"


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
    log = load_events(p)
    assert np.array_equal(log.times, [1.0, 2.5, 3.0])
    assert log.codes.dtype == np.int32
    assert log.codes.tolist() == [0, 1, 0]
    assert log.ids.tolist() == ["a", "b"]


def test_load_events_sorts_shuffled_input_with_warning(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, [
        '{"t": 3.0, "src": "a"}',
        '{"t": 1.0, "src": "b"}',
        '{"t": 2.0, "src": "c"}',
    ])
    with pytest.warns(UserWarning, match="out of order"):
        log = load_events(p)
    assert np.array_equal(log.times, [1.0, 2.0, 3.0])
    assert reference.log_sources(log) == ["b", "c", "a"]


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


def test_event_log_rejects_what_no_parse_gives():
    times, codes, ids = np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0]), np.array(["a", "b"], dtype=object)
    log = EventLog(times, codes, ids)
    assert len(log) == 3 and log.codes.dtype == np.int32 and log.ids.dtype == object
    for bad_codes in ([0, 2, 0], [0, -1, 0], [0.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match=r"source codes must be integers in \[0, 2\)"):
            EventLog(times, np.array(bad_codes), ids)
    with pytest.raises(ValueError, match="ids must be distinct"):
        EventLog(times, codes, np.array(["a", "b", "a"], dtype=object))
    for bad_times in ([1.0, 1.0, 3.0], [2.0, 1.0, 3.0]):
        with pytest.raises(ValueError, match="strictly increasing"):
            EventLog(np.array(bad_times), codes, ids)
    for args in ((times[:2], codes, ids), (times, codes[:2], ids), (times[None], codes[None], ids)):
        with pytest.raises(ValueError, match="parallel 1-d"):
            EventLog(*args)


def test_event_logs_compare_by_identity():
    log = reference.coded_log([1.0, 2.0], ["a", "b"])
    twin = reference.coded_log([1.0, 2.0], ["a", "b"])
    assert log == log and not log != log
    assert log != twin and not log == twin


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
    log = reference.coded_log(np.sort(rng.uniform(0, 1000, size=50)), [f"u{i % 7}" for i in range(50)])
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    save_events(log, p1)
    save_events(load_events(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_the_fixture_generator_writes_the_committed_log(tmp_path):
    spec = importlib.util.spec_from_file_location("generate", FIXTURE / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    save_events(generate.event_log(), tmp_path / "events.jsonl")
    assert (tmp_path / "events.jsonl").read_bytes() == (FIXTURE / "events.jsonl").read_bytes()


def save_events_per_event(log, path):
    """``save_events`` as one ``json.dumps`` per event."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t, src in zip(log.times, reference.log_sources(log)):
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
    logs = {
        "finite": reference.coded_log(times, sources),
        "numpy-str": EventLog(times[:5], np.arange(5), np.array(["a", 'b"', "c\\", "d", "\u00e9"])),
        "unused-ids": EventLog(times[:3], np.array([2, 0, 2]), np.array(["a", "b", 'c"'], dtype=object)),
        "empty": reference.coded_log([], []),
    }
    for name, log in logs.items():
        got, want = tmp_path / f"{name}.jsonl", tmp_path / f"{name}-want.jsonl"
        save_events(log, got)
        save_events_per_event(log, want)
        assert got.read_bytes() == want.read_bytes(), name
    back = load_events(tmp_path / "finite.jsonl")
    assert back.times.tobytes() == times.tobytes()
    assert reference.log_sources(back) == sources.tolist()


def test_an_event_log_refuses_non_finite_times():
    # one event has no order to break, and infinities sort to the ends; a
    # saved log would spell them NaN or Infinity, which load_events refuses
    for times in ([math.nan], [math.inf], [-math.inf], [0.0, math.inf], [-math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="event times must be finite"):
            EventLog(np.array(times), np.zeros(len(times), np.int32), np.array(["x"], dtype=object))
    with pytest.raises(ValueError, match="strictly increasing"):
        EventLog(np.array([0.0, math.nan]), np.zeros(2, np.int32), np.array(["x"], dtype=object))


def test_load_network_empty_and_dedup(tmp_path):
    p = tmp_path / "net.csv"
    p.write_text("", encoding="utf-8")
    net = load_network(p)
    assert net.followers("anyone") == []
    write_lines(p, ["b,f1", "b,f2", "b,f1", "c,f1"])
    net = load_network(p)
    assert net.followers("b") == ["f1", "f2"]
    assert reference.followees(net, "f1") == ["b", "c"]


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
    return reference.coded_log(times, sources)


def sources_of(log, times):
    """The log's source of each event time: log times strictly increase."""
    return log.ids[log.codes[np.searchsorted(log.times, times)]].tolist()


def small_network():
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
    assert np.array_equal(feeds["f1"], [2.0, 3.0, 5.0, 7.0, 8.0, 11.0, 12.0])
    assert np.array_equal(feeds["f2"], [6.0, 10.0])
    # f3 follows only the broadcaster: empty feed
    assert len(feeds["f3"]) == 0
    assert np.array_equal(dataset.true_posts, [1.0, 4.0, 9.0])


def test_build_replay_dataset_excludes_broadcaster_everywhere():
    dataset = build_replay_dataset(small_log(), small_network(), "b", 0.0, 0.0, 12.0)
    assert len(dataset.feeds) == 3
    for feed in dataset.feeds:
        assert "b" not in sources_of(small_log(), feed)


def test_build_replay_dataset_followee_cap():
    edges = [("b", "f1"), ("b", "f2"), ("x", "f2")]
    edges += [(f"fan{k}", "f1") for k in range(3)]  # f1 follows 4 total
    net = Network.from_edges(edges)
    dataset = build_replay_dataset(small_log(), net, "b", 0.0, 0.0, 12.0, max_followees=3)
    assert dataset.follower_ids == ["f2"]
    with pytest.raises(DataFormatError, match="no retained"):
        build_replay_dataset(small_log(), net, "b", 0.0, 0.0, 12.0, max_followees=1)


def test_build_replay_dataset_window_clips_events():
    dataset = build_replay_dataset(small_log(), small_network(), "b", 0.0, 2.0, 8.0)
    assert np.array_equal(dataset.true_posts, [4.0])
    feeds = dict(zip(dataset.follower_ids, dataset.feeds))
    assert np.array_equal(feeds["f1"], [3.0, 5.0, 7.0, 8.0])


def test_build_replay_dataset_matches_per_follower_from_sources():
    rng = np.random.default_rng(5)
    accounts = np.array([f"a{i}" for i in range(40)], dtype=object)
    n = 5000
    log = reference.coded_log(np.sort(rng.uniform(0.0, 1000.0, n)), accounts[rng.integers(0, 40, n)])
    edges = [("a0", f"f{k}") for k in range(20)]
    for k in range(20):
        followees = rng.choice(list(accounts) + ["ghost"], size=int(rng.integers(0, 12)))
        edges += [(str(a), f"f{k}") for a in followees]
    net = Network.from_edges(edges)
    dataset = build_replay_dataset(log, net, "a0", 0.0, 100.0, 700.0, max_followees=9)
    assert 0 < len(dataset.follower_ids) < 20
    inside = (log.times > 100.0) & (log.times <= 700.0)
    sources = np.array(reference.log_sources(log), dtype=object)
    assert len(dataset.feeds) == len(dataset.follower_ids)
    for fid, feed in zip(dataset.follower_ids, dataset.feeds):
        want = inside & np.isin(sources, list(set(net.followees_of[fid]) - {"a0"}))
        assert feed.tobytes() == log.times[want].tobytes()
    assert dataset.true_posts.tobytes() == log.times[inside & (sources == "a0")].tobytes()


def assert_same_feeds(got, want):
    """``got``, a ``Feeds``, holds the feed times ``want``."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def test_build_replay_dataset_matches_the_mask_path(genlog_manifest):
    man = load_manifest(genlog_manifest)
    log, net = load_events(man.events_path), load_network(man.network_path)
    cases = [(log, net, man.broadcaster, man.t0, man.tf)]
    # the broadcaster among the followees, followees with no event in the
    # window (or none at all), and windows with one event or none
    rng = np.random.default_rng(8)
    accounts = np.array([f"a{i}" for i in range(12)], dtype=object)
    small = reference.coded_log(np.sort(rng.uniform(0.0, 100.0, 400)), accounts[rng.integers(0, 9, 400)])
    edges = [("a0", f"f{k}") for k in range(8)] + [("a0", "f0"), ("a9", "f1"), ("ghost", "f2")]
    edges += [(str(a), f"f{k}") for k in range(8) for a in rng.choice(accounts, 4)]
    small_net = Network.from_edges(edges)
    for t0, tf in ((10.0, 90.0), (0.0, 100.0), (101.0, 200.0), (small.times[5] - 1e-9, small.times[5])):
        cases.append((small, small_net, "a0", t0, tf))
    for events, network, broadcaster, t0, tf in cases:
        dataset = build_replay_dataset(events, network, broadcaster, 0.0, t0, tf)
        feeds, true_posts = reference.replay_feeds_by_mask(events, network, broadcaster, t0, tf)
        assert_same_feeds(dataset.feeds, feeds)
        assert dataset.true_posts.dtype == true_posts.dtype
        assert dataset.true_posts.tobytes() == true_posts.tobytes()


def test_load_events_rejects_non_finite_times_with_line_number(tmp_path):
    p = tmp_path / "events.jsonl"
    shown = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan", '"inf"': "inf"}
    for bad in shown:
        write_lines(p, ['{"t": 1.0, "src": "a"}', "", '{"t": %s, "src": "b"}' % bad])
        with pytest.raises(DataFormatError, match=rf":3: event time must be finite, got {shown[bad]}$"):
            load_events(p)


def test_load_events_reports_whichever_bad_line_comes_first(tmp_path):
    # a non-finite time fails on the line that holds it, as a malformed line does
    p = tmp_path / "events.jsonl"
    good = '{"t": 1.0, "src": "a"}'
    for lines, want in (
        ([good, '{"t": 1e999, "src": "b"}', good, "not json"], ":2: event time must be finite, got inf"),
        ([good, "not json", good, '{"t": NaN, "src": "b"}'], ":2: bad event line"),
    ):
        write_lines(p, lines)
        for chunk_bytes in (30, 1 << 18):
            outcome = load_both_ways(p, chunk_bytes)
            assert outcome[0] == "error" and outcome[1].startswith(f"{p}{want}"), outcome


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


def test_manifest_rejects_a_repeated_key_at_its_line(tmp_path):
    # a second t0 would silently move the replay window
    m = tmp_path / "manifest.txt"
    write_lines(m, [
        "events = e", "network = n", "epoch = 0", "t0 = 0", "tf = 240", "broadcaster = b", "",
        "# a later edit", "t0 = 100.0",
    ])
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(m))}:9: t0 is set again \(first on line 4\)$"):
        load_manifest(m)
    write_lines(m, ["events = e", "network = n", "events=e", "epoch = 0", "t0 = 0", "tf = 1", "broadcaster = b"])
    with pytest.raises(DataFormatError, match=r":3: events is set again \(first on line 1\)"):
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
    profile = SignificanceProfile("weekday", epoch=123.5, ids=["f1", "f2"], values=raw, laplace=0.5)
    p = tmp_path / "profile.csv"
    write_profile_csv(profile, p)
    text = p.read_text(encoding="utf-8")
    assert "# normalization = max" in text
    assert "not probabilities" in text
    back = read_profile_csv(p)
    assert back.granularity == "weekday"
    assert back.epoch == 123.5
    assert back.laplace == 0.5
    assert back.ids == ("f1", "f2")
    assert np.array_equal(back.values, profile.values)


def test_profile_csv_matches_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(8)
    special = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-5, 0.1, 1 / 3]
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rx", "", " pad ", "é", 7]
    for granularity, width in (("weekday", 7), ("weekday-hour", 168)):
        values = rng.uniform(0.0, 1.0, (len(ids) + 2, width))
        for vec in values[: len(ids)]:
            vec[rng.integers(0, width, width // 2)] = rng.choice(special, width // 2)
        values[-2] = 0.0
        values[-1] = -0.0
        profile = SignificanceProfile(granularity, 1.5e9, ids + ["zeros", "negzeros"], values, laplace=0.5)
        write_profile_csv(profile, tmp_path / "new.csv")
        write_profile_csv_by_rows(profile, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    empty = SignificanceProfile("weekday", epoch=0.0, ids=[], values=np.empty((0, 7)))
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
    ids = [odd_ids[k] if k < len(odd_ids) else f"u{k}" for k in range(followers)]
    values = rng.choice(np.concatenate([shared, [0.0, -0.0, 1.0]]), (followers, 168))
    profile = SignificanceProfile("weekday-hour", epoch=1.5e9, ids=ids, values=values)
    assert np.signbit(values[values == 0.0]).any()
    write_profile_csv(profile, tmp_path / "new.csv")
    write_profile_csv_by_rows(profile, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a table laid out column by column, or a strided view, writes the same bytes
    wide = np.repeat(values, 2, axis=1)
    for table in (np.asfortranarray(values), wide[:, ::2]):
        write_profile_csv(SignificanceProfile("weekday-hour", 1.5e9, ids, table), tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_profile_csv_block_size_does_not_change_bytes(tmp_path):
    rng = np.random.default_rng(9)
    profile = SignificanceProfile("weekday", 0.0, [f"f{k}" for k in range(10)], rng.uniform(0.0, 1.0, (10, 7)))
    write_profile_csv_by_rows(profile, tmp_path / "old.csv")
    for block in (1, 3, 10, 11):
        with mock.patch.object(data_io, "_PROFILE_BLOCK", block):
            write_profile_csv(profile, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()



def test_profile_csv_round_trips_ids_csv_must_quote(tmp_path):
    ids = ["cr\rx", "\r", "x\r", "lf\ny", "crlf\r\nz", "\n#not metadata", 'say "hi"', "a,b",
           '"\r,\n"', "#lead", "", "plain"]
    rng = np.random.default_rng(3)
    profile = SignificanceProfile("weekday", 1.5e9, ids, rng.uniform(0.0, 1.0, (len(ids), 7)))
    p = tmp_path / "profile.csv"
    write_profile_csv(profile, p)
    write_profile_csv_by_rows(profile, tmp_path / "rows.csv")
    assert p.read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert b'"cr\rx",0,' in p.read_bytes()
    back = read_profile_csv(p)
    assert back.ids == tuple(ids)
    assert back.values.tobytes() == profile.values.tobytes()


def test_profile_csv_rejects_a_nan_cell_by_follower(tmp_path):
    profile = SignificanceProfile("weekday", 0.0, ["f1", "f2"], [np.ones(7), np.full(7, 0.5)])
    p = tmp_path / "profile.csv"
    write_profile_csv(profile, p)
    p.write_text(p.read_text(encoding="utf-8").replace("f2,3,0.5", "f2,3,nan"), encoding="utf-8")
    with pytest.raises(ValueError, match="^profile for 'f2' must lie in"):
        read_profile_csv(p)

def test_profile_csv_requires_metadata(tmp_path):
    p = tmp_path / "profile.csv"
    p.write_text("follower_id,bucket_index,value\nf,0,1.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="metadata"):
        read_profile_csv(p)


# ---------------------------------------------------------------------------
# load_events: the canonical-line fast path against the per-line path
# ---------------------------------------------------------------------------


def load_outcome(path):
    """What loading ``path`` gives: times bytes, each event's source id and warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            log = load_events(path)
        except DataFormatError as exc:
            return ("error", str(exc))
    return (log.times.tobytes(), reference.log_sources(log), [str(w.message) for w in caught])


def load_both_ways(path, chunk_bytes=1 << 18):
    """``load_outcome`` with and without the fast path; both must agree."""
    with mock.patch.object(data_io, "_CHUNK_BYTES", chunk_bytes):
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
        with mock.patch.object(data_io, "_CHUNK_BYTES", int(rng.choice([1, 60, 300, 1 << 18]))):
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
        for chunk_bytes in (1, 1 << 18):
            load_both_ways(p, chunk_bytes)


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
    for chunk_bytes in (50, 1 << 18):
        load_both_ways(p, chunk_bytes)
        with mock.patch.object(data_io, "_CHUNK_BYTES", chunk_bytes), \
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
        for chunk_bytes in (100, 1000, 1 << 18):
            outcome = load_both_ways(p, chunk_bytes)
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


def test_load_events_codes_each_account_once(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, ['{"t": %d.5, "src": "u%d"}' % (k, 3 - k % 4) for k in range(50)])
    for loader in (contextlib.nullcontext, per_line_only):
        with loader():
            log = load_events(p)
        assert log.ids.tolist() == ["u3", "u2", "u1", "u0"]  # in order of first appearance
        assert log.codes.tolist() == [k % 4 for k in range(50)]


def test_load_events_warnings_agree_on_shuffled_and_tied_logs(tmp_path):
    p = tmp_path / "events.jsonl"
    write_lines(p, ['{"t": %r, "src": "u%d"}' % (float(t), t % 3) for t in [5, 3, 3, 9, 1, 9, 9]])
    times, sources, caught = load_both_ways(p)
    assert len(caught) == 2
    assert "out of order" in caught[0] and "nudged 3 coincident" in caught[1]
    assert sources == ["u1", "u0", "u0", "u2", "u0", "u0", "u0"]


# ---------------------------------------------------------------------------
# load_events: byte ranges parsed by forked children against one range
# ---------------------------------------------------------------------------


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def split_into(cpus):
    """Cut every log into up to ``cpus`` ranges, however small it is."""
    with mock.patch.object(data_io, "_MIN_RANGE_BYTES", 1), \
            mock.patch.object(data_io, "_usable_cpus", lambda: cpus):
        yield


def load_split_and_whole(path, cpus=(2, 3)):
    """``load_outcome`` of one range, which each split read must equal, leaving no child behind."""
    with split_into(1):
        want = load_outcome(path)
    for n in cpus:
        with split_into(n):
            got = load_outcome(path)
        no_children_left()
        assert got == want, n
    return want


def first_line_of_range(path, k, cpus=2):
    """The line range ``k`` of ``path`` starts on when cut into ``cpus`` ranges."""
    with split_into(cpus):
        start = data_io._ranges(path)[k][0]
    return path.read_bytes()[:start].count(b"\n") + 1


def test_ranges_start_after_a_newline_and_cover_the_file(tmp_path):
    p = tmp_path / "events.jsonl"
    p.write_bytes(b'{"t": 1.0, "src": "a"}\r\n\n\n' * 50 + b"no final newline")
    data = p.read_bytes()
    for cpus in (1, 2, 3, 7):
        with split_into(cpus):
            ranges = data_io._ranges(p)
        assert len(ranges) == cpus
        assert ranges[0][0] == 0 and ranges[-1][1] is None
        for (start, stop), (after, _) in zip(ranges, ranges[1:]):
            assert start < stop == after and data[stop - 1 : stop] == b"\n"
    # a small log, one usable CPU, or no "\n" to cut after: one range
    with mock.patch.object(data_io, "_usable_cpus", lambda: 8):
        assert data_io._ranges(p) == [(0, None)]
        # ranges of at least _MIN_RANGE_BYTES, no more than the usable CPUs
        for least, count in ((len(data) // 3, 3), (len(data) // 2 + 1, 1), (len(data), 1), (1, 8)):
            with mock.patch.object(data_io, "_MIN_RANGE_BYTES", least):
                assert len(data_io._ranges(p)) == count, least
    with mock.patch.object(data_io, "_MIN_RANGE_BYTES", 1), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}):
        assert data_io._ranges(p) == [(0, None)]
    p.write_bytes(b'{"t": 1.0, "src": "a"}\r' * 100)
    with split_into(4):
        assert data_io._ranges(p) == [(0, None)]
    p.write_bytes(b'{"t": 1.0, "src": "a"}\n')
    with split_into(4):
        assert data_io._ranges(p) == [(0, None)]


def test_split_read_matches_one_range_on_canonical_logs(tmp_path):
    rng = np.random.default_rng(10)
    p = tmp_path / "events.jsonl"
    accounts = np.array([f"u{k}" for k in range(30)] + ["a,b", "qé", "line sep", ""], dtype=object)
    for n in (0, 1, 2, 5, 300):
        times = np.cumsum(rng.exponential(1.0, n))
        sources = accounts[rng.integers(0, len(accounts), n)]
        save_events(reference.coded_log(times, sources), p)
        times_bytes, got, caught = load_split_and_whole(p, cpus=(2, 3, 4))
        assert times_bytes == times.tobytes() and got == sources.tolist() and not caught
        with split_into(1):
            whole = load_events(p)
        for cpus in (2, 3, 4):
            with split_into(cpus):
                split = load_events(p)
            assert split.times.tobytes() == whole.times.tobytes()
            assert reference.log_sources(split) == reference.log_sources(whole)
            assert len(set(split.ids.tolist())) == len(split.ids)
            # the ids in order of first appearance, as one range lists them
            assert split.ids.tolist() == whole.ids.tolist()
            assert split.codes.tobytes() == whole.codes.tobytes()


def test_split_read_matches_one_range_on_fuzzed_logs(tmp_path):
    # non-canonical, malformed and non-finite lines, disorder and ties, and
    # "\n", "\r\n" and bare "\r" line ends, on either side of every split
    rng = np.random.default_rng(11)
    p = tmp_path / "events.jsonl"
    outcomes = set()
    for _ in range(60):
        lines = [fuzz_line(rng) for _ in range(int(rng.integers(0, 40)))]
        text = "".join(line + str(rng.choice(["\n", "\r\n", "\r"], p=[0.7, 0.2, 0.1])) for line in lines)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")  # no final newline
        p.write_bytes(text.encode("utf-8"))
        with mock.patch.object(data_io, "_CHUNK_BYTES", int(rng.choice([1, 60, 1 << 15]))):
            outcome = load_split_and_whole(p)
        outcomes.add("error" if outcome[0] == "error" else "warned" if outcome[2] else "clean")
    assert outcomes == {"error", "warned", "clean"}


def test_range_parse_reads_line_ends_as_text_mode_does(tmp_path):
    rng = np.random.default_rng(12)
    p = tmp_path / "events.jsonl"
    for _ in range(150):
        lines = [fuzz_line(rng) for _ in range(int(rng.integers(0, 30)))]
        text = "".join(line + str(rng.choice(["\n", "\r\n", "\r", "\r\r\n"])) for line in lines)
        p.write_bytes(text[: len(text) - int(rng.integers(0, 2))].encode("utf-8"))
        with open(p, "r", encoding="utf-8") as fh:
            read = fh.read()
        try:
            times, ids = data_io._parse_lines(read.split("\n"), p, 1)
            want = (times.tobytes(), ids, read.count("\n"))
        except DataFormatError as exc:
            want = str(exc)
        for chunk_bytes in (1, 60, 1 << 15):
            with mock.patch.object(data_io, "_CHUNK_BYTES", chunk_bytes):
                try:
                    times, vocab, codes, lines_read = data_io._parse_range(p, 0, None, 1)
                    assert [t.shape for t in times] == [c.shape for c in codes]
                    got = (b"".join(map(bytes, times)), [vocab[c] for chunk in codes for c in chunk], lines_read)
                except DataFormatError as exc:
                    got = str(exc)
            assert got == want, text


def test_split_read_reports_the_first_bad_line(tmp_path):
    p = tmp_path / "events.jsonl"
    good = ['{"t": %r, "src": "u%d"}' % (k + 0.5, k % 3) for k in range(60)]

    def write(bad):
        write_lines(p, [bad.get(k, line) for k, line in enumerate(good)])

    write({50: "not json"})  # in the child's range only
    assert first_line_of_range(p, 1) <= 51
    assert load_split_and_whole(p) == (
        "error", f"{p}:51: bad event line (Expecting value: line 1 column 1 (char 0))"
    )
    write({10: '{"t": 1.0}', 50: "not json"})  # in both ranges: the first wins
    assert load_split_and_whole(p)[1].startswith(f"{p}:11: bad event line ('src')")
    write({25: '{"t": 1.0}', 50: "not json"})  # in two children's ranges
    assert first_line_of_range(p, 1, 3) <= 26 < first_line_of_range(p, 2, 3) <= 51
    assert load_split_and_whole(p, cpus=(3,))[1].startswith(f"{p}:26: bad event line ('src')")
    write({50: '{"t": NaN, "src": "u1"}'})  # a non-finite time in the child's range
    assert load_split_and_whole(p) == ("error", f"{p}:51: event time must be finite, got nan")


def test_split_read_sorts_and_nudges_across_the_split(tmp_path):
    p = tmp_path / "events.jsonl"
    times = [float(k) for k in range(40)]
    times[5], times[35], times[10] = 30.0, 2.0, 25.0  # disorder and ties across the split
    write_lines(p, ['{"t": %r, "src": "u%d"}' % (t, k % 4) for k, t in enumerate(times)])
    assert 11 < first_line_of_range(p, 1) < 36
    times_bytes, sources, caught = load_split_and_whole(p)
    assert len(caught) == 2
    assert "out of order" in caught[0] and "nudged 3 coincident" in caught[1]


def test_only_a_log_with_a_tie_is_deduped(tmp_path):
    p = tmp_path / "events.jsonl"
    sorting, nudged = f"{p}: events out of order; sorting", f"{p}: nudged 1 coincident event(s) one float step apart"
    cases = (
        ([1.0, 2.0, 3.0, 4.0], []),
        ([3.0, 1.0, 4.0, 2.0], [sorting]),
        ([1.0, 2.0, 2.0, 3.0], [nudged]),
        ([2.0, 1.0, 3.0, 2.0], [sorting, nudged]),
    )
    real = data_io._dedupe_increasing
    for times, want in cases:
        write_lines(p, ['{"t": %r, "src": "u%d"}' % (t, k) for k, t in enumerate(times)])
        calls = []
        with mock.patch.object(data_io, "_dedupe_increasing", lambda t: calls.append(1) or real(t)), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log = load_events(p)
        assert [str(w.message) for w in caught] == want
        assert len(calls) == (nudged in want)
        order = np.argsort(times, kind="stable")
        assert log.times.tobytes() == reference.dedupe_increasing_loop(np.asarray(times)[order])[0].tobytes()
        assert reference.log_sources(log) == [f"u{k}" for k in order]


def test_load_events_peaks_below_two_and_a_half_times_its_arrays(tmp_path):
    # times and codes are each allocated once and filled range by range, so
    # the read holds the parsed chunks and the result, and little else
    rng = np.random.default_rng(15)
    accounts = np.array([f"u{k:04d}" for k in range(1000)], dtype=object)
    p = tmp_path / "events.jsonl"
    n = 200_000
    save_events(reference.coded_log(np.cumsum(rng.exponential(6.0, n)), accounts[rng.integers(0, 1000, n)]), p)
    one_range = mock.patch.object(data_io, "_ranges", lambda path: [(0, None)])
    two_ranges = mock.patch.object(data_io, "_usable_cpus", lambda: 2)
    for how in (one_range, two_ranges):
        with how:
            ranges = len(data_io._ranges(p))
            tracemalloc.start()
            try:
                log = load_events(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(log) == n and ranges == (1 if how is one_range else 2)
        assert peak <= 2.5 * (log.times.nbytes + log.codes.nbytes), (ranges, peak / (12 * n))
        del log
    no_children_left()


@pytest.mark.parametrize("sep, breaks", [("\r\n", 1), ("\r", 1), ("\n\n\n", 3), ("\r\n\r\n", 2)])
def test_split_read_keeps_line_ends_and_blank_lines(tmp_path, sep, breaks):
    p = tmp_path / "events.jsonl"
    lines = ['{"t": %d.5, "src": "u%d"}' % (k, k % 3) for k in range(40)]
    p.write_bytes(sep.join(lines).encode("utf-8"))  # blank lines at every split, no final newline
    times_bytes, sources, caught = load_split_and_whole(p, cpus=(2, 3, 4))
    assert times_bytes == (np.arange(40.0) + 0.5).tobytes() and not caught
    lines[30] = "oops"
    p.write_bytes(sep.join(lines).encode("utf-8"))
    assert load_split_and_whole(p, cpus=(2, 3, 4))[1].startswith(f"{p}:{30 * breaks + 1}: bad event line")


def test_split_read_fails_on_bad_utf8_in_a_childs_range(tmp_path):
    p = tmp_path / "events.jsonl"
    data = b"".join(b'{"t": %d.5, "src": "u"}\n' % k for k in range(40))
    cut = len(data) * 3 // 4
    p.write_bytes(data[:cut] + b"\xff" + data[cut:])
    line = data[:cut].count(b"\n") + 1
    column = cut - data.rfind(b"\n", 0, cut)
    assert first_line_of_range(p, 1) <= line
    assert load_split_and_whole(p) == (
        "error", f"{p}:{line}: bad event line (invalid UTF-8 at column {column}: invalid start byte)"
    )


def test_bad_utf8_fails_with_its_line_in_either_range_of_a_large_log(tmp_path):
    # two ranges at the real range size: bytes not UTF-8 (a stray byte, a
    # cut sequence) in the parent's range or the child's give one message
    p = tmp_path / "events.jsonl"
    lines = [b'{"t": %d.5, "src": "u%d"}' % (k, k % 7) for k in range(2 * data_io._MIN_RANGE_BYTES // 22)]
    assert len(b"\n".join(lines)) >= 2 * data_io._MIN_RANGE_BYTES
    cases = ((10, b"\xff", "invalid start byte"), (len(lines) - 10, b"\xc3(", "invalid continuation byte"))
    for k, bad, reason in cases:
        p.write_bytes(b"\n".join(lines[:k] + [lines[k][:-2] + bad + lines[k][-2:]] + lines[k + 1 :]))
        with mock.patch.object(data_io, "_usable_cpus", lambda: 2):
            assert len(data_io._ranges(p)) == 2
            split = load_outcome(p)
        with mock.patch.object(data_io, "_usable_cpus", lambda: 1):
            assert split == load_outcome(p)
        no_children_left()
        column = len(lines[k]) - 1
        assert split == ("error", f"{p}:{k + 1}: bad event line (invalid UTF-8 at column {column}: {reason})")


def test_usable_cpus_respect_a_cgroup_v2_quota():
    # cpu.max holds "<quota> <period>", or "max <period>" for no quota
    cases = (
        ("max 100000\n", 4), ("250000 100000\n", 2), ("50000 100000\n", 1),
        ("800000 100000\n", 4), ("not a quota\n", 4), (None, 4),
    )
    for text, want in cases:
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}), \
                mock.patch.object(data_io, "_read_cpu_max", lambda: text):
            assert data_io._usable_cpus() == want, text


@pytest.fixture
def log_300(tmp_path):
    rng = np.random.default_rng(13)
    p = tmp_path / "events.jsonl"
    save_events(reference.coded_log(np.cumsum(rng.exponential(1.0, 300)), np.array(["a", "b", "c"], object)[rng.integers(0, 3, 300)]), p)
    return p


@contextlib.contextmanager
def counted_forks():
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    with mock.patch.object(os, "fork", fork):
        yield forks


def test_split_read_forks_at_most_one_child_per_extra_cpu(log_300):
    for cpus in (1, 2, 4):
        with split_into(cpus), counted_forks() as forks:
            load_events(log_300)
        assert len(forks) == cpus - 1
    with mock.patch.object(data_io, "_MIN_RANGE_BYTES", 1), counted_forks() as forks:
        load_events(log_300)
    assert len(forks) <= len(os.sched_getaffinity(0)) - 1
    no_children_left()


def test_split_read_reaps_its_children_when_fork_warnings_are_errors(log_300):
    # Python 3.12+ warns in the parent after forking a process that runs threads
    with split_into(1):
        want = load_outcome(log_300)
    real = os.fork
    forks = []

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks", DeprecationWarning)
        return pid

    with split_into(3), mock.patch.object(os, "fork", fork), warnings.catch_warnings():
        warnings.simplefilter("error")
        log = load_events(log_300)
    assert (log.times.tobytes(), reference.log_sources(log), []) == want
    assert len(forks) == 2
    no_children_left()


def test_split_read_parses_here_when_fork_fails(log_300):
    with split_into(1):
        want = load_outcome(log_300)

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    with split_into(3), mock.patch.object(os, "fork", fork):
        assert load_outcome(log_300) == want
    log_300.write_text(log_300.read_text(encoding="utf-8") + "oops\n", encoding="utf-8")
    with split_into(3), mock.patch.object(os, "fork", fork):
        assert load_outcome(log_300) == ("error", f"{log_300}:301: bad event line (Expecting value: line 1 column 1 (char 0))")


def test_split_read_parses_a_failed_childs_range_here(log_300):
    with split_into(1):
        want = load_outcome(log_300)
    parent = os.getpid()
    real = data_io._parse_range

    def in_children(act):
        def fake(*args):
            if os.getpid() == parent:
                parsed_here.append(args[1])
                return real(*args)
            return act(*args)

        return fake

    def failing(*args):  # the child exits nonzero
        raise MemoryError

    def silent(*args):  # the child sends nothing
        os._exit(0)

    class Unpicklable:
        def __reduce__(self):
            raise pickle.PicklingError("not this one")

    def truncated(*args):  # pickling fails at the codes, once a MiB of times went down the pipe
        times, vocab, codes, lines = real(*args)
        return times + [np.zeros(1 << 17)], vocab, [Unpicklable()], lines

    def exits_nonzero(*args):  # a whole payload, then exit status 3
        real_exit = os._exit
        os._exit = lambda code: real_exit(3)
        return real(*args)

    for act in (failing, silent, truncated, exits_nonzero):
        parsed_here = []
        with split_into(3), mock.patch.object(data_io, "_parse_range", in_children(act)), \
                counted_forks() as forks:
            assert load_outcome(log_300) == want
        assert len(forks) == 2
        assert len(parsed_here) == 3  # its own range, then each child's again
        no_children_left()


def test_a_raising_read_kills_and_reaps_its_children(log_300):
    lines = log_300.read_text(encoding="utf-8").splitlines()
    lines[1] = "oops"
    write_lines(log_300, lines)
    parent = os.getpid()
    real = data_io._parse_range

    def slow(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return real(*args)

    start = time.monotonic()
    with split_into(3), mock.patch.object(data_io, "_parse_range", slow):
        with pytest.raises(DataFormatError, match=":2: bad event line"):
            load_events(log_300)
    assert time.monotonic() - start < 30
    no_children_left()
