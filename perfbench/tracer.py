"""Spans around the package's layer boundaries, and the metrics they yield.

The benchmark's traced runs install wrappers around public functions of
``whentopost`` from outside the package: every module attribute (and the
one class attribute, ``SignificanceProfile.step_schedule``) bound to a
wrapped function is rebound to a wrapper that records a span.  A span
holds its name, start, end, parent span and the run it belongs to, plus
counters read from the call's arguments and result.  Spans stay in
memory; the caller writes them out once the run has ended.

A span's self time is its duration minus the part of it that its child
spans cover.  ``layer_metrics`` turns one run's spans into the
``<module>.<function>.<quantity>`` metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings

# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for one process and one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if not self._open or self._open[-1] != span["id"]:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._open.pop()


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# ---------------------------------------------------------------------------
# counters read at each boundary (arguments and result only, no re-work)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _oracle_counts(args, kwargs, result):
    inst = _arg(args, kwargs, 0, "inst")
    n = inst.n_stages
    return {"stages": n, "table_mib_computed": (n + 1) * (inst.r0 + n + 1) * 8 / 2**20}


def _redqueen_kernel_counts(args, kwargs, result):
    return {"feed_events": int(args[0].shape[0]), "posts": int(result.shape[0])}


def _events_count(args, kwargs, result):
    return {"events": len(result)}


def _trajectory_counts(args, kwargs, result):
    return {"rank_changes": sum(int(ts.shape[0]) for ts in result.rank_times)}


def _network_counts(args, kwargs, result):
    return {"edges": sum(len(v) for v in result.followers_of.values())}


def _dataset_counts(args, kwargs, result):
    network = _arg(args, kwargs, 1, "network")
    broadcaster = _arg(args, kwargs, 2, "broadcaster")
    kept = len(result.follower_ids)
    return {
        "followers_kept": kept,
        "followers_dropped": len(network.followers(broadcaster)) - kept,
        "feed_events": sum(len(f) for f in result.feeds),
    }


def _significance_counts(args, kwargs, result):
    events = _arg(args, kwargs, 0, "events")
    return {"followers": len(result.values), "log_events": len(events)}


def _segments_count(args, kwargs, result):
    return {"segments": int(result.values.shape[1])}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


#: (module, attribute, counters) for every wrapped function.  The span is
#: named ``<module>.<attribute>`` with the ``whentopost.`` prefix dropped.
TARGETS = [
    ("scenarios", "run_one_follower_hawkes", None),
    ("scenarios", "run_replay", None),
    ("control_online", "run_redqueen_fast", None),
    ("control_online", "tune_q", None),
    ("kernels", "redqueen_posts", _redqueen_kernel_counts),
    ("control_oracle", "oracle_schedule", _oracle_counts),
    ("control_oracle", "schedule_cost", None),
    ("control_oracle", "instance_from_feed", None),
    ("control_oracle", "decisions_to_post_times", None),
    ("kernels", "oracle_decisions", None),
    ("point_process", "sample_hawkes", _events_count),
    ("kernels", "sample_hawkes_times", None),
    ("feed_sim", "trajectory_from_posts", _trajectory_counts),
    ("feed_sim", "rank_path", None),
    ("metrics", "report_from_trajectory", None),
    ("metrics", "normalize_report", None),
    ("metrics", "aggregate", None),
    ("control_baselines", "uniform_poisson_posts", None),
    ("control_baselines", "segment_offline_posts", None),
    ("control_baselines", "true_posts_playback", None),
    ("data_io", "load_manifest", None),
    ("data_io", "load_events", _events_count),
    ("data_io", "load_network", _network_counts),
    ("data_io", "build_replay_dataset", _dataset_counts),
    ("data_io", "write_report_csv", _bytes_written),
    ("data_io", "write_profile_csv", _bytes_written),
    ("significance", "estimate_significance", _significance_counts),
]

#: Class attributes wrapped the same way: (module, class, method, counters).
METHOD_TARGETS = [
    ("significance", "SignificanceProfile", "step_schedule", _segments_count),
]


def _wrap(tracer: Tracer, name: str, fn, counters):
    if name == "control_online.tune_q":
        return _wrap_tune(tracer, name, fn)
    count_warnings = name == "data_io.load_events"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            if count_warnings:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count_warnings:
            span["attrs"]["warnings"] = len(caught)
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if counters is not None:
            span["attrs"].update(counters(args, kwargs, result))
        return result

    return traced


def _wrap_tune(tracer: Tracer, name: str, fn):
    """``tune_q`` additionally records every (q, mean posts) evaluation."""

    @functools.wraps(fn)
    def traced(target_posts, mean_posts_fn, *args, **kwargs):
        span = tracer.open(name)
        trace = span["attrs"]["evaluations"] = []

        def recorded(q):
            c = mean_posts_fn(q)
            trace.append([q, c])
            return c

        try:
            result = fn(target_posts, recorded, *args, **kwargs)
        finally:
            tracer.close(span)
        span["attrs"]["evals"] = len(trace)
        span["attrs"]["converged"] = bool(result.converged)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Rebind every reference to a target inside loaded ``whentopost`` modules.

    Call after importing ``whentopost.cli`` so every module that holds a
    reference is loaded.
    """
    mods = {k: m for k, m in sys.modules.items() if k == "whentopost" or k.startswith("whentopost.")}
    for mod, attr, counters in TARGETS:
        original = getattr(mods[f"whentopost.{mod}"], attr)
        wrapper = _wrap(tracer, f"{mod}.{attr}", original, counters)
        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
    for mod, cls_name, method, counters in METHOD_TARGETS:
        cls = getattr(mods[f"whentopost.{mod}"], cls_name)
        original = getattr(cls, method)
        setattr(cls, method, _wrap(tracer, f"{mod}.{method}", original, counters))


# ---------------------------------------------------------------------------
# per-layer metrics from one run's spans
# ---------------------------------------------------------------------------

#: Layer of each span name, by longest matching prefix.
LAYERS = {
    "cli": "dispatch",
    "scenarios.": "dispatch",
    "control_online.": "controller",
    "kernels.redqueen_posts": "controller",
    "control_oracle.": "oracle",
    "kernels.oracle_decisions": "oracle",
    "point_process.": "sampling",
    "kernels.sample_hawkes_times": "sampling",
    "feed_sim.": "rank_metrics",
    "metrics.": "rank_metrics",
    "control_baselines.": "baselines",
    "data_io.": "io",
    "significance.": "significance",
}
LAYER_NAMES = sorted(set(LAYERS.values()))

#: Workload -> the layer predicted to have the largest self time.
PREDICTED_TOP = {
    "hawkes-oracle": "oracle",
    "replay-week": "controller",
    "profile-log": "significance",
}


def layer_of(name: str) -> str:
    best = max((p for p in LAYERS if _matches(name, p)), key=len)
    return LAYERS[best]


#: Metric -> (unit, how it is derived).  A span key is a span name, or a
#: prefix ending in "." that matches every span under it.  Derivations:
#: ("s", key) summed duration; ("calls", key) call count; ("sum", key, attr)
#: summed counter; ("max", key, attr) largest counter; ("self", key) summed
#: self time; ("layer", layer) summed self time of the layer's spans;
#: ("per_event",) controller seconds per merged feed event, in microseconds.
METRICS = {
    "control_oracle.oracle_schedule.s": ("s", ("s", "control_oracle.oracle_schedule")),
    "control_oracle.oracle_schedule.calls": ("count", ("calls", "control_oracle.oracle_schedule")),
    "control_oracle.oracle_schedule.stages": ("count", ("sum", "control_oracle.oracle_schedule", "stages")),
    "control_oracle.oracle_schedule.table_mib_computed":
        ("MiB", ("max", "control_oracle.oracle_schedule", "table_mib_computed")),
    "kernels.oracle_decisions.s": ("s", ("s", "kernels.oracle_decisions")),
    "control_oracle.schedule_cost.s": ("s", ("s", "control_oracle.schedule_cost")),
    "control_online.run_redqueen_fast.s": ("s", ("s", "control_online.run_redqueen_fast")),
    "control_online.run_redqueen_fast.calls": ("count", ("calls", "control_online.run_redqueen_fast")),
    "control_online.run_redqueen_fast.feed_events": ("count", ("sum", "kernels.redqueen_posts", "feed_events")),
    "control_online.run_redqueen_fast.posts": ("count", ("sum", "kernels.redqueen_posts", "posts")),
    "control_online.run_redqueen_fast.us_per_event": ("us", ("per_event",)),
    "kernels.redqueen_posts.s": ("s", ("s", "kernels.redqueen_posts")),
    "control_online.tune_q.s": ("s", ("s", "control_online.tune_q")),
    "control_online.tune_q.evals": ("count", ("sum", "control_online.tune_q", "evals")),
    "point_process.sample_hawkes.s": ("s", ("s", "point_process.sample_hawkes")),
    "point_process.sample_hawkes.events": ("count", ("sum", "point_process.sample_hawkes", "events")),
    "kernels.sample_hawkes_times.s": ("s", ("s", "kernels.sample_hawkes_times")),
    "feed_sim.trajectory_from_posts.s": ("s", ("s", "feed_sim.trajectory_from_posts")),
    "feed_sim.trajectory_from_posts.calls": ("count", ("calls", "feed_sim.trajectory_from_posts")),
    "feed_sim.trajectory_from_posts.rank_changes":
        ("count", ("sum", "feed_sim.trajectory_from_posts", "rank_changes")),
    "feed_sim.rank_path.calls": ("count", ("calls", "feed_sim.rank_path")),
    "metrics.report_from_trajectory.s": ("s", ("s", "metrics.report_from_trajectory")),
    "metrics.report_from_trajectory.calls": ("count", ("calls", "metrics.report_from_trajectory")),
    "metrics.aggregate.s": ("s", ("s", "metrics.aggregate")),
    "data_io.load_events.s": ("s", ("s", "data_io.load_events")),
    "data_io.load_events.events": ("count", ("sum", "data_io.load_events", "events")),
    "data_io.load_events.warnings": ("count", ("sum", "data_io.load_events", "warnings")),
    "data_io.load_network.s": ("s", ("s", "data_io.load_network")),
    "data_io.load_network.edges": ("count", ("sum", "data_io.load_network", "edges")),
    "data_io.build_replay_dataset.s": ("s", ("s", "data_io.build_replay_dataset")),
    "data_io.build_replay_dataset.followers_kept":
        ("count", ("sum", "data_io.build_replay_dataset", "followers_kept")),
    "data_io.build_replay_dataset.followers_dropped":
        ("count", ("sum", "data_io.build_replay_dataset", "followers_dropped")),
    "data_io.build_replay_dataset.feed_events":
        ("count", ("sum", "data_io.build_replay_dataset", "feed_events")),
    "significance.estimate_significance.s": ("s", ("s", "significance.estimate_significance")),
    "significance.estimate_significance.followers":
        ("count", ("sum", "significance.estimate_significance", "followers")),
    "significance.estimate_significance.log_events":
        ("count", ("sum", "significance.estimate_significance", "log_events")),
    "significance.step_schedule.s": ("s", ("s", "significance.step_schedule")),
    "significance.step_schedule.segments": ("count", ("sum", "significance.step_schedule", "segments")),
    "data_io.write_report_csv.s": ("s", ("s", "data_io.write_report_csv")),
    "data_io.write_report_csv.bytes": ("B", ("sum", "data_io.write_report_csv", "bytes")),
    "data_io.write_profile_csv.s": ("s", ("s", "data_io.write_profile_csv")),
    "data_io.write_profile_csv.bytes": ("B", ("sum", "data_io.write_profile_csv", "bytes")),
    "control_baselines.s": ("s", ("s", "control_baselines.")),
    "control_baselines.calls": ("count", ("calls", "control_baselines.")),
    "scenarios.self_s": ("s", ("self", "scenarios.")),
    "cli.self_s": ("s", ("self", "cli")),
    **{f"layer.{layer}.self_s": ("s", ("layer", layer)) for layer in LAYER_NAMES},
}


#: Run-level figures the traced run adds beside METRICS, with their units.
BENCH_METRICS = {
    "bench.traced_wall_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.unattributed_share": "frac",
    "bench.top_layer_as_predicted": "count",
}


def _matches(name: str, key: str) -> bool:
    return name == key or (key.endswith(".") and name.startswith(key))


def layer_metrics(spans: list[dict]) -> dict:
    """Every METRICS entry (value only) for the spans of one run."""
    selfs = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYER_NAMES}
    for s in spans:
        layer_self[layer_of(s["name"])] += selfs[s["id"]]

    out = {}
    for metric, (_unit, how) in METRICS.items():
        kind = how[0]
        if kind == "per_event":
            events = out["control_online.run_redqueen_fast.feed_events"]
            secs = out["control_online.run_redqueen_fast.s"]
            out[metric] = secs / events * 1e6 if events else 0.0
            continue
        if kind == "layer":
            out[metric] = layer_self[how[1]]
            continue
        key = how[1]
        hit = [s for s in spans if _matches(s["name"], key)]
        if kind == "s":
            out[metric] = sum(s["end"] - s["start"] for s in hit)
        elif kind == "calls":
            out[metric] = len(hit)
        elif kind == "sum":
            out[metric] = sum(s["attrs"].get(how[2], 0) for s in hit)
        elif kind == "max":
            out[metric] = max((s["attrs"].get(how[2], 0) for s in hit), default=0)
        elif kind == "self":
            out[metric] = sum(selfs[s["id"]] for s in hit)
    return out


def top_layer(metrics: dict) -> str:
    return max(LAYER_NAMES, key=lambda layer: metrics[f"layer.{layer}.self_s"])

