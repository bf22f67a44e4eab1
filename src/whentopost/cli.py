"""Command-line interface.

Four subcommands: ``simulate`` (synthetic scenarios), ``tune-q`` (budget
search), ``replay`` (recorded logs), ``estimate-significance`` (activity
profiles).  Flags are the stable contract; ``--config FILE`` loads a
JSON file of the shape ``{"simulate": {"scenario": ...}, ...}`` whose
entries become flag defaults (explicit flags win).

Runs are pure functions of their flags and seeds: rerunning a command
writes byte-identical output.  Failures exit nonzero with a single JSON
object on stderr.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import click

from . import data_io, scenarios
from .metrics import aggregate
from .significance import GRANULARITIES, estimate_significance

__all__ = ["main"]


def _fail(kind: str, message: str, code: int = 2):
    click.echo(json.dumps({"error": kind, "message": message}, sort_keys=True), err=True)
    sys.exit(code)


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, LookupError, ArithmeticError, TypeError, RuntimeError,
                MemoryError, OSError) as exc:
            _fail(type(exc).__name__, str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _parse_seeds(text: str) -> tuple:
    """'0-4,7' -> (0, 1, 2, 3, 4, 7)"""
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:
            lo, _, hi = part.partition("-")
            lo_i, hi_i = int(lo), int(hi)
            if hi_i < lo_i:
                raise ValueError(f"bad seed range {part!r}")
            seeds.extend(range(lo_i, hi_i + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError("no seeds given")
    return tuple(dict.fromkeys(seeds))


def _parse_budgets(text: str) -> tuple:
    """'5,400,5' -> (5.0, 400.0): repeats dropped, first order kept."""
    values = tuple(dict.fromkeys(float(p) for p in text.split(",") if p.strip()))
    if not values or any(v <= 0 for v in values):
        raise ValueError("budgets must be positive numbers")
    return values


def _tune_payload(details: dict) -> dict:
    out = {}
    for key, value in details.items():
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            out[key] = dataclasses.asdict(value)
        else:
            out[key] = value
    return out


@click.group()
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file of per-command flag defaults.",
)
@click.pass_context
def main(ctx, config):
    """Simulate feeds, control posting times, replay recorded logs."""
    if config:
        try:
            with open(config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _fail("ConfigError", f"{config}: {exc}")
        if not isinstance(loaded, dict):
            _fail("ConfigError", f"{config}: top level must be an object keyed by command")
        ctx.default_map = loaded


_COMMON_SIM = [
    click.option("--seeds", default="0-9", show_default=True, help="Seed list, e.g. '0-9' or '0,3,7'."),
    click.option("--feed-lambda0", default=10.0, show_default=True, help="Baseline feed rate (events/s)."),
    click.option("--feed-alpha", default=1.0, show_default=True, help="Feed self-excitation jump."),
    click.option("--feed-w", default=10.0, show_default=True, help="Feed excitation decay speed."),
    click.option("--feed-events", default=1000.0, show_default=True, help="Expected feed events; sets the horizon."),
    click.option("--followers", default=5, show_default=True, help="Follower count (sinusoid scenario)."),
    click.option("--peak-per-hour", default=10.0, show_default=True, help="Peak follower feed rate, events/hour (sinusoid)."),
    click.option("--horizon", default=86_400.0, show_default=True, help="Window length in seconds (sinusoid)."),
    click.option("--offline-segments", default=10, show_default=True, help="Segments for the offline planner (hawkes)."),
]


def _add_options(options):
    def deco(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn

    return deco


def _run_scenario(scenario, seeds, policies, budgets, q, **kw):
    """Run one synthetic scenario once per budget, or once at price ``q``.

    Returns one ``(config, reports, details)`` per run; the runs of a
    budget sweep share one competition (feeds and evaluations).
    """
    budget = None if budgets is None else budgets[0]
    common = dict(seeds=seeds, policies=policies, budget=budget, q=q, tune_tol=kw["tune_tol"])
    if scenario == "one-follower-hawkes":
        cfg = scenarios.HawkesScenarioConfig(
            lambda0=kw["feed_lambda0"],
            alpha=kw["feed_alpha"],
            w=kw["feed_w"],
            target_feed_events=kw["feed_events"],
            offline_segments=kw["offline_segments"],
            **common,
        )
        run = scenarios.run_one_follower_hawkes
    else:
        cfg = scenarios.SinusoidScenarioConfig(
            followers=kw["followers"],
            peak_per_hour=kw["peak_per_hour"],
            horizon=kw["horizon"],
            **common,
        )
        run = scenarios.run_multi_follower_sinusoid
    if budgets is None:
        return [(cfg, *run(cfg))]
    return run(cfg, budgets)


@main.command()
@click.option("--scenario", required=True, type=click.Choice(["one-follower-hawkes", "multi-follower-sinusoid"]))
@click.option("--policy", "policies", multiple=True, default=("redqueen", "uniform"), show_default=True)
@click.option("--budget", default=None, help="Target post count(s); comma-separate to sweep.")
@click.option("--q", default=None, type=float, help="Fixed post price (instead of a budget).")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Report CSV path.")
@click.option("--tune-tol", default=0.1, show_default=True, help="Relative budget tolerance.")
@_add_options(_COMMON_SIM)
@_guarded
def simulate(scenario, policies, budget, q, out, seeds, **kw):
    """Run a synthetic scenario and write one metrics row per policy and seed."""
    seed_list = _parse_seeds(seeds)
    budgets = _parse_budgets(budget) if budget is not None else None
    if budget is not None and q is not None:
        raise scenarios.ScenarioError("set exactly one of --budget and --q")
    reports = []
    infos = {}
    for cfg, got, details in _run_scenario(scenario, seed_list, tuple(policies), budgets, q, **kw):
        reports.extend(got)
        infos[cfg.run_label] = _tune_payload(details)
    data_io.write_report_csv(reports, out)
    click.echo(json.dumps({"written": out, "rows": len(reports), "details": infos},
                          sort_keys=True, default=str))


@main.command(name="tune-q")
@click.option("--scenario", required=True, type=click.Choice(["one-follower-hawkes", "multi-follower-sinusoid"]))
@click.option("--target", required=True, type=float, help="Desired mean post count.")
@click.option("--tol", default=0.1, show_default=True, help="Relative tolerance on the target.")
@_add_options(_COMMON_SIM)
@_guarded
def tune_q_cmd(scenario, target, tol, seeds, **kw):
    """Search the post price q whose mean post count matches the target."""
    seed_list = _parse_seeds(seeds)
    kw["tune_tol"] = tol
    [(_, _, details)] = _run_scenario(scenario, seed_list, ("redqueen",), (target,), None, **kw)
    tuned = details["redqueen_tune"]
    payload = dataclasses.asdict(tuned)
    payload["realized_budget"] = details["realized_budget"]
    click.echo(json.dumps(payload, sort_keys=True))
    if not tuned.converged:
        sys.exit(3)


@main.command()
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--policy", "policies", multiple=True, default=("redqueen", "true-posts"), show_default=True)
@click.option("--seeds", default="0-9", show_default=True)
@click.option("--q", default=None, type=float, help="Fixed post price.")
@click.option("--target-posts", default=None, type=float, help="Budget target (default: the recorded post count).")
@click.option("--significance", default="none", show_default=True,
              type=click.Choice(["none", *GRANULARITIES]),
              help="Weigh followers by their activity profile at this granularity.")
@click.option("--laplace", default=1.0, show_default=True, help="Profile smoothing strength.")
@click.option("--max-followees", default=500, show_default=True,
              help="Drop followers following more accounts than this.")
@click.option("--initial-rank", default=0, show_default=True)
@click.option("--offline-segments", default=10, show_default=True)
@click.option("--tune-tol", default=0.1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--summary", type=click.Path(dir_okay=False), default=None,
              help="Also write per-policy aggregate stats to this CSV.")
@_guarded
def replay(manifest, policies, seeds, q, target_posts, significance, laplace,
           max_followees, initial_rank, offline_segments, tune_tol, out, summary):
    """Replay a recorded window and compare policies against the true posts."""
    seed_list = _parse_seeds(seeds)
    man = data_io.load_manifest(manifest)
    events = data_io.load_events(man.events_path)
    network = data_io.load_network(man.network_path)
    dataset = data_io.build_replay_dataset(
        events, network, man.broadcaster, man.epoch, man.t0, man.tf, max_followees=max_followees
    )
    cfg = scenarios.ReplayConfig(
        seeds=seed_list,
        policies=tuple(policies),
        q=q,
        target_posts=target_posts,
        significance=None if significance == "none" else significance,
        laplace=laplace,
        tune_tol=tune_tol,
        offline_segments=offline_segments,
        initial_rank=initial_rank,
    )
    reports, details = scenarios.run_replay(cfg, dataset)
    data_io.write_report_csv(reports, out)
    if summary:
        _write_summary(reports, summary)
    click.echo(json.dumps({"written": out, "rows": len(reports), "details": _tune_payload(details)},
                          sort_keys=True, default=str))


def _write_summary(reports, path):
    import csv as _csv

    by_policy: dict = {}
    for r in reports:
        by_policy.setdefault((r.run, r.policy), []).append(r)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "policy", "metric", "n", "mean", "stderr", "median", "q25", "q75"])
        for (run, policy) in sorted(by_policy):
            rows = by_policy[(run, policy)]
            for metric in ("position_over_time", "time_at_top"):
                stats = aggregate(getattr(r, metric) for r in rows)
                writer.writerow(
                    [run, policy, metric, stats["n"], repr(stats["mean"]), repr(stats["stderr"]),
                     repr(stats["median"]), repr(stats["q25"]), repr(stats["q75"])]
                )


@main.command(name="estimate-significance")
@click.option("--events", "events_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--epoch", required=True, type=float, help="UNIX seconds the event times are relative to.")
@click.option("--granularity", default="weekday", show_default=True, type=click.Choice(list(GRANULARITIES)))
@click.option("--laplace", default=1.0, show_default=True)
@click.option("--follower", "followers", multiple=True,
              help="Profile only these ids (default: every source in the log).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_guarded
def estimate_significance_cmd(events_path, epoch, granularity, laplace, followers, out):
    """Estimate per-follower activity profiles from an event log."""
    events = data_io.load_events(events_path)
    ids = list(followers) if followers else sorted(set(str(s) for s in events.sources))
    if not ids:
        raise scenarios.ScenarioError("the event log is empty; nothing to profile")
    profile = estimate_significance(events, ids, epoch=epoch, granularity=granularity, laplace=laplace)
    data_io.write_profile_csv(profile, out)
    click.echo(json.dumps({"written": out, "followers": len(ids)}, sort_keys=True))


if __name__ == "__main__":
    main()
