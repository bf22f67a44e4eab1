"""Command-line interface.

Four subcommands: ``simulate`` (synthetic scenarios), ``tune-q`` (budget
search), ``replay`` (recorded logs), ``estimate-significance`` (activity
profiles).  Flags are the stable contract; ``--config FILE`` loads a
JSON file of the shape ``{"simulate": {"scenario": ...}, ...}`` whose
entries become flag defaults (explicit flags win).

Runs are pure functions of their flags and seeds: rerunning a command
writes byte-identical output.  Every failure exits nonzero with one JSON
object ``{"error": kind, "message": ...}`` on stderr: exit code 2 for a
usage error or an error a command raises, 1 for an interrupt, and 3 when
a price search of ``simulate`` or ``replay`` missed its budget (before
any file is written).  ``tune-q`` exits 3 with its result on stdout.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import click

from . import data_io, scenarios
from .significance import GRANULARITIES, estimate_significance

__all__ = ["main", "ConfigError", "NotConverged"]


def _json(payload) -> str:
    """``payload`` as sorted JSON; a dataclass (a ``TuneResult``) is written as its fields."""
    return json.dumps(payload, sort_keys=True, default=dataclasses.asdict)


class ConfigError(ValueError):
    """A ``--config`` file that cannot be read, or is not an object of flag defaults per command."""


class NotConverged(RuntimeError):
    """A price search of ``simulate`` or ``replay`` missed its budget."""

    exit_code = 3


#: Most seeds a seed list may name, repeats included, counted before any list is built.
MAX_SEEDS = 100_000


def _parse_seeds(text: str) -> tuple:
    """'0-4,7' -> (0, 1, 2, 3, 4, 7)"""
    spans = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        span = re.fullmatch(r"([0-9]+)(?:\s*-\s*([0-9]+))?", part)
        if span is None:
            raise ValueError(f"bad seed {part!r}: a seed is a nonnegative integer N, or a range N-M")
        spans.append((int(span[1]), int(span[2] or span[1])))
        if spans[-1][1] < spans[-1][0]:
            raise ValueError(f"bad seed range {part!r}")
    count = sum(hi - lo + 1 for lo, hi in spans)
    if not count:
        raise ValueError("no seeds given")
    if count > MAX_SEEDS:
        raise ValueError(f"the seed list names {count} seeds, more than MAX_SEEDS = {MAX_SEEDS}")
    return tuple(dict.fromkeys(s for lo, hi in spans for s in range(lo, hi + 1)))


def _parse_budgets(text: str) -> tuple:
    """'5,400,5' -> (5.0, 400.0): repeats dropped, first order kept; each budget's config checks its value."""
    values = tuple(dict.fromkeys(float(p) for p in text.split(",") if p.strip()))
    if not values:
        raise ValueError(f"budget must be positive and finite, got {text!r}")
    return values


def _check_converged(label: str, details: dict) -> None:
    """Raise ``NotConverged`` unless every price search of a run reached its budget."""
    for tuned in (details.get("redqueen_tune"), details.get("oracle_tune")):
        if tuned is not None and not tuned.converged:
            raise NotConverged(f"{label}: {tuned.message}")


class _Group(click.Group):
    """The command group, the one place where a usage error (a bad type or choice, an unknown or
    missing option or command, a missing file), an error a command raises or an interrupt becomes
    the JSON line and the exit code: the error's ``exit_code``, 1 for an interrupt, else 2.  Asked
    for no standalone mode, it lets them reach the caller, as click does."""

    def main(self, *args, standalone_mode=True, **kwargs):
        try:
            code = super().main(*args, standalone_mode=False, **kwargs)
        except (click.UsageError, click.Abort, ValueError, LookupError, ArithmeticError, TypeError,
                RuntimeError, MemoryError, OSError) as exc:
            if not standalone_mode:
                raise
            message = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
            code = getattr(exc, "exit_code", 2)
            if isinstance(exc, click.Abort):
                message, code = "interrupted", 1
            click.echo(_json({"error": type(exc).__name__, "message": message}), err=True)
        if standalone_mode:
            sys.exit(code)
        return code


@click.group(cls=_Group, no_args_is_help=False)
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
            raise ConfigError(f"{config}: {exc}") from exc
        if not isinstance(loaded, dict) or not all(isinstance(v, dict) for v in loaded.values()):
            raise ConfigError(f"{config}: must be an object keyed by command, of objects of flag defaults")
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
    return run(cfg, budgets)


@main.command()
@click.option("--scenario", required=True, type=click.Choice(["one-follower-hawkes", "multi-follower-sinusoid"]))
@click.option("--policy", "policies", multiple=True, default=("redqueen", "uniform"), show_default=True)
@click.option("--budget", default=None, help="Target post count(s); comma-separate to sweep.")
@click.option("--q", default=None, type=float, help="Fixed post price (instead of a budget).")
@click.option("--out", type=click.Path(dir_okay=False), required=True, help="Report CSV path.")
@click.option("--tune-tol", default=0.1, show_default=True, help="Relative budget tolerance.")
@_add_options(_COMMON_SIM)
def simulate(scenario, policies, budget, q, out, seeds, **kw):
    """Run a synthetic scenario and write one metrics row per policy and seed."""
    seed_list = _parse_seeds(seeds)
    budgets = _parse_budgets(budget) if budget is not None else None
    reports = []
    infos = {}
    for cfg, got, details in _run_scenario(scenario, seed_list, tuple(policies), budgets, q, **kw):
        _check_converged(cfg.run_label, details)
        reports.extend(got)
        infos[cfg.run_label] = details
    data_io.write_report_csv(reports, out)
    click.echo(_json({"written": out, "rows": len(reports), "details": infos}))


@main.command(name="tune-q")
@click.option("--scenario", required=True, type=click.Choice(["one-follower-hawkes", "multi-follower-sinusoid"]))
@click.option("--target", required=True, type=float, help="Desired mean post count.")
@click.option("--tol", default=0.1, show_default=True, help="Relative tolerance on the target.")
@_add_options(_COMMON_SIM)
@click.pass_context
def tune_q_cmd(ctx, scenario, target, tol, seeds, **kw):
    """Search the post price q whose mean post count matches the target."""
    seed_list = _parse_seeds(seeds)
    kw["tune_tol"] = tol
    [(_, _, details)] = _run_scenario(scenario, seed_list, ("redqueen",), (target,), None, **kw)
    tuned = details["redqueen_tune"]
    click.echo(_json({**dataclasses.asdict(tuned), "realized_budget": details["realized_budget"]}))
    if not tuned.converged:
        ctx.exit(3)


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
def replay(manifest, policies, seeds, q, target_posts, significance, laplace,
           max_followees, initial_rank, offline_segments, tune_tol, out, summary):
    """Replay a recorded window and compare policies against the true posts."""
    cfg = scenarios.ReplayConfig(
        seeds=_parse_seeds(seeds),
        policies=tuple(policies),
        q=q,
        target_posts=target_posts,
        significance=None if significance == "none" else significance,
        laplace=laplace,
        tune_tol=tune_tol,
        offline_segments=offline_segments,
        initial_rank=initial_rank,
    )
    man = data_io.load_manifest(manifest)
    events = data_io.load_events(man.events_path)
    network = data_io.load_network(man.network_path)
    dataset = data_io.build_replay_dataset(
        events, network, man.broadcaster, man.epoch, man.t0, man.tf, max_followees=max_followees
    )
    reports, details = scenarios.run_replay(cfg, dataset)
    _check_converged(f"replay:{dataset.broadcaster}", details)
    data_io.write_report_csv(reports, out)
    if summary:
        data_io.write_summary_csv(reports, summary)
    click.echo(_json({"written": out, "rows": len(reports), "details": details}))


@main.command(name="estimate-significance")
@click.option("--events", "events_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--epoch", required=True, type=float, help="UNIX seconds the event times are relative to.")
@click.option("--granularity", default="weekday", show_default=True, type=click.Choice(list(GRANULARITIES)))
@click.option("--laplace", default=1.0, show_default=True)
@click.option("--follower", "followers", multiple=True,
              help="Profile only these ids (default: every source in the log).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def estimate_significance_cmd(events_path, epoch, granularity, laplace, followers, out):
    """Estimate per-follower activity profiles from an event log."""
    events = data_io.load_events(events_path)
    ids = list(followers) if followers else sorted(events.ids.tolist())
    if not ids:
        raise scenarios.ScenarioError("the event log is empty; nothing to profile")
    profile = estimate_significance(events, ids, epoch=epoch, granularity=granularity, laplace=laplace)
    data_io.write_profile_csv(profile, out)
    click.echo(_json({"written": out, "followers": len(profile.ids)}))


if __name__ == "__main__":
    main()
