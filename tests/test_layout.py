"""The package's public names: every module's export list, the README's library example, and the
names the benchmark's tracer wraps."""

import functools
import importlib
import importlib.util
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import whentopost

README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ["whentopost", *(f"whentopost.{m.name}" for m in pkgutil.iter_modules(whentopost.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_matches_the_module(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(importlib.import_module(name).__all__)


def test_readme_library_example_runs(capsys):
    [code] = re.findall(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("MetricsReport(run='demo', seed=0, policy='redqueen'")


def test_every_name_the_tracer_wraps_exists():
    # a traced benchmark run fails at install if any of these names is gone
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("whentopost.cli")
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(f"whentopost.{mod}"), attr)]
    missing += [f"{mod}.{cls}.{method}" for mod, cls, method, _ in tracer.METHOD_TARGETS
                if not hasattr(getattr(importlib.import_module(f"whentopost.{mod}"), cls, None), method)]
    assert not missing


def test_the_commands_reach_every_wrapped_layer_through_its_module_attribute(tmp_path, monkeypatch):
    # rebind every wrapped name as the tracer's install does, with a counting
    # wrapper: a layer captured at import time would go uncounted
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from whentopost.cli import main

    mods = [m for k, m in sys.modules.items() if k == "whentopost" or k.startswith("whentopost.")]
    calls = Counter()

    def counting(name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for mod, attr, _ in tracer.TARGETS:
        original = getattr(importlib.import_module(f"whentopost.{mod}"), attr)
        wrapper = counting(f"{mod}.{attr}", original)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, wrapper)
    for mod, cls, method, _ in tracer.METHOD_TARGETS:
        owner = getattr(importlib.import_module(f"whentopost.{mod}"), cls)
        monkeypatch.setattr(owner, method, counting(f"{mod}.{method}", getattr(owner, method)))

    fixture = README.parent / "fixtures" / "replay_small"

    def policies(*names):
        return [arg for name in names for arg in ("--policy", name)]

    monkeypatch.chdir(tmp_path)
    commands = [
        ["simulate", "--scenario", "one-follower-hawkes", "--budget", "3,4", "--seeds", "0",
         "--feed-events", "40", *policies("redqueen", "oracle", "uniform", "segment-offline"),
         "--out", "sweep.csv"],
        ["replay", "--manifest", str(fixture / "manifest.txt"), "--seeds", "0", "--significance", "weekday",
         *policies("redqueen", "uniform", "segment-offline", "true-posts"),
         "--out", "replay.csv", "--summary", "summary.csv"],
        ["estimate-significance", "--events", str(fixture / "events.jsonl"), "--epoch", "0",
         "--out", "profile.csv"],
    ]
    for argv in commands:
        result = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert result.exit_code == 0, result.stderr
    wrapped = {f"{mod}.{attr}" for mod, attr, _ in tracer.TARGETS}
    wrapped |= {f"{mod}.{method}" for mod, _, method, _ in tracer.METHOD_TARGETS}
    # no command calls these two any more
    assert not wrapped - set(calls) - {"feed_sim.rank_path", "control_oracle.schedule_cost"}
