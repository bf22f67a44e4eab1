"""The package's public names: every module's export list, the README's library example, and the
names the benchmark's tracer wraps."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

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
