"""The package's public names: every module's export list, and the README's library example."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import whentopost

README = Path(__file__).resolve().parents[1] / "README.md"
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
