"""Shared fixtures."""

import importlib.util
from pathlib import Path

import pytest

GENLOG = Path(__file__).resolve().parents[1] / "perfbench" / "genlog.py"


@pytest.fixture(scope="session")
def genlog_manifest(tmp_path_factory):
    """Manifest of the benchmark's seed-0 replay log (``perfbench/genlog.py``)."""
    spec = importlib.util.spec_from_file_location("genlog", GENLOG)
    genlog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(genlog)
    out = tmp_path_factory.mktemp("genlog")
    genlog.generate(0, out)
    return out / "manifest.txt"
