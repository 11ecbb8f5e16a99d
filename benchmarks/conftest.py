"""Benchmark-harness fixtures.

Every benchmark regenerates one paper figure at the canonical experiment
configuration, times it with pytest-benchmark, prints the figure's
rows/series, and archives them under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.artifacts.workspace import Workspace, set_active_workspace

RESULTS_DIR = Path(__file__).parent / "results"

# Benchmarks check against the scalar Eq. (2) oracle in the repository's
# ``tests`` package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session", autouse=True)
def benchmark_workspace(tmp_path_factory, results_dir):
    """A fresh artifact workspace per benchmark session.

    A temp directory keeps timings honest (every session profiles from
    cold, rather than inheriting a warm developer workspace); the per-kind
    hit/miss counters are archived next to the figure outputs.
    """
    workspace = Workspace(tmp_path_factory.mktemp("workspace"))
    previous = set_active_workspace(workspace)
    yield workspace
    set_active_workspace(previous)
    (results_dir / "workspace-counters.json").write_text(
        json.dumps(workspace.counters_to_json(), indent=2) + "\n"
    )


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a rendered figure and archive it as ``results/<name>.txt``."""

    def _emit(name: str, rendered: str) -> None:
        banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
        print(banner + rendered)
        (results_dir / f"{name}.txt").write_text(rendered + "\n")

    return _emit
