"""Injected-violation dogfood: the AST rules catch bugs planted in the
*real* shipped sources, not just in synthetic fixtures. Each test takes a
file the tree actually ships, plants one representative defect, and
asserts the matching rule fires (and that the unmodified source is clean
— the injection is the only delta)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.staticcheck import check_source

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def inject(path: Path, old: str, new: str) -> str:
    source = path.read_text()
    assert old in source, f"anchor drifted in {path}"
    return source.replace(old, new, 1)


def rules_of(findings):
    return sorted({f.rule for f in findings})


def test_axis_dropping_reduction_in_batch_py():
    path = SRC / "core" / "batch.py"
    assert check_source(
        path.read_text(), "src/repro/core/batch.py",
        rules=["axis-drop", "axis-broadcast", "nan-mask"],
    ) == []
    bad = inject(
        path,
        "        total_hr = us_to_hr(total_us)  # axes: (G, K, B)",
        "        total_hr = us_to_hr(total_us)  # axes: (G, K, B)\n"
        "        worst_us = total_us.sum(axis=3)",
    )
    findings = check_source(bad, "src/repro/core/batch.py",
                            rules=["axis-drop"])
    assert rules_of(findings) == ["axis-drop"]
    assert "out of range" in findings[0].message


def test_nan_unaware_min_over_cost_tensor_in_batch_py():
    path = SRC / "core" / "batch.py"
    bad = inject(
        path,
        "    registry = default_registry()",
        "    cheapest = cost_usd.min()\n    registry = default_registry()",
    )
    findings = check_source(bad, "src/repro/core/batch.py",
                            rules=["nan-mask"])
    assert rules_of(findings) == ["nan-mask"]


def test_clock_in_real_spec_builder():
    path = SRC / "cli.py"
    assert check_source(path.read_text(), "src/repro/cli.py",
                        rules=["fingerprint-purity"]) == []
    bad = inject(
        path,
        '        "iterations": iterations,',
        '        "iterations": iterations,\n        "at": time.time(),',
    )
    findings = check_source(bad, "src/repro/cli.py",
                            rules=["fingerprint-purity"])
    assert rules_of(findings) == ["fingerprint-purity"]
    assert "_canonical_profile_spec" in findings[0].message


def test_unregistered_span_in_batch_py():
    path = SRC / "core" / "batch.py"
    assert check_source(path.read_text(), "src/repro/core/batch.py",
                        rules=["obs-name", "obs-warm"]) == []
    bad = inject(path, 'with span(\n        "batch.sweep",',
                 'with span(\n        "batch.sweeep",')
    findings = check_source(bad, "src/repro/core/batch.py",
                            rules=["obs-name"])
    assert rules_of(findings) == ["obs-name"]
    assert "batch.sweeep" in findings[0].message


def test_span_planted_on_warm_kernel_in_batch_py():
    path = SRC / "core" / "batch.py"
    bad = inject(
        path,
        "    totals_us = np.zeros(len(gpu_keys))  # axes: (G)",
        '    with span("batch.sweep"):\n        pass\n'
        "    totals_us = np.zeros(len(gpu_keys))  # axes: (G)",
    )
    findings = check_source(bad, "src/repro/core/batch.py",
                            rules=["obs-warm"])
    assert rules_of(findings) == ["obs-warm"]
    assert "evaluate_compiled_batch_us" in findings[0].symbol


@pytest.mark.parametrize("marker_file", [
    SRC / "core" / "batch.py",
    SRC / "core" / "engine.py",
    SRC / "core" / "pareto.py",
])
def test_shipped_warm_markers_hold(marker_file):
    # every # obs: warm marker in the tree is currently honoured
    rel = str(marker_file.relative_to(REPO_ROOT))
    assert "# obs: warm" in marker_file.read_text()
    assert check_source(marker_file.read_text(), rel,
                        rules=["obs-warm"]) == []
