"""The perf gate interpreter: gates as data in the committed BENCH reports.

``tools/perf_gate.py`` is the only code that judges a bench report; these
tests pin each gate kind at its bound, the direction of drift tripwires,
the failure for a missing value, and that refreshing a baseline keeps its
gates.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench  # noqa: E402
import perf_gate  # noqa: E402

BASELINES = sorted(ROOT.glob("BENCH_*.json"))


def load(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def failures(baseline: dict, fresh: dict) -> list:
    return perf_gate.check(baseline, fresh)[1]


def with_value(report: dict, path: str, value) -> dict:
    fresh = copy.deepcopy(report)
    *parents, leaf = path.split(".")
    node = fresh
    for part in parents:
        node = node[part]
    node[leaf] = value
    return fresh


def test_every_committed_baseline_passes_against_itself():
    assert [p.name for p in BASELINES] == [
        "BENCH_serve.json", "BENCH_spot_rerank.json",
        "BENCH_sweep_catalog.json", "BENCH_transfer.json",
    ]
    for path in BASELINES:
        report = json.loads(path.read_text())
        lines, found = perf_gate.check(report, report)
        assert found == [], (path.name, found)
        assert len(lines) == len(report["gates"])
        assert not any("skipped" in line for line in lines), path.name


@pytest.mark.parametrize("gate, passing, failing", [
    ({"path": "s.v", "kind": "exact", "value": 0}, 0, 1),
    ({"path": "s.v", "kind": "exact", "value": True}, True, False),
    ({"path": "s.v", "kind": "floor", "bound": 10.0},
     10.0, math.nextafter(10.0, 0.0)),
    ({"path": "s.v", "kind": "ceiling", "bound": 1e-9},
     1e-9, math.nextafter(1e-9, 1.0)),
    ({"path": "s.v", "kind": "drift", "better": "higher", "tolerance": 0.5},
     10.0, math.nextafter(10.0, 0.0)),
    ({"path": "s.v", "kind": "drift", "better": "lower", "tolerance": 0.25},
     25.0, math.nextafter(25.0, 100.0)),
])
def test_each_gate_kind_passes_at_its_bound_and_fails_just_past_it(
        gate, passing, failing):
    # Drift gates compare with the committed value, 20.
    baseline = {"benchmark": "t", "s": {"v": 20.0}, "gates": [gate]}
    assert failures(baseline, {"s": {"v": passing}}) == []
    found = failures(baseline, {"s": {"v": failing}})
    assert len(found) == 1 and found[0].startswith("s.v ")


def test_speedup_drift_is_higher_is_better():
    baseline = load("BENCH_sweep_catalog.json")
    committed = baseline["sweep"]["speedup_warm"]
    assert failures(baseline, with_value(baseline, "sweep.speedup_warm",
                                         committed * 4)) == []
    found = failures(baseline, with_value(baseline, "sweep.speedup_warm",
                                          committed * 0.4))
    assert any(f.startswith("sweep.speedup_warm") and "worse" in f for f in found)


def test_logo_mape_drift_is_lower_is_better():
    baseline = load("BENCH_transfer.json")
    committed = baseline["logo"]["max_transfer_mape"]
    assert failures(baseline, with_value(baseline, "logo.max_transfer_mape",
                                         committed * 0.5)) == []
    found = failures(baseline, with_value(baseline, "logo.max_transfer_mape",
                                          committed * 1.3))
    assert len(found) == 1 and found[0].startswith("logo.max_transfer_mape")


def test_nan_fails_floor_and_drift():
    baseline = load("BENCH_spot_rerank.json")
    found = failures(baseline, with_value(baseline, "rerank.speedup", math.nan))
    assert len([f for f in found if f.startswith("rerank.speedup")]) == 2


@pytest.mark.parametrize("name, section, field", [
    ("BENCH_transfer.json", "spec_only", "overhead_ratio"),
    ("BENCH_serve.json", "load", "errors"),
    ("BENCH_serve.json", "hotswap", "dropped"),
])
def test_missing_gated_value_fails_and_names_its_path(name, section, field):
    baseline = load(name)
    fresh = copy.deepcopy(baseline)
    del fresh[section][field]
    assert f"{section}.{field} is missing from the fresh report" in failures(
        baseline, fresh)
    del fresh[section]
    assert f"{section}.{field} is missing from the fresh report" in failures(
        baseline, fresh)


def test_url_run_is_judged_on_the_sections_it_produces():
    baseline = load("BENCH_serve.json")
    smoke = {key: baseline[key] for key in ("benchmark", "endpoints", "load")}
    smoke["sections"] = ["endpoints", "load"]
    lines, found = perf_gate.check(baseline, smoke)
    assert found == []
    judged = [line for line in lines if "skipped" not in line]
    assert len(judged) == 2
    assert failures(baseline, with_value(smoke, "load.errors", 3)) == [
        "load.errors is 3, expected 0"]


def test_refreshing_a_baseline_rewrites_values_and_keeps_gates(tmp_path):
    committed = load("BENCH_transfer.json")
    target = tmp_path / "BENCH_transfer.json"
    target.write_text((ROOT / "BENCH_transfer.json").read_text())
    fresh = {key: value for key, value in committed.items() if key != "gates"}
    fresh = with_value(fresh, "spec_only.overhead_ratio", 0.5)
    perf_gate.write_report(target, fresh)
    refreshed = json.loads(target.read_text())
    assert refreshed["spec_only"]["overhead_ratio"] == 0.5
    assert refreshed["gates"] == committed["gates"]
    assert perf_gate.check(refreshed, refreshed)[1] == []
    # A fresh report written where no baseline is carries no gates.
    perf_gate.write_report(tmp_path / "new.json", fresh)
    assert "gates" not in json.loads((tmp_path / "new.json").read_text())


def test_each_written_report_appends_one_history_line(tmp_path):
    fresh = {key: value for key, value in load("BENCH_transfer.json").items()
             if key != "gates"}
    target = tmp_path / "BENCH_transfer.json"
    perf_gate.write_report(target, fresh)
    perf_gate.write_report(target, with_value(fresh, "spec_only.overhead_ratio", 0.5))
    lines = [json.loads(line) for line in
             (tmp_path / perf_gate.HISTORY_FILE).read_text().splitlines()]
    assert len(lines) == 2
    for line in lines:
        assert line["benchmark"] == fresh["benchmark"]
        assert {"commit", "dirty", "host", "python", "numpy"} <= set(line)
        assert line["dirty"] in (True, False, None)
        assert line["values"]["config.fit_iterations"] == (
            fresh["config"]["fit_iterations"])
    assert lines[1]["values"]["spec_only.overhead_ratio"] == 0.5
    assert lines[0]["values"] == perf_gate.numeric_values(fresh)
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in lines[0]["values"].values())
    # The gate never reads the history: a garbage line changes nothing.
    (tmp_path / perf_gate.HISTORY_FILE).write_text("not json\n")
    assert perf_gate.main([str(target)]) == 0


def test_cli_matches_fresh_reports_to_baselines_by_name(tmp_path, capsys):
    baseline = load("BENCH_spot_rerank.json")
    fresh_path = tmp_path / "BENCH_spot_rerank.json"
    fresh_path.write_text(json.dumps(baseline))
    assert perf_gate.main([str(fresh_path)]) == 0
    fresh_path.write_text(json.dumps(
        with_value(baseline, "equivalence.ranking_mismatches", 2)))
    assert perf_gate.main([str(fresh_path)]) == 1
    assert "equivalence.ranking_mismatches is 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bogus"], ["catalog", "--url", "http://h:1"], ["serve", "--url", "ftp://h:1"],
])
def test_bench_rejects_bad_section_choices(argv):
    with pytest.raises(SystemExit) as excinfo:
        bench.main(argv)
    assert excinfo.value.code == 2


def test_bench_render_prints_every_measured_value():
    text = bench.render(load("BENCH_transfer.json"))
    assert "logo.folds.K80.transfer_mape" in text
    assert "spec_only.overhead_ratio" in text
