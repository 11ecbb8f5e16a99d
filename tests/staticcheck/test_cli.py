"""``repro check`` (``repro.staticcheck.cli.main``): exit codes, text/JSON
output, baseline workflow."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.staticcheck import cli as check_cli

REPO_ROOT = Path(__file__).resolve().parents[2]

DIRTY = (
    "import random\n"
    "train_time = random.random()\n"
    "ms = total_us / 1e3\n"
)
CLEAN = (
    "from repro.units import us_to_ms\n"
    "total_us = 5.0\n"
    "total_ms = us_to_ms(total_us)\n"
)


@pytest.fixture(scope="module")
def check():
    return check_cli


def run(check, capsys, *argv):
    code = check.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_clean_file_exits_zero(check, capsys, tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    code, out, _ = run(check, capsys, str(target), "--no-contract")
    assert code == 0
    assert "0 finding(s)" in out


def test_dirty_file_exits_one_and_reports_each_rule(check, capsys, tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    code, out, _ = run(check, capsys, str(target), "--no-contract")
    assert code == 1
    for rule in ("unit-suffix", "unit-literal", "determinism"):
        assert rule in out, rule


def test_json_output_matches_documented_schema(check, capsys, tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    code, out, _ = run(check, capsys, str(target), "--no-contract", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["version"] == 2
    assert payload["tool"] == "repro.staticcheck"
    assert payload["ok"] is False
    assert payload["exit_code"] == 1
    assert payload["files_checked"] == 1
    assert payload["cache_hits"] == 0
    assert set(payload["suppressed"]) == {"pragma", "baseline"}
    assert isinstance(payload["stale_baseline"], list)
    assert payload["findings"], "dirty fixture must yield findings"
    for f in payload["findings"]:
        assert set(f) == {"path", "line", "col", "rule", "message", "symbol",
                          "severity", "family", "fix_hint", "fingerprint"}
    # the families rollup sums to the finding count
    assert sum(payload["families"].values()) == len(payload["findings"])
    assert {f["family"] for f in payload["findings"]} == set(payload["families"])


def test_rules_flag_restricts_reporting(check, capsys, tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    code, out, _ = run(check, capsys, str(target), "--no-contract",
                       "--json", "--rules", "determinism")
    payload = json.loads(out)
    assert code == 1
    assert {f["rule"] for f in payload["findings"]} == {"determinism"}


def test_unknown_rule_is_usage_error(check, capsys, tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN)
    code, _, err = run(check, capsys, str(target), "--rules", "no-such-rule")
    assert code == 2
    assert "unknown rules" in err


def test_missing_path_is_usage_error(check, capsys):
    code, _, err = run(check, capsys, "no/such/path.py")
    assert code == 2
    assert "no such path" in err


def test_list_rules_catalogue(check, capsys):
    code, out, _ = run(check, capsys, "--list-rules")
    assert code == 0
    for rule in ("unit-suffix", "unit-mix", "unit-literal", "artifact-routing",
                 "determinism", "registry-contract", "zoo-contract"):
        assert rule in out, rule


def test_write_baseline_then_clean_run(check, capsys, tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    baseline = tmp_path / "baseline.json"

    code, out, _ = run(check, capsys, str(target), "--no-contract",
                       "--baseline", str(baseline), "--write-baseline")
    assert code == 0
    assert baseline.exists()

    # grandfathered findings no longer fail the run
    code, out, _ = run(check, capsys, str(target), "--no-contract",
                       "--baseline", str(baseline))
    assert code == 0
    assert "grandfathered" in out

    # ...but a NEW finding still does
    target.write_text(DIRTY + "stamp = datetime.now()\n")
    code, out, _ = run(check, capsys, str(target), "--no-contract",
                       "--baseline", str(baseline))
    assert code == 1
    assert "datetime.now" in out


def test_fixed_findings_surface_as_stale_baseline(check, capsys, tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    baseline = tmp_path / "baseline.json"
    run(check, capsys, str(target), "--no-contract",
        "--baseline", str(baseline), "--write-baseline")

    target.write_text(CLEAN)  # debt paid down
    code, _, err = run(check, capsys, str(target), "--no-contract",
                       "--baseline", str(baseline))
    assert code == 0
    assert "stale baseline" in err


def test_repo_baseline_file_is_valid_and_loadable(check):
    baseline_path = REPO_ROOT / "tools" / "check_baseline.json"
    assert baseline_path.exists()
    payload = json.loads(baseline_path.read_text())
    assert payload["version"] == 2
    assert isinstance(payload["entries"], list)
    for entry in payload["entries"]:
        assert set(entry) == {"fingerprint", "rule", "family"}
        assert entry["fingerprint"].startswith(entry["rule"] + "::")


def test_jobs_output_is_byte_identical_to_serial(check, capsys, tmp_path):
    for i in range(4):
        (tmp_path / f"mod_{i}.py").write_text(DIRTY)
    args = [str(tmp_path), "--no-contract", "--json"]
    code_serial, out_serial, _ = run(check, capsys, *args)
    code_jobs, out_jobs, _ = run(check, capsys, *args, "--jobs", "8")
    assert code_serial == code_jobs == 1
    assert out_jobs == out_serial


def test_cache_round_trip_reuses_results(check, capsys, tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)
    cache = tmp_path / "cache.json"
    args = [str(target), "--no-contract", "--json", "--cache", str(cache)]

    _, cold, _ = run(check, capsys, *args)
    assert cache.exists()
    assert json.loads(cold)["cache_hits"] == 0

    _, warm, _ = run(check, capsys, *args)
    warm_payload = json.loads(warm)
    assert warm_payload["cache_hits"] == 1
    assert warm_payload["findings"] == json.loads(cold)["findings"]

    # content change invalidates the entry
    target.write_text(DIRTY + "x_us = 1.0\n")
    _, changed, _ = run(check, capsys, *args)
    assert json.loads(changed)["cache_hits"] == 0


def test_repro_cli_check_subcommand_matches_tools_wrapper(check, capsys, tmp_path):
    """The ``repro check`` subcommand and the standalone entry point agree."""
    from repro.cli import main as repro_main

    target = tmp_path / "dirty.py"
    target.write_text(DIRTY)

    code = repro_main(["check", str(target), "--no-contract", "--json"])
    sub_out = capsys.readouterr().out
    wrap_code, wrap_out, _ = run(check, capsys, str(target),
                                 "--no-contract", "--json")
    assert code == wrap_code == 1
    assert json.loads(sub_out)["findings"] == json.loads(wrap_out)["findings"]
