#!/usr/bin/env python
"""CI perf gate: judge fresh bench reports by the gates their baselines carry.

Every committed ``BENCH_<name>.json`` holds the last recorded report
plus a ``gates`` list, and this module is the only code that judges a
report against them. Each fresh report (written by ``tools/bench.py``)
is matched to the committed report of the same file name; every gate
names a dotted ``path`` into the report and is one of:

* ``exact``   — the fresh value equals ``value`` (flags, counts, lists);
* ``floor``   — the fresh value is at least ``bound``;
* ``ceiling`` — the fresh value is at most ``bound``;
* ``drift``   — a tripwire against the committed value: the fresh value
  may be worse by at most the fraction ``tolerance``, where ``better``
  (``higher`` or ``lower``) says which direction is worse.

A CI runner is not the machine a baseline was recorded on, so gates only
hold machine-independent quantities: exact correctness flags, coverage
counts, and same-process ratios in which host speed cancels. A gated
value missing from a fresh report fails and names its path; gates on a
section a report does not list in its ``sections`` (a ``--url`` serve
run measures only ``endpoints`` and ``load``) are skipped.

Usage::

    python tools/perf_gate.py fresh/BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: The committed baselines live at the repository root.
ROOT = Path(__file__).resolve().parents[1]

#: Written beside the reports: one line per report written, never read
#: by the gates. Absolute times are kept here as a trajectory.
HISTORY_FILE = "BENCH_history.jsonl"

_MISSING = object()


def lookup(report: Dict[str, Any], path: str) -> Any:
    """The value at dotted ``path`` in ``report``, or ``_MISSING``."""
    value: Any = report
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return _MISSING
        value = value[part]
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def judge(gate: Dict[str, Any], baseline: Dict[str, Any],
          fresh: Dict[str, Any]) -> Tuple[str, Optional[str]]:
    """One gate's printed line and its failure message (None if it holds)."""
    path, kind = gate["path"], gate["kind"]
    new = lookup(fresh, path)
    if new is _MISSING:
        return f"{path:<40s} missing  [FAIL]", f"{path} is missing from the fresh report"
    if kind == "exact":
        want = gate["value"]
        if new == want:
            return f"{path:<40s} {new!r} == {want!r}  [ok]", None
        return (f"{path:<40s} {new!r} != {want!r}  [FAIL]",
                f"{path} is {new!r}, expected {want!r}")
    if not _is_number(new):
        return f"{path:<40s} {new!r}  [FAIL]", f"{path} is {new!r}, not a number"
    if kind in ("floor", "ceiling"):
        bound = gate["bound"]
        ok = new >= bound if kind == "floor" else new <= bound
        relation = ">=" if kind == "floor" else "<="
        if ok:
            return f"{path:<40s} {new:.4g} {relation} {bound:.4g}  [ok]", None
        return (f"{path:<40s} {new:.4g} not {relation} {bound:.4g}  [FAIL]",
                f"{path} is {new:.4g}, past its {kind} of {bound:.4g}")
    if kind == "drift":
        base = lookup(baseline, path)
        tolerance = gate["tolerance"]
        sign = 1.0 if gate["better"] == "higher" else -1.0
        gain = sign * (new - base) / base  # > 0: better than committed
        line = (f"{path:<40s} committed {base:.4g} fresh {new:.4g} "
                f"({gain:+.1%} {gate['better']}-is-better, tolerance {tolerance:.0%})")
        if not gain >= -tolerance:  # also fails a NaN
            return f"{line}  [REGRESSION]", (
                f"{path} {new:.4g} is {-gain:.0%} worse than the committed "
                f"{base:.4g} (tolerance {tolerance:.0%})")
        if gain > tolerance:
            return f"{line}  [ok: improved, consider refreshing]", None
        return f"{line}  [ok]", None
    raise ValueError(f"gate on {path}: unknown kind {kind!r}")


def check(baseline: Dict[str, Any],
          fresh: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """Judge ``fresh`` by every gate of ``baseline``: (lines, failures)."""
    gates = baseline.get("gates")
    if not gates:
        raise ValueError(f"baseline {baseline.get('benchmark')!r} carries no gates")
    ran = fresh.get("sections")
    lines: List[str] = []
    failures: List[str] = []
    for gate in gates:
        if ran is not None and gate["path"].split(".")[0] not in ran:
            lines.append(f"  {gate['path']:<40s} section not run  [skipped]")
            continue
        line, failure = judge(gate, baseline, fresh)
        lines.append(f"  {line}")
        if failure is not None:
            failures.append(failure)
    return lines, failures


def numeric_values(report: Dict[str, Any]) -> Dict[str, float]:
    """Every number in ``report`` by dotted path, booleans excluded."""
    values: Dict[str, float] = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else key, item)
        elif _is_number(value):
            values[prefix] = value

    walk("", report)
    return values


def _commit() -> Tuple[Optional[str], Optional[bool]]:
    """(HEAD commit, whether tracked files differ from it), or Nones
    outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain=v2", "--branch", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if done.returncode != 0:
        return None, None
    lines = done.stdout.splitlines()
    heads = [line.split()[-1] for line in lines if line.startswith("# branch.oid ")]
    commit = heads[0] if heads and heads[0] != "(initial)" else None
    return commit, any(not line.startswith("#") for line in lines)


def _numpy_version() -> Optional[str]:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def write_report(path: Path, report: Dict[str, Any]) -> None:
    """Write ``report`` to ``path``, keeping the gates of a report already
    there: writing over a committed baseline refreshes its measured values
    and leaves its gates as they are. One gate per line.

    Also appends one line to :data:`HISTORY_FILE` beside ``path``: the
    commit, whether the tracked files differed from it (``dirty``), host,
    Python, numpy and every numeric value of the report."""
    gates = json.loads(path.read_text()).get("gates") if path.exists() else None
    text = json.dumps(report, indent=2)
    if gates:
        rows = ",\n".join(f"    {json.dumps(gate)}" for gate in gates)
        text = f'{text[:-2]},\n  "gates": [\n{rows}\n  ]\n}}'
    path.write_text(text + "\n")
    commit, dirty = _commit()
    line = {
        "benchmark": report.get("benchmark"),
        "commit": commit,
        "dirty": dirty,
        "host": platform.node(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "values": numeric_values(report),
    }
    with open(path.parent / HISTORY_FILE, "a") as history:
        history.write(json.dumps(line) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", nargs="+", type=Path,
                        help="fresh reports, each judged by the committed "
                             "report of the same file name")
    args = parser.parse_args(argv)
    failures: List[str] = []
    for fresh_path in args.fresh:
        baseline_path = ROOT / fresh_path.name
        if not baseline_path.exists():
            parser.error(f"no committed baseline {baseline_path.name} for {fresh_path}")
        lines, found = check(json.loads(baseline_path.read_text()),
                             json.loads(fresh_path.read_text()))
        print(f"{fresh_path} vs committed {baseline_path.name}")
        print("\n".join(lines))
        failures.extend(f"{fresh_path.name}: {failure}" for failure in found)
    if failures:
        print("\nPERF GATE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
