"""Baseline files: grandfathered findings that don't fail the build.

A baseline is a JSON file of finding fingerprints (rule + file + symbol,
deliberately line-number-free). Findings whose fingerprint appears in the
baseline are reported as suppressed instead of failing the run, which lets
a new rule land with the tree's pre-existing debt frozen: new code is held
to the rule immediately, old findings surface one file at a time.

Workflow::

    python -m repro check src/repro --write-baseline   # freeze current debt
    python -m repro check src/repro                    # fails only on NEW findings

Two on-disk versions exist. Version 1 is a flat ``fingerprints`` string
list; version 2 records one entry per fingerprint with its rule and
family, so a reviewer reading the baseline can see *what kind* of debt is
frozen without grepping the tree. Both load; writes always produce v2.

Stale fingerprints (entries matching nothing) are reported so the baseline
shrinks monotonically as debt is paid down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from repro.errors import ReproError
from repro.staticcheck.findings import Finding

BASELINE_VERSION = 2

_COMMENT = (
    "Grandfathered repro.staticcheck findings. Entries are "
    "rule::path::symbol fingerprints; remove entries as debt is "
    "paid down. Regenerate with: python -m repro check --write-baseline"
)


class BaselineError(ReproError):
    """A baseline file is unreadable or structurally invalid."""


@dataclass(frozen=True)
class Baseline:
    """An immutable set of grandfathered finding fingerprints.

    ``entries`` carries the v2 per-fingerprint metadata (rule, family);
    v1 files load with empty metadata. Matching is by fingerprint only —
    the metadata is for humans reading the file.
    """

    fingerprints: FrozenSet[str] = frozenset()
    path: str = ""
    entries: Mapping[str, Mapping[str, str]] = field(default_factory=dict)

    def split(self, findings: Sequence[Finding]) -> Tuple[List[Finding], List[Finding]]:
        """Partition findings into (new, grandfathered)."""
        new: List[Finding] = []
        old: List[Finding] = []
        for finding in findings:
            (old if finding.fingerprint in self.fingerprints else new).append(finding)
        return new, old

    def stale_entries(self, findings: Sequence[Finding]) -> List[str]:
        """Baseline fingerprints that no current finding matches."""
        live = {f.fingerprint for f in findings}
        return sorted(self.fingerprints - live)


def _load_v1(data: Dict[str, Any], path: Path) -> Baseline:
    fingerprints = data.get("fingerprints")
    if not isinstance(fingerprints, list) \
            or not all(isinstance(fp, str) for fp in fingerprints):
        raise BaselineError(
            f"baseline {path} must carry a 'fingerprints' list of strings"
        )
    return Baseline(fingerprints=frozenset(fingerprints), path=str(path))


def _load_v2(data: Dict[str, Any], path: Path) -> Baseline:
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise BaselineError(f"baseline {path} (v2) must carry an 'entries' list")
    entries: Dict[str, Dict[str, str]] = {}
    for entry in raw_entries:
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("fingerprint"), str):
            raise BaselineError(
                f"baseline {path} (v2) entries must be objects with a "
                f"'fingerprint' string"
            )
        entries[entry["fingerprint"]] = {
            "rule": str(entry.get("rule", "")),
            "family": str(entry.get("family", "")),
        }
    return Baseline(
        fingerprints=frozenset(entries), path=str(path), entries=entries
    )


def load_baseline(path: Path) -> Baseline:
    """Load a baseline file (v1 or v2); a missing file is an empty baseline."""
    if not path.exists():
        return Baseline(path=str(path))
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise BaselineError(f"baseline {path} must be a JSON object")
    version = data.get("version", 1)
    if version == 1 or "fingerprints" in data:
        return _load_v1(data, path)
    if version == BASELINE_VERSION:
        return _load_v2(data, path)
    raise BaselineError(f"baseline {path} has unsupported version {version!r}")


def write_baseline(path: Path, findings: Sequence[Finding]) -> Baseline:
    """Freeze the given findings as a new v2 baseline at ``path``."""
    by_fingerprint: Dict[str, Finding] = {}
    for finding in findings:
        by_fingerprint.setdefault(finding.fingerprint, finding)
    entries = [
        {
            "fingerprint": fp,
            "rule": by_fingerprint[fp].rule,
            "family": by_fingerprint[fp].family,
        }
        for fp in sorted(by_fingerprint)
    ]
    payload = {
        "version": BASELINE_VERSION,
        "comment": _COMMENT,
        "entries": entries,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return Baseline(
        fingerprints=frozenset(by_fingerprint),
        path=str(path),
        entries={e["fingerprint"]: {"rule": e["rule"], "family": e["family"]}
                 for e in entries},
    )
