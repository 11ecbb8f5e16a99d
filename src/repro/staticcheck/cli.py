"""The shared ``repro check`` driver.

One implementation serves the ``repro check`` subcommand and the
standalone :func:`main`, so flags, exit codes, and the JSON schema
cannot drift between them.

Exit codes: 0 = clean (modulo baseline), 1 = findings, 2 = usage or
internal error.

JSON schema (``version`` bumps on breaking change)::

    {
      "version": 2,
      "tool": "repro.staticcheck",
      "files_checked": <int>,
      "cache_hits": <int>,
      "ok": <bool>,
      "exit_code": 0 | 1,
      "findings": [
        {"path": str, "line": int, "col": int, "rule": str,
         "message": str, "symbol": str, "severity": str,
         "family": str, "fix_hint": str, "fingerprint": str},
        ...
      ],
      "families": {<family>: <finding count>, ...},
      "suppressed": {"pragma": <int>, "baseline": <int>},
      "stale_baseline": [<fingerprint>, ...]
    }

Version 2 added ``family`` and ``fix_hint`` per finding plus the
``families`` rollup and ``cache_hits`` (v1 consumers keyed on the fields
that remain, but the key set changed, hence the bump).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from repro.staticcheck.baseline import (
    Baseline,
    BaselineError,
    load_baseline,
    write_baseline,
)
from repro.staticcheck.runner import (
    ALL_RULES,
    AnalysisCache,
    run_checks,
)

JSON_VERSION = 2

#: repo root resolved from this file's location (src/repro/staticcheck/).
REPO_ROOT = Path(__file__).resolve().parents[3]

DEFAULT_BASELINE = REPO_ROOT / "tools" / "check_baseline.json"


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro check`` argument set to any parser/subparser."""
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to check (default: src/repro)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable report")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file of grandfathered findings "
                             "(default: tools/check_baseline.json when present)")
    parser.add_argument("--update-baseline", "--write-baseline",
                        action="store_true", dest="update_baseline",
                        help="freeze current findings into the baseline (v2) "
                             "and exit 0")
    parser.add_argument("--no-contract", action="store_true",
                        help="skip the semantic registry/zoo contract sweep")
    parser.add_argument("--rules", default=None,
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="analyse files on N worker processes "
                             "(output is byte-identical to serial)")
    parser.add_argument("--cache", type=Path, default=None, metavar="FILE",
                        help="content-hash analysis cache: reuse results for "
                             "unchanged files, write updates back")


def build_parser(prog: str = "repro check") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, description="Run repro.staticcheck over the tree.",
    )
    add_check_arguments(parser)
    return parser


def run_check(
    args: argparse.Namespace,
    prog: str = "repro check",
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
    repo_root: Optional[Path] = None,
) -> int:
    """Execute a parsed ``repro check`` invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    root = repo_root if repo_root is not None else REPO_ROOT

    if args.list_rules:
        for rule, description in sorted(ALL_RULES.items()):
            print(f"{rule:<20s} {description}", file=out)
        return 0

    rules: Optional[List[str]] = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in ALL_RULES]
        if unknown:
            print(f"{prog}: unknown rules: {', '.join(unknown)}; "
                  f"try --list-rules", file=err)
            return 2

    paths = [Path(p) for p in args.paths] if args.paths \
        else [root / "src" / "repro"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"{prog}: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=err)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.exists():
        baseline_path = DEFAULT_BASELINE

    baseline: Optional[Baseline] = None
    if baseline_path is not None and not args.update_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"{prog}: {exc}", file=err)
            return 2

    cache = AnalysisCache(args.cache) if args.cache is not None else None

    report = run_checks(
        paths, root,
        baseline=baseline,
        rules=rules,
        contracts=not args.no_contract,
        jobs=args.jobs,
        cache=cache,
    )

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        write_baseline(target, report.findings + report.grandfathered)
        print(f"{prog}: wrote "
              f"{len(report.findings) + len(report.grandfathered)} "
              f"fingerprints to {target}", file=out)
        return 0

    exit_code = 0 if report.ok else 1
    if args.as_json:
        families: Dict[str, int] = {}
        for finding in report.findings:
            families[finding.family] = families.get(finding.family, 0) + 1
        payload = {
            "version": JSON_VERSION,
            "tool": "repro.staticcheck",
            "files_checked": report.files_checked,
            "cache_hits": report.cache_hits,
            "ok": report.ok,
            "exit_code": exit_code,
            "findings": [f.to_json() for f in report.sorted_findings()],
            "families": dict(sorted(families.items())),
            "suppressed": {
                "pragma": report.pragma_suppressed,
                "baseline": len(report.grandfathered),
            },
            "stale_baseline": report.stale_baseline,
        }
        print(json.dumps(payload, indent=2), file=out)
        return exit_code

    for finding in report.sorted_findings():
        print(finding.render(), file=out)
        if finding.fix_hint:
            print(f"    hint: {finding.fix_hint}", file=out)
    summary = (
        f"{prog}: {report.files_checked} files, "
        f"{len(report.findings)} finding(s)"
    )
    if report.grandfathered:
        summary += f", {len(report.grandfathered)} grandfathered"
    if report.pragma_suppressed:
        summary += f", {report.pragma_suppressed} pragma-suppressed"
    if report.cache_hits:
        summary += f", {report.cache_hits} cache hit(s)"
    print(summary, file=out)
    if report.stale_baseline:
        print(f"{prog}: {len(report.stale_baseline)} stale baseline "
              f"entr(y/ies) — prune them:", file=err)
        for fp in report.stale_baseline:
            print(f"  {fp}", file=err)
    return exit_code


def main(argv: Optional[Sequence[str]] = None, prog: str = "repro check") -> int:
    """Standalone entry point: the ``repro check`` subcommand without the
    rest of the CLI."""
    args = build_parser(prog=prog).parse_args(argv)
    return run_check(args, prog=prog)
