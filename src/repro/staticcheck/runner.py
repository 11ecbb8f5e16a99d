"""Checker orchestration: walk a tree, run every pass, aggregate findings.

The runner is what ``repro check`` and the test suite drive. It knows
four things the individual passes do not:

* how to turn paths into (source, AST) pairs and repo-relative names;
* which passes run per file vs once per run (the semantic contract sweep);
* how suppression layers stack (inline pragmas, then the baseline);
* how per-file analysis scales out — ``--jobs N`` maps files over a
  process pool (each file's findings are a pure function of its bytes,
  and results come back in submission order, so ``--jobs 8`` is
  byte-identical to serial), with an optional on-disk cache keyed on
  content hashes so unchanged files skip analysis entirely (CI restores
  the cache across runs).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.metrics import default_registry
from repro.obs.spans import span
from repro.staticcheck.artifact_lint import RULE_ARTIFACT, check_artifact_routing
from repro.staticcheck.astcheck import (
    AST_RULE_FAMILIES,
    run_ast_passes,
)
from repro.staticcheck.astcheck.axes import (
    RULE_AXIS_BROADCAST,
    RULE_AXIS_DROP,
    RULE_NAN_MASK,
)
from repro.staticcheck.astcheck.obscontract import RULE_OBS_NAME, RULE_OBS_WARM
from repro.staticcheck.astcheck.purity import RULE_PURITY
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.determinism_lint import RULE_DETERMINISM, check_determinism
from repro.staticcheck.findings import Finding, apply_pragmas, parse_pragmas
from repro.staticcheck.graph_contract import (
    RULE_MODELS, RULE_REGISTRY, RULE_ZOO, check_contracts,
)
from repro.staticcheck.unit_lint import (
    RULE_LITERAL, RULE_MIX, RULE_SUFFIX, check_unit_safety,
)

RULE_PARSE = "parse-error"

#: Every rule the subsystem can emit, with a one-line description.
ALL_RULES = {
    RULE_SUFFIX: "time/cost identifiers must carry a unit suffix",
    RULE_MIX: "+/-/comparison must not mix different unit suffixes",
    RULE_LITERAL: "conversion literals must go through repro.units",
    RULE_ARTIFACT: "expensive artifacts cache via the workspace, not lru_cache",
    RULE_DETERMINISM: "no wall clocks / unseeded randomness",
    RULE_REGISTRY: "op registry and feature schemas stay in lockstep",
    RULE_ZOO: "zoo graphs validate; features match schemas",
    RULE_MODELS: "fitted models match classification and schemas",
    RULE_AXIS_DROP: "reductions/indexing must respect # axes: annotations",
    RULE_AXIS_BROADCAST: "broadcasts must align named axes",
    RULE_NAN_MASK: "cost_usd consumers must mask NaN or use nan-aware ops",
    RULE_PURITY: "spec builders read no clocks/env/cpu_count",
    RULE_OBS_NAME: "span/counter names registered in repro.obs.catalog",
    RULE_OBS_WARM: "no span/traced instrumentation inside # obs: warm paths",
    RULE_PARSE: "files must parse",
}

#: rule id -> rule family, for report grouping and baseline v2 entries.
RULE_FAMILIES: Dict[str, str] = {
    RULE_SUFFIX: "units", RULE_MIX: "units", RULE_LITERAL: "units",
    RULE_ARTIFACT: "routing",
    RULE_DETERMINISM: "determinism",
    RULE_REGISTRY: "contracts", RULE_ZOO: "contracts", RULE_MODELS: "contracts",
    RULE_PARSE: "parse",
    **AST_RULE_FAMILIES,
}

#: The legacy per-file AST passes, in report order (astcheck families run
#: after these via :func:`run_ast_passes`).
AST_PASSES: Tuple[Callable[[ast.AST, str], List[Finding]], ...] = (
    check_unit_safety,
    check_artifact_routing,
    check_determinism,
)

#: Bump when any pass changes behaviour: invalidates analysis caches.
ANALYSIS_VERSION = 4

CACHE_VERSION = 1


def _stamp_family(finding: Finding) -> Finding:
    """Fill in ``family`` for passes that predate the field."""
    if finding.family:
        return finding
    return replace(finding, family=RULE_FAMILIES.get(finding.rule, ""))


@dataclass
class CheckReport:
    """Aggregated result of one checker run."""

    findings: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)
    files_checked: int = 0
    pragma_suppressed: int = 0
    cache_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings)


def _analyse_source(source: str, path: str) -> Tuple[List[Finding], int]:
    """All passes over one file: (post-pragma findings, n pragma-suppressed).

    No rule filtering here — the full finding set is what the analysis
    cache stores, so one cache entry serves every ``--rules`` selection.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            path=path, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            rule=RULE_PARSE, message=f"syntax error: {exc.msg}",
            family="parse", fix_hint="fix the syntax error",
        )], 0
    findings: List[Finding] = []
    for check in AST_PASSES:
        findings.extend(check(tree, path))
    findings.extend(run_ast_passes(tree, source, path))
    findings = [_stamp_family(f) for f in findings]
    kept = apply_pragmas(findings, parse_pragmas(source))
    return sorted(kept), len(findings) - len(kept)


def check_source(
    source: str,
    path: str,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run every per-file pass over one source string (the fixture entry).

    ``path`` is the repo-relative name used in findings and allowlists;
    ``rules`` optionally restricts which rules may be reported.
    """
    findings, _ = _analyse_source(source, path)
    if rules is not None:
        allowed = set(rules)
        findings = [f for f in findings if f.rule in allowed]
    return findings


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py") if p.is_file()))
        elif path.suffix == ".py":
            out.append(path)
    seen = set()
    unique: List[Path] = []
    for p in out:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    return unique


def relative_path(path: Path, root: Path) -> str:
    """Repo-relative posix path (falls back to the absolute path)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# -- per-file task --------------------------------------------------------

@dataclass(frozen=True)
class CheckFileTask:
    """Analyse one file, in this process or a pool worker.

    The task carries only strings; the worker re-reads the file, so the
    parent never ships source text to a worker.
    """

    path: str  #: absolute filesystem path
    rel: str  #: repo-relative posix path used in findings

    def run(self) -> Tuple[List[Finding], int, bool]:
        """(post-pragma findings, pragma-suppressed count, file readable)."""
        try:
            source = Path(self.path).read_text()
        except OSError as exc:
            finding = Finding(
                path=self.rel, line=1, col=0, rule=RULE_PARSE,
                message=f"cannot read file: {exc}", family="parse",
            )
            return [finding], 0, False
        with span("check.file", file=self.rel):
            findings, suppressed = _analyse_source(source, self.rel)
        return findings, suppressed, True


# -- analysis cache -------------------------------------------------------

def _content_key(rel: str, source_bytes: bytes) -> str:
    digest = hashlib.sha256(source_bytes).hexdigest()[:20]
    return f"{rel}::{digest}"


class AnalysisCache:
    """Content-addressed per-file analysis results.

    Entries are keyed on ``rel-path::sha256(source)[:20]`` and store the
    *unfiltered* post-pragma finding set, so a cache built by one run
    serves any later ``--rules`` selection. The key includes the path so
    a file moved verbatim re-analyses under its new name (findings embed
    the path). ``ANALYSIS_VERSION`` is part of the envelope: bumping it
    (any pass behaviour change) silently discards stale caches.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self._entries: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        if path is not None and path.exists():
            self._load(path)

    def _load(self, path: Path) -> None:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return  # corrupt/unreadable cache degrades to empty, never fails
        if not isinstance(data, dict):
            return
        if data.get("cache_version") != CACHE_VERSION \
                or data.get("analysis_version") != ANALYSIS_VERSION:
            return
        entries = data.get("entries")
        if isinstance(entries, dict):
            self._entries = {
                key: value for key, value in entries.items()
                if isinstance(value, dict)
            }

    def get(self, key: str) -> Optional[Tuple[List[Finding], int]]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        try:
            findings = [Finding.from_json(f) for f in entry["findings"]]
            suppressed = int(entry["pragma_suppressed"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return None
        return findings, suppressed

    def put(self, key: str, findings: Sequence[Finding], suppressed: int) -> None:
        self._entries[key] = {
            "findings": [f.to_json() for f in findings],
            "pragma_suppressed": suppressed,
        }
        self._dirty = True

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {
            "cache_version": CACHE_VERSION,
            "analysis_version": ANALYSIS_VERSION,
            "entries": self._entries,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self._dirty = False


# -- orchestration --------------------------------------------------------

def _analyse_files(
    files: Sequence[Path],
    root: Path,
    jobs: Optional[int],
    cache: Optional[AnalysisCache],
    report: CheckReport,
) -> List[Finding]:
    """Per-file findings in deterministic (sorted-path) order."""
    ordered: List[Tuple[str, Optional[Tuple[List[Finding], int]]]] = []
    pending: List[CheckFileTask] = []
    for path in files:
        rel = relative_path(path, root)
        cached: Optional[Tuple[List[Finding], int]] = None
        if cache is not None:
            try:
                key = _content_key(rel, path.read_bytes())
            except OSError:
                key = None  # unreadable now; let the task report it
            if key is not None:
                cached = cache.get(key)
        if cached is None:
            pending.append(CheckFileTask(path=str(path), rel=rel))
        else:
            report.cache_hits += 1
        ordered.append((rel, cached))

    computed: Dict[str, Tuple[List[Finding], int]] = {}
    if pending:
        if jobs is not None and jobs > 1 and len(pending) > 1:
            # Imported here: every ``repro`` command builds the check parser,
            # and the pool's multiprocessing imports would cost each ~15 ms.
            from concurrent.futures import ProcessPoolExecutor

            # The platform's default start method (fork on Linux): the
            # checker starts no threads, and spawned workers re-import every
            # pass, which cost most of the gain on a 2-core host.
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                payloads = list(pool.map(CheckFileTask.run, pending))
        else:
            payloads = [task.run() for task in pending]
        for task, (findings, suppressed, readable) in zip(pending, payloads):
            computed[task.rel] = (findings, suppressed)
            if cache is not None and readable:
                try:
                    key = _content_key(task.rel, Path(task.path).read_bytes())
                except OSError:
                    key = None
                if key is not None:
                    cache.put(key, findings, suppressed)

    raw: List[Finding] = []
    for rel, cached in ordered:
        findings, suppressed = cached if cached is not None else computed[rel]
        report.files_checked += 1
        report.pragma_suppressed += suppressed
        raw.extend(findings)
    return raw


def run_checks(
    paths: Sequence[Path],
    root: Path,
    baseline: Optional[Baseline] = None,
    rules: Optional[Sequence[str]] = None,
    contracts: bool = True,
    jobs: Optional[int] = None,
    cache: Optional[AnalysisCache] = None,
) -> CheckReport:
    """Run every enabled pass over ``paths`` and aggregate a report.

    ``jobs > 1`` maps per-file analysis over a process pool; results are
    merged in sorted-path order, so the report (and its JSON rendering) is byte-identical to a
    serial run. ``cache`` short-circuits files whose content hash already
    has an entry.
    """
    report = CheckReport()
    files = iter_python_files(paths)
    with span("check.run", files=len(files), jobs=jobs or 1):
        raw = _analyse_files(files, root, jobs, cache, report)
        if contracts:
            raw.extend(_stamp_family(f) for f in check_contracts())
        if rules is not None:
            allowed = set(rules)
            raw = [f for f in raw if f.rule in allowed]
        if baseline is not None:
            new, old = baseline.split(raw)
            report.findings = sorted(new)
            report.grandfathered = sorted(old)
            report.stale_baseline = baseline.stale_entries(raw)
        else:
            report.findings = sorted(raw)
    if cache is not None:
        cache.save()
    registry = default_registry()
    registry.counter("check.files", source="analyzed").inc(
        report.files_checked - report.cache_hits
    )
    registry.counter("check.files", source="cache").inc(report.cache_hits)
    registry.counter("check.findings").inc(len(report.findings))
    return report
