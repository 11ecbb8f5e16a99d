"""repro.staticcheck: custom static analysis for the Ceer reproduction.

Token-level lints (unit suffix discipline, mixed-unit arithmetic, bare
conversion literals, artifact routing, determinism), a semantic
graph-contract checker, and the :mod:`repro.staticcheck.astcheck`
AST/dataflow engine (tensor-axis contracts, fingerprint purity,
observability contracts) — all driven by ``repro
check`` and enforced in CI. See DESIGN.md's "Static
analysis" and "AST analysis" sections for the rule catalogue, the
annotation conventions, and the baseline workflow.
"""

from repro.staticcheck.baseline import Baseline, load_baseline, write_baseline
from repro.staticcheck.findings import Finding, parse_pragmas
from repro.staticcheck.graph_contract import (
    check_contracts,
    check_fitted_models,
    check_registry,
    check_zoo,
)
from repro.staticcheck.runner import (
    ALL_RULES,
    RULE_FAMILIES,
    AnalysisCache,
    CheckFileTask,
    CheckReport,
    check_source,
    run_checks,
)

__all__ = [
    "ALL_RULES",
    "AnalysisCache",
    "Baseline",
    "CheckFileTask",
    "CheckReport",
    "Finding",
    "RULE_FAMILIES",
    "check_contracts",
    "check_fitted_models",
    "check_registry",
    "check_source",
    "check_zoo",
    "load_baseline",
    "parse_pragmas",
    "run_checks",
    "write_baseline",
]
