"""AST/dataflow analysis engine behind ``repro check``.

Three rule families share one :class:`~repro.staticcheck.astcheck.analysis.
ModuleAnalysis` per file (tokenized comments, axis annotations, function
tables):

* :mod:`~repro.staticcheck.astcheck.axes` — named-axis contracts for the
  sweep tensors (``# axes: (P, G, K, B)``) and NaN-mask propagation;
* :mod:`~repro.staticcheck.astcheck.purity` — spec builders feeding
  artifact fingerprints must not read clocks, env, or the CPU count;
* :mod:`~repro.staticcheck.astcheck.obscontract` — span/counter names
  registered in :mod:`repro.obs.catalog`; no instrumentation inside
  ``# obs: warm`` functions.

:func:`run_ast_passes` is the runner's entry point: build the shared
analysis once, run every requested family over it.
"""

from __future__ import annotations

import ast
from typing import Callable, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.staticcheck.astcheck.analysis import (
    AxisSpec,
    FunctionInfo,
    ModuleAnalysis,
    parse_axis_comment,
)
from repro.staticcheck.astcheck.axes import (
    RULE_AXIS_BROADCAST,
    RULE_AXIS_DROP,
    RULE_NAN_MASK,
    check_axes,
)
from repro.staticcheck.astcheck.obscontract import (
    RULE_OBS_NAME,
    RULE_OBS_WARM,
    check_obs_contracts,
)
from repro.staticcheck.astcheck.purity import RULE_PURITY, check_fingerprint_purity
from repro.staticcheck.findings import Finding

__all__ = [
    "AxisSpec",
    "FunctionInfo",
    "ModuleAnalysis",
    "AST_RULE_FAMILIES",
    "check_axes",
    "check_fingerprint_purity",
    "check_obs_contracts",
    "parse_axis_comment",
    "run_ast_passes",
]

_Pass = Callable[[ModuleAnalysis], List[Finding]]

#: rule id -> (family, one-line description) for every astcheck rule.
AST_RULE_FAMILIES: Mapping[str, str] = {
    RULE_AXIS_DROP: "axes",
    RULE_AXIS_BROADCAST: "axes",
    RULE_NAN_MASK: "axes",
    RULE_PURITY: "fingerprint",
    RULE_OBS_NAME: "obs",
    RULE_OBS_WARM: "obs",
}

_PASSES: Tuple[_Pass, ...] = (
    check_axes,
    check_fingerprint_purity,
    check_obs_contracts,
)

#: Which rules each pass can emit — used to skip passes entirely when
#: the caller's rule selection excludes a whole family.
_PASS_RULES: Mapping[_Pass, FrozenSet[str]] = {
    check_axes: frozenset({RULE_AXIS_DROP, RULE_AXIS_BROADCAST, RULE_NAN_MASK}),
    check_fingerprint_purity: frozenset({RULE_PURITY}),
    check_obs_contracts: frozenset({RULE_OBS_NAME, RULE_OBS_WARM}),
}


def run_ast_passes(
    tree: ast.Module,
    source: str,
    path: str,
    rules: Optional[Set[str]] = None,
) -> List[Finding]:
    """Run every (selected) astcheck family over one parsed module."""
    selected: List[_Pass] = [
        check for check in _PASSES
        if rules is None or (_PASS_RULES[check] & rules)
    ]
    if not selected:
        return []
    analysis = ModuleAnalysis(tree, source, path)
    findings: List[Finding] = []
    for check in selected:
        findings.extend(
            f for f in check(analysis) if rules is None or f.rule in rules
        )
    return findings
