"""Fingerprint purity: spec-builder functions must be deterministic.

Artifact keys are SHA-256 digests over *configuration specs*
(:mod:`repro.artifacts.fingerprint`). The whole content-addressing story
— CI cache keys, cross-process compute-once — rests on one invariant: a
spec is a pure function of the configuration. A wall-clock read, an
environment variable or ``os.cpu_count()`` leaking into a spec re-keys
the artifact per run or per machine, which silently defeats every cache.

A function is a **spec builder** when it passes a locally-constructed
dict (a dict literal assigned in the function, or built via
``spec[...] = ...``) as the spec argument of ``fingerprint(...)``,
``key_for(...)``, or ``get_or_create(...)`` — or when it is a dedicated
spec helper: its name has a ``spec`` word-segment and it returns a
locally-built dict (``_canonical_profile_spec``-style factoring, the fix
this rule's hints recommend, stays covered after the refactor). Inside a
spec builder this pass flags:

* wall-clock reads (``time.time``/``perf_counter``/...,
  ``datetime.now``/``utcnow``/``today``);
* ``os.cpu_count()`` and ``multiprocessing.cpu_count()``;
* environment reads (``os.environ[...]`` / ``os.environ.get`` /
  ``os.getenv``) whose key is not in the resolution allowlist
  (``REPRO_WORKSPACE`` / ``REPRO_TRACE`` / ``REPRO_METRICS`` — the
  documented path-resolution variables, which never enter a spec).

Functions that merely *receive* a spec (the store itself) are not
builders and are exempt — their clocks are latency accounting, not key
material.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set

from repro.staticcheck.astcheck.analysis import (
    FunctionInfo,
    ModuleAnalysis,
    iter_statements,
)
from repro.staticcheck.findings import Finding

RULE_PURITY = "fingerprint-purity"

FAMILY = "fingerprint"

#: Calls whose 2nd (1-based) argument is the spec mapping.
_SPEC_SINKS = {"get_or_create": 1, "key_for": 1, "fingerprint": 2}

_CLOCK_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time",
})
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Environment variables that only resolve *paths* and are documented to
#: never participate in a fingerprint.
ENV_ALLOWLIST = frozenset({"REPRO_WORKSPACE", "REPRO_TRACE", "REPRO_METRICS"})


def _spec_argument(node: ast.Call) -> Optional[ast.expr]:
    """The spec argument of a fingerprint sink call, or None."""
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    index = _SPEC_SINKS.get(name)
    if index is None:
        return None
    for kw in node.keywords:
        if kw.arg == "spec":
            return kw.value
    if len(node.args) > index:
        return node.args[index]
    return None


def _local_dict_names(body: Sequence[ast.stmt]) -> Set[str]:
    """Names assigned a dict literal (or dict() call) in this scope."""
    names: Set[str] = set()
    for stmt in iter_statements(body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        value: Optional[ast.expr] = None
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        if value is None:
            continue
        is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
        )
        if is_dict:
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_spec_builder(info: FunctionInfo, local_dicts: Set[str]) -> bool:
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            spec = _spec_argument(node)
            if isinstance(spec, (ast.Dict, ast.DictComp)):
                return True
            if isinstance(spec, ast.Name) and spec.id in local_dicts:
                return True
    if "spec" in info.name.lower().split("_"):
        for stmt in iter_statements(info.node.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if isinstance(stmt.value, (ast.Dict, ast.DictComp)):
                    return True
                if isinstance(stmt.value, ast.Name) \
                        and stmt.value.id in local_dicts:
                    return True
    return False


class _PurityScan:
    def __init__(self, analysis: ModuleAnalysis, info: FunctionInfo,
                 findings: List[Finding]) -> None:
        self.analysis = analysis
        self.info = info
        self.findings = findings

    def _flag(self, node: ast.AST, what: str, message: str, fix_hint: str) -> None:
        self.findings.append(Finding(
            path=self.analysis.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=RULE_PURITY,
            message=message,
            symbol=what,
            family=FAMILY,
            fix_hint=fix_hint,
        ))

    def scan_ambient_reads(self) -> None:
        """Clocks / env / cpu_count anywhere in the builder function."""
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name):
                    if base.id == "time" and node.attr in _CLOCK_ATTRS:
                        self._flag(
                            node, f"time.{node.attr}",
                            f"spec builder {self.info.qualname} reads "
                            f"time.{node.attr} — wall clocks must never "
                            f"feed a fingerprint",
                            fix_hint="pass timestamps in explicitly, or move "
                                     "the clock out of the spec builder",
                        )
                    elif base.id in ("datetime", "date") \
                            and node.attr in _DATETIME_ATTRS:
                        self._flag(
                            node, f"{base.id}.{node.attr}",
                            f"spec builder {self.info.qualname} reads "
                            f"{base.id}.{node.attr} — wall clocks must "
                            f"never feed a fingerprint",
                            fix_hint="pass dates in explicitly",
                        )
                    elif base.id in ("os", "multiprocessing") \
                            and node.attr == "cpu_count":
                        self._flag(
                            node, f"{base.id}.cpu_count",
                            f"spec builder {self.info.qualname} reads "
                            f"{base.id}.cpu_count() — machine shape must "
                            f"never feed a fingerprint",
                            fix_hint="pass machine-dependent values in "
                                     "explicitly, or move them out of the "
                                     "spec builder",
                        )
            if isinstance(node, ast.Call):
                self._check_env_call(node)
            if isinstance(node, ast.Subscript):
                # os.environ["X"]
                if isinstance(node.value, ast.Attribute) \
                        and node.value.attr == "environ" \
                        and isinstance(node.value.value, ast.Name) \
                        and node.value.value.id == "os":
                    self._check_env_key(node, node.slice)

    def _check_env_call(self, node: ast.Call) -> None:
        func = node.func
        # os.getenv("X") / os.environ.get("X")
        is_getenv = (
            isinstance(func, ast.Attribute) and func.attr == "getenv"
            and isinstance(func.value, ast.Name) and func.value.id == "os"
        )
        is_environ_get = (
            isinstance(func, ast.Attribute) and func.attr == "get"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "environ"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "os"
        )
        if is_getenv or is_environ_get:
            key_node = node.args[0] if node.args else None
            self._check_env_key(node, key_node)

    def _check_env_key(self, node: ast.AST, key_node: Optional[ast.expr]) -> None:
        key = None
        if isinstance(key_node, ast.Constant) and isinstance(key_node.value, str):
            key = key_node.value
        if key is not None and key in ENV_ALLOWLIST:
            return
        shown = f"${key}" if key is not None else "a dynamic key"
        self._flag(
            node, "os.environ",
            f"spec builder {self.info.qualname} reads {shown} from the "
            f"environment — specs must not depend on ambient env state",
            fix_hint="resolve the value at the call boundary and pass it "
                     "in as an argument",
        )


def check_fingerprint_purity(analysis: ModuleAnalysis) -> List[Finding]:
    """Flag impure spec builders in one module."""
    findings: List[Finding] = []
    for info in analysis.functions:
        local_dicts = _local_dict_names(info.node.body)
        if not _is_spec_builder(info, local_dicts):
            continue
        scan = _PurityScan(analysis, info, findings)
        scan.scan_ambient_reads()
    return findings
