"""Semantic contract checks: op registry vs features vs models vs zoo graphs.

The AST lints read source; this module cross-checks the *live* contracts
that hold Ceer's pipeline together, without executing a single prediction:

* **registry contract** — every registered GPU op type has a feature
  schema; every op type granted the MAC-volume feature set exists in the
  registry and runs on the GPU (no orphaned specs); host/device metadata is
  internally consistent; every schema leads with ``input_bytes`` (the
  proportional-fallback fit regresses on feature 0 and silently breaks if a
  schema reorders it).
* **zoo contract** — every zoo model builds into a validated DAG (no
  dangling producers, no cycles), every op's extracted feature vector
  matches its schema in arity and is finite and non-negative, and the
  graph's ``num_variables`` equals its optimizer-op count (each trainable
  variable gets exactly one update kernel — the communication model's
  synchronisation-unit assumption).
* **fitted-models contract** (:func:`check_fitted_models`, used by the test
  suite) — the heavy/light/CPU partition is disjoint, every fitted heavy
  regression's coefficient vector matches its op type's schema arity, and
  the pooled medians are positive microseconds.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from repro.staticcheck.findings import Finding

RULE_REGISTRY = "registry-contract"
RULE_ZOO = "zoo-contract"
RULE_MODELS = "models-contract"

#: Pseudo-paths attached to semantic findings (these rules check live
#: objects, not single source lines).
_REGISTRY_PATH = "src/repro/graph/ops.py"
_ZOO_PATH = "src/repro/models/zoo.py"
_MODELS_PATH = "src/repro/core/op_models.py"


def _finding(path: str, rule: str, message: str, symbol: str = "") -> Finding:
    return Finding(path=path, line=1, col=0, rule=rule, message=message,
                   symbol=symbol)


def check_registry() -> List[Finding]:
    """Cross-check the op registry against the feature-schema specs."""
    from repro.graph.ops import OP_REGISTRY, Device, OpCategory
    from repro.profiling.features import (
        _COMPUTE_FEATURE_OPS, COMPUTE_SCHEMA, SIZE_SCHEMA, feature_schema,
    )

    findings: List[Finding] = []
    for op_type, op in sorted(OP_REGISTRY.items()):
        try:
            schema = feature_schema(op_type)
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            findings.append(_finding(
                _REGISTRY_PATH, RULE_REGISTRY,
                f"registered op type {op_type!r} has no feature schema "
                f"({type(exc).__name__}: {exc})",
                symbol=op_type,
            ))
            continue
        if not schema or schema[0] != "input_bytes":
            findings.append(_finding(
                _REGISTRY_PATH, RULE_REGISTRY,
                f"feature schema for {op_type!r} must lead with 'input_bytes' "
                f"(the proportional-fit fallback regresses on feature 0), "
                f"got {schema!r}",
                symbol=op_type,
            ))
        host_device = op.device is Device.CPU
        host_category = op.category is OpCategory.HOST
        if host_device != host_category:
            findings.append(_finding(
                _REGISTRY_PATH, RULE_REGISTRY,
                f"op type {op_type!r} has inconsistent placement metadata: "
                f"device={op.device.value}, category={op.category.value} "
                f"(HOST category and CPU device must coincide)",
                symbol=op_type,
            ))
    for op_type in sorted(_COMPUTE_FEATURE_OPS):
        if op_type not in OP_REGISTRY:
            findings.append(_finding(
                _REGISTRY_PATH, RULE_REGISTRY,
                f"orphaned feature spec: {op_type!r} has a MAC-volume schema "
                f"but is not a registered op type",
                symbol=op_type,
            ))
        elif OP_REGISTRY[op_type].device is not Device.GPU:
            findings.append(_finding(
                _REGISTRY_PATH, RULE_REGISTRY,
                f"{op_type!r} carries the dense-compute feature schema but "
                f"does not execute on the GPU",
                symbol=op_type,
            ))
    if tuple(COMPUTE_SCHEMA[: len(SIZE_SCHEMA)]) != tuple(SIZE_SCHEMA):
        findings.append(_finding(
            _REGISTRY_PATH, RULE_REGISTRY,
            f"COMPUTE_SCHEMA must extend SIZE_SCHEMA as a prefix so size-only "
            f"consumers stay valid; got {COMPUTE_SCHEMA!r} vs {SIZE_SCHEMA!r}",
            symbol="COMPUTE_SCHEMA",
        ))
    return findings


def check_zoo(models: Optional[Sequence[str]] = None, batch_size: int = 32) -> List[Finding]:
    """Build and validate every zoo graph; cross-check features and specs."""
    from repro.graph.ops import Device, OpCategory
    from repro.models.zoo import build_model, model_names
    from repro.profiling.features import feature_schema, features_for

    findings: List[Finding] = []
    for name in models if models is not None else model_names():
        try:
            graph = build_model(name, batch_size=batch_size)
            graph.validate()
        except Exception as exc:  # noqa: BLE001 - any failure is the finding
            findings.append(_finding(
                _ZOO_PATH, RULE_ZOO,
                f"zoo model {name!r} failed to build/validate: "
                f"{type(exc).__name__}: {exc}",
                symbol=name,
            ))
            continue
        optimizer_ops = 0
        seen_names = set()
        for op in graph:
            if op.name in seen_names:
                # The profiler keys timing records by op name; a collision
                # would silently attribute every colliding record to one op.
                findings.append(_finding(
                    _ZOO_PATH, RULE_ZOO,
                    f"{name}: duplicate operation name {op.name!r} — "
                    f"profile records could not be attributed unambiguously",
                    symbol=f"{name}.{op.name}",
                ))
            seen_names.add(op.name)
            if op.category is OpCategory.OPTIMIZER:
                optimizer_ops += 1
            for producer in op.input_ops:
                if producer not in graph:
                    findings.append(_finding(
                        _ZOO_PATH, RULE_ZOO,
                        f"{name}: op {op.name!r} has dangling input "
                        f"{producer!r}",
                        symbol=f"{name}.{op.name}",
                    ))
            if op.device is Device.CPU:
                continue
            schema = feature_schema(op.op_type)
            feats = features_for(op)
            if len(feats) != len(schema):
                findings.append(_finding(
                    _ZOO_PATH, RULE_ZOO,
                    f"{name}: op {op.name!r} ({op.op_type}) extracts "
                    f"{len(feats)} features but its schema names "
                    f"{len(schema)} ({schema!r})",
                    symbol=f"{name}.{op.op_type}",
                ))
            bad = [v for v in feats if not math.isfinite(v) or v < 0]
            if bad:
                findings.append(_finding(
                    _ZOO_PATH, RULE_ZOO,
                    f"{name}: op {op.name!r} ({op.op_type}) has "
                    f"non-finite/negative feature values {bad!r}",
                    symbol=f"{name}.{op.op_type}",
                ))
        if graph.num_variables != optimizer_ops:
            findings.append(_finding(
                _ZOO_PATH, RULE_ZOO,
                f"{name}: num_variables={graph.num_variables} but the graph "
                f"contains {optimizer_ops} optimizer ops — every trainable "
                f"variable must have exactly one update kernel (the comm "
                f"model's synchronisation-unit contract)",
                symbol=name,
            ))
        if graph.num_parameters <= 0:
            findings.append(_finding(
                _ZOO_PATH, RULE_ZOO,
                f"{name}: non-positive num_parameters "
                f"({graph.num_parameters}); the communication model's only "
                f"input would be degenerate",
                symbol=name,
            ))
    return findings


def check_fitted_models(models: "object") -> List[Finding]:
    """Contract-check a fitted :class:`ComputeTimeModels` instance."""
    from repro.profiling.features import feature_schema

    findings: List[Finding] = []
    classification = models.classification  # type: ignore[attr-defined]
    heavy = set(classification.heavy)
    light = set(classification.light)
    cpu = set(classification.cpu)
    for a, b, label in (
        (heavy, light, "heavy/light"),
        (heavy, cpu, "heavy/cpu"),
        (light, cpu, "light/cpu"),
    ):
        overlap = a & b
        if overlap:
            findings.append(_finding(
                _MODELS_PATH, RULE_MODELS,
                f"classification is not a partition: {label} overlap "
                f"{sorted(overlap)!r}",
                symbol=label,
            ))
    for (gpu_key, op_type), model in sorted(
        models.heavy_models.items()  # type: ignore[attr-defined]
    ):
        if op_type not in heavy:
            findings.append(_finding(
                _MODELS_PATH, RULE_MODELS,
                f"orphaned regression: ({gpu_key}, {op_type}) is fitted but "
                f"{op_type!r} is not classified heavy",
                symbol=f"{gpu_key}.{op_type}",
            ))
        schema = feature_schema(op_type)
        expected = len(schema) * (2 if model.regression.degree == 2 else 1)
        if len(model.regression.coef) != expected:
            findings.append(_finding(
                _MODELS_PATH, RULE_MODELS,
                f"regression for ({gpu_key}, {op_type}) has "
                f"{len(model.regression.coef)} coefficients but schema "
                f"{schema!r} at degree {model.regression.degree} requires "
                f"{expected}",
                symbol=f"{gpu_key}.{op_type}",
            ))
    for attr in ("light_median_us", "cpu_median_us"):
        value = getattr(models, attr)
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            findings.append(_finding(
                _MODELS_PATH, RULE_MODELS,
                f"{attr} must be a positive finite microsecond quantity, "
                f"got {value!r}",
                symbol=attr,
            ))
    return findings


def check_contracts(zoo_models: Optional[Iterable[str]] = None) -> List[Finding]:
    """The registry + zoo contract sweep ``repro check`` runs by default."""
    findings = check_registry()
    names = list(zoo_models) if zoo_models is not None else None
    findings.extend(check_zoo(names))
    return findings
