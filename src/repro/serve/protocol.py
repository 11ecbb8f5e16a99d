"""Wire adapters of the recommendation service.

Every endpoint takes a flat JSON object and returns a flat JSON object.
The request types and every rule they follow live in
:mod:`repro.requests` (re-exported here); this module only turns a JSON
body into one of them, and results back into JSON.

The ``parse_*`` adapters check wire shape and nothing else: the body is
an object, every field is known, no value is ``null``, a JSON number
meant as a float becomes one, and a JSON array meant as a tuple becomes
one. Everything else — types, ranges, choices, conflicts — is the
request type's :meth:`validate`, which raises
:class:`~repro.errors.RequestError` (the server answers 400 with the
message). Nothing is coerced or ignored: a serving API that silently
drops a typo'd ``"btach": 64`` returns confidently wrong numbers.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any, Dict, FrozenSet, List, Tuple, Type, TypeVar

from repro.core.estimator import TrainingPrediction
from repro.core.recommend import Recommendation
from repro.errors import RequestError
from repro.requests import (
    DEFAULT_SAMPLES,
    ParetoRequest,
    PredictRequest,
    RecommendRequest,
)
from repro.units import us_to_ms

__all__ = [
    "DEFAULT_SAMPLES",
    "ParetoRequest",
    "PredictRequest",
    "RecommendRequest",
    "parse_pareto",
    "parse_predict",
    "parse_recommend",
    "prediction_to_json",
    "recommendation_to_json",
]

_R = TypeVar("_R", PredictRequest, RecommendRequest, ParetoRequest)

#: JSON numbers that mean a float: an integer becomes one, so ``3`` and
#: ``3.0`` are one request (and the CLI's ``--budget 3`` is a float too).
_FLOAT_FIELDS: Tuple[str, ...] = ("budget", "slack", "risk_aversion")


def _schema(cls: Type[Any]) -> Tuple[FrozenSet[str], Tuple[str, ...]]:
    """(allowed, required) field names of a request type."""
    names = fields(cls)
    return (
        frozenset(f.name for f in names),
        tuple(f.name for f in names if f.default is MISSING),
    )


_SCHEMAS = {cls: _schema(cls) for cls in (PredictRequest, RecommendRequest, ParetoRequest)}


def _parse(cls: Type[_R], body: Any) -> _R:
    if not isinstance(body, dict):
        raise RequestError((), "request body must be a JSON object")
    allowed, required = _SCHEMAS[cls]
    unknown = body.keys() - allowed
    if unknown:
        raise RequestError(
            sorted(unknown, key=str),
            f"not accepted by /{cls.ENDPOINT}; allowed: {sorted(allowed)}",
        )
    missing = [name for name in required if name not in body]
    if missing:
        raise RequestError(missing, "is required")
    if None in body.values():
        raise RequestError(
            sorted(name for name, value in body.items() if value is None),
            "must not be null",
        )
    kwargs = dict(body)
    for name in _FLOAT_FIELDS:
        value = kwargs.get(name)
        if type(value) is int:
            try:
                kwargs[name] = float(value)
            except OverflowError:
                pass  # validate() rejects it as not finite
    if isinstance(kwargs.get("batches"), list):
        kwargs["batches"] = tuple(kwargs["batches"])
    return cls(**kwargs)


def parse_predict(body: Any) -> PredictRequest:
    """``POST /predict`` body → :class:`PredictRequest`."""
    return _parse(PredictRequest, body)


def parse_recommend(body: Any) -> RecommendRequest:
    """``POST /recommend`` body → :class:`RecommendRequest`."""
    return _parse(RecommendRequest, body)


def parse_pareto(body: Any) -> ParetoRequest:
    """``POST /pareto`` body → :class:`ParetoRequest`."""
    return _parse(ParetoRequest, body)


# -- responses ----------------------------------------------------------
def prediction_to_json(p: TrainingPrediction) -> Dict[str, object]:
    """One candidate prediction as a flat JSON object."""
    doc: Dict[str, object] = {
        "model": p.model,
        "gpu": p.gpu_key,
        "gpus": p.num_gpus,
        "instance": p.instance_name,
        "usd_per_hr": p.usd_per_hr,
        "batch": p.batch_size,
        "per_iteration_ms": us_to_ms(p.per_iteration_us),
        "compute_ms": us_to_ms(p.compute_us_per_iteration),
        "comm_ms": us_to_ms(p.comm_overhead_us),
        "iterations": p.iterations,
        "total_hours": p.total_hours,
        "cost_usd": p.cost_dollars,
    }
    if p.compute_std_us > 0:
        doc["total_hours_std"] = p.total_std_hours
        doc["cost_usd_std"] = p.cost_std_dollars
    if p.hazard_per_hr > 0 or p.preempt_overhead_iterations > 0:
        # Preemption-aware expectations: only spot-scenario predictions
        # carry them, so static responses stay byte-identical to v1.
        doc["hazard_per_hr"] = p.hazard_per_hr
        doc["expected_makespan_hours"] = p.expected_makespan_hours
        doc["expected_cost_usd"] = p.expected_cost_usd
    return doc


def recommendation_to_json(r: Recommendation) -> Dict[str, object]:
    """A recommendation: the winner plus up to three runners-up."""
    runners_up: List[Dict[str, object]] = [
        prediction_to_json(p) for p in r.ranked[1:4]
    ]
    return {
        "objective": r.objective,
        "best": prediction_to_json(r.best),
        "runners_up": runners_up,
        "n_feasible": len(r.ranked),
        "n_infeasible": len(r.infeasible),
    }
