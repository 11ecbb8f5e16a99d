"""Request/response schemas of the recommendation service.

Every endpoint takes a flat JSON object and returns a flat JSON object;
this module owns both directions plus the *canonical request
fingerprint* — the coalescing/cache key. Fingerprints reuse the artifact
store's content-addressing (:func:`repro.artifacts.fingerprint.fingerprint`)
so two requests that mean the same thing hash the same regardless of
field order, and so the key space is versioned: bumping a request
schema re-addresses every cached response instead of replaying stale
layouts.

Request parsing is strict: unknown fields, wrong types, and out-of-range
values raise :class:`ProtocolError` (the server answers 400 with the
message) rather than being coerced or ignored — a serving API that
silently drops a typo'd ``"btach": 64`` returns confidently wrong
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.artifacts.fingerprint import fingerprint
from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND, SPOT, PricingScheme
from repro.core.estimator import TrainingPrediction
from repro.core.recommend import (
    HourlyBudget,
    MinimizeCost,
    MinimizeTime,
    Objective,
    Recommendation,
    TotalBudget,
)
from repro.errors import ServeError
from repro.units import us_to_ms
from repro.workloads.dataset import DatasetSpec, TrainingJob

__all__ = [
    "ParetoRequest",
    "PredictRequest",
    "ProtocolError",
    "RecommendRequest",
    "parse_pareto",
    "parse_predict",
    "parse_recommend",
    "prediction_to_json",
    "recommendation_to_json",
]

#: Schema version folded into every request fingerprint: bump when a
#: request's meaning changes so cached responses self-invalidate.
#: v2: ``/recommend`` grew ``scenario``/``risk_aversion``.
REQUEST_SCHEMA_VERSION = 2

#: Wire names for the pricing tiers.
PRICINGS: Mapping[str, PricingScheme] = {
    "on-demand": ON_DEMAND,
    "spot": SPOT,
    "market": MARKET_RATIO,
}

#: Wire names for the recommendation objectives.
OBJECTIVES: Tuple[str, ...] = (
    "min-cost", "min-time", "hourly-budget", "total-budget",
)

#: Wire names for the recommendation scenarios. ``static`` is the
#: classic fixed-price recommendation; ``spot`` re-ranks against the
#: server's streaming spot-price trace (see ``POST /spot/tick``).
SCENARIOS: Tuple[str, ...] = ("static", "spot")

#: Fields that conflict with ``scenario: "spot"``: the spot scenario
#: fixes the pricing to the live trace and the objective to spot-risk,
#: so an explicit value for any of these is a contradiction the server
#: must reject up front (400), not a late 422.
_SPOT_CONFLICTS: Tuple[str, ...] = ("pricing", "objective", "budget", "slack")

#: Default training workload: one ImageNet epoch (matches the CLI).
DEFAULT_SAMPLES = 1_200_000


class ProtocolError(ServeError):
    """A malformed request body; the server answers 400 with the message."""


def _require_object(body: Any, endpoint: str) -> Dict[str, Any]:
    if not isinstance(body, dict):
        raise ProtocolError(f"{endpoint}: request body must be a JSON object")
    return body


def _reject_unknown(body: Mapping[str, Any], allowed: Tuple[str, ...],
                    endpoint: str) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"{endpoint}: unknown field(s) {unknown}; allowed: "
            f"{sorted(allowed)}"
        )


def _str_field(body: Mapping[str, Any], name: str, endpoint: str,
               default: Optional[str] = None, required: bool = False) -> Optional[str]:
    if name not in body:
        if required:
            raise ProtocolError(f"{endpoint}: missing required field {name!r}")
        return default
    value = body[name]
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            f"{endpoint}: field {name!r} must be a non-empty string, "
            f"got {value!r}"
        )
    return value


def _int_field(body: Mapping[str, Any], name: str, endpoint: str,
               default: int, minimum: int = 1) -> int:
    value = body.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"{endpoint}: field {name!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ProtocolError(
            f"{endpoint}: field {name!r} must be >= {minimum}, got {value}"
        )
    return value


def _float_field(body: Mapping[str, Any], name: str, endpoint: str,
                 default: Optional[float] = None) -> Optional[float]:
    if name not in body:
        return default
    value = body[name]
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        # json.loads accepts NaN, Infinity and 1e999; none is a usable
        # budget, slack or risk weight.
        if math.isfinite(number):
            return number
    raise ProtocolError(
        f"{endpoint}: field {name!r} must be a finite number, got {value!r}"
    )


def _pricing_field(body: Mapping[str, Any], endpoint: str) -> str:
    name = _str_field(body, "pricing", endpoint, default="on-demand")
    assert name is not None
    if name not in PRICINGS:
        raise ProtocolError(
            f"{endpoint}: unknown pricing {name!r}; one of {sorted(PRICINGS)}"
        )
    return name


@dataclass(frozen=True)
class PredictRequest:
    """``POST /predict`` — time/cost of one model on one configuration."""

    model: str
    gpu: str
    gpus: int = 1
    batch: int = 32
    samples: int = DEFAULT_SAMPLES
    epochs: int = 1
    pricing: str = "on-demand"

    ENDPOINT = "predict"

    def spec(self) -> Dict[str, object]:
        """The canonical fingerprint spec: every field that changes the
        answer and nothing else (pure builder — no clocks, no env)."""
        return {
            "endpoint": self.ENDPOINT,
            "model": self.model,
            "gpu": self.gpu,
            "gpus": self.gpus,
            "batch": self.batch,
            "samples": self.samples,
            "epochs": self.epochs,
            "pricing": self.pricing,
        }

    def fingerprint(self) -> str:
        return fingerprint("serve.request", REQUEST_SCHEMA_VERSION, self.spec())

    def job(self) -> TrainingJob:
        dataset = DatasetSpec("serve-dataset", num_samples=self.samples)
        return TrainingJob(dataset, batch_size=self.batch, epochs=self.epochs)

    def pricing_scheme(self) -> PricingScheme:
        return PRICINGS[self.pricing]


@dataclass(frozen=True)
class RecommendRequest:
    """``POST /recommend`` — objective-optimal instance for a model."""

    model: str
    objective: str = "min-cost"
    budget: Optional[float] = None  # staticcheck: ignore[unit-suffix] (USD/hr or USD, set by `objective`)
    slack: float = 0.0
    batch: int = 32
    samples: int = DEFAULT_SAMPLES
    epochs: int = 1
    pricing: str = "on-demand"
    scenario: str = "static"
    risk_aversion: float = 0.0  # staticcheck: ignore[unit-suffix] (USD per expected hour; wire name)

    ENDPOINT = "recommend"

    def spec(self) -> Dict[str, object]:
        return {
            "endpoint": self.ENDPOINT,
            "model": self.model,
            "objective": self.objective,
            "budget": self.budget,
            "slack": self.slack,
            "batch": self.batch,
            "samples": self.samples,
            "epochs": self.epochs,
            "pricing": self.pricing,
            "scenario": self.scenario,
            "risk_aversion": self.risk_aversion,
        }

    def fingerprint(self) -> str:
        return fingerprint("serve.request", REQUEST_SCHEMA_VERSION, self.spec())

    def job(self) -> TrainingJob:
        dataset = DatasetSpec("serve-dataset", num_samples=self.samples)
        return TrainingJob(dataset, batch_size=self.batch, epochs=self.epochs)

    def pricing_scheme(self) -> PricingScheme:
        return PRICINGS[self.pricing]

    def objective_instance(self) -> Objective:
        if self.objective == "min-cost":
            return MinimizeCost()
        if self.objective == "min-time":
            return MinimizeTime()
        if self.objective == "hourly-budget":
            assert self.budget is not None  # enforced at parse time
            return HourlyBudget(
                budget_usd_per_hr=self.budget, slack_usd_per_hr=self.slack
            )
        assert self.budget is not None  # enforced at parse time
        return TotalBudget(budget_dollars=self.budget)


@dataclass(frozen=True)
class ParetoRequest:
    """``POST /pareto`` — the full-catalog time/cost frontier."""

    model: str
    batches: Tuple[int, ...] = (32,)
    samples: int = DEFAULT_SAMPLES
    epochs: int = 1
    pricing: str = "on-demand"

    ENDPOINT = "pareto"

    def spec(self) -> Dict[str, object]:
        return {
            "endpoint": self.ENDPOINT,
            "model": self.model,
            "batches": list(self.batches),
            "samples": self.samples,
            "epochs": self.epochs,
            "pricing": self.pricing,
        }

    def fingerprint(self) -> str:
        return fingerprint("serve.request", REQUEST_SCHEMA_VERSION, self.spec())

    def job(self) -> TrainingJob:
        dataset = DatasetSpec("serve-dataset", num_samples=self.samples)
        return TrainingJob(
            dataset, batch_size=self.batches[0], epochs=self.epochs
        )

    def pricing_scheme(self) -> PricingScheme:
        return PRICINGS[self.pricing]


def parse_predict(body: Any) -> PredictRequest:
    endpoint = "predict"
    obj = _require_object(body, endpoint)
    _reject_unknown(
        obj,
        ("model", "gpu", "gpus", "batch", "samples", "epochs", "pricing"),
        endpoint,
    )
    model = _str_field(obj, "model", endpoint, required=True)
    gpu = _str_field(obj, "gpu", endpoint, required=True)
    assert model is not None and gpu is not None
    return PredictRequest(
        model=model,
        gpu=gpu,
        gpus=_int_field(obj, "gpus", endpoint, default=1),
        batch=_int_field(obj, "batch", endpoint, default=32),
        samples=_int_field(obj, "samples", endpoint, default=DEFAULT_SAMPLES),
        epochs=_int_field(obj, "epochs", endpoint, default=1),
        pricing=_pricing_field(obj, endpoint),
    )


def parse_recommend(body: Any) -> RecommendRequest:
    endpoint = "recommend"
    obj = _require_object(body, endpoint)
    _reject_unknown(
        obj,
        ("model", "objective", "budget", "slack", "batch", "samples",
         "epochs", "pricing", "scenario", "risk_aversion"),
        endpoint,
    )
    model = _str_field(obj, "model", endpoint, required=True)
    assert model is not None
    scenario = _str_field(obj, "scenario", endpoint, default="static")
    assert scenario is not None
    if scenario not in SCENARIOS:
        raise ProtocolError(
            f"{endpoint}: unknown scenario {scenario!r}; one of "
            f"{sorted(SCENARIOS)}"
        )
    if scenario == "spot":
        conflicts = sorted(set(obj) & set(_SPOT_CONFLICTS))
        if conflicts:
            raise ProtocolError(
                f"{endpoint}: field(s) {conflicts} conflict with scenario "
                f"'spot' — spot recommendations price against the live "
                f"trace under the 'spot-risk' objective"
            )
    elif "risk_aversion" in obj:
        raise ProtocolError(
            f"{endpoint}: field 'risk_aversion' requires scenario 'spot'"
        )
    risk_aversion = _float_field(obj, "risk_aversion", endpoint, default=0.0)  # staticcheck: ignore[unit-suffix] (wire name)
    assert risk_aversion is not None
    if risk_aversion < 0:
        raise ProtocolError(
            f"{endpoint}: field 'risk_aversion' must be >= 0, "
            f"got {risk_aversion}"
        )
    objective = _str_field(obj, "objective", endpoint, default="min-cost")
    assert objective is not None
    if objective not in OBJECTIVES:
        raise ProtocolError(
            f"{endpoint}: unknown objective {objective!r}; one of "
            f"{sorted(OBJECTIVES)}"
        )
    budget = _float_field(obj, "budget", endpoint)  # staticcheck: ignore[unit-suffix] (unit depends on objective)
    slack = _float_field(obj, "slack", endpoint, default=0.0)
    assert slack is not None
    if objective in ("hourly-budget", "total-budget") and budget is None:
        raise ProtocolError(
            f"{endpoint}: objective {objective!r} requires a 'budget' field"
        )
    return RecommendRequest(
        model=model,
        objective=objective,
        budget=budget,
        slack=slack,
        batch=_int_field(obj, "batch", endpoint, default=32),
        samples=_int_field(obj, "samples", endpoint, default=DEFAULT_SAMPLES),
        epochs=_int_field(obj, "epochs", endpoint, default=1),
        pricing=_pricing_field(obj, endpoint),
        scenario=scenario,
        risk_aversion=risk_aversion,
    )


def parse_pareto(body: Any) -> ParetoRequest:
    endpoint = "pareto"
    obj = _require_object(body, endpoint)
    _reject_unknown(
        obj, ("model", "batches", "samples", "epochs", "pricing"), endpoint
    )
    model = _str_field(obj, "model", endpoint, required=True)
    assert model is not None
    raw_batches = obj.get("batches", [32])
    if not isinstance(raw_batches, list) or not raw_batches or any(
        isinstance(b, bool) or not isinstance(b, int) or b < 1
        for b in raw_batches
    ):
        raise ProtocolError(
            f"{endpoint}: field 'batches' must be a non-empty list of "
            f"integers >= 1, got {raw_batches!r}"
        )
    if len(set(raw_batches)) != len(raw_batches):
        raise ProtocolError(f"{endpoint}: field 'batches' contains duplicates")
    return ParetoRequest(
        model=model,
        batches=tuple(raw_batches),
        samples=_int_field(obj, "samples", endpoint, default=DEFAULT_SAMPLES),
        epochs=_int_field(obj, "epochs", endpoint, default=1),
        pricing=_pricing_field(obj, endpoint),
    )


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
