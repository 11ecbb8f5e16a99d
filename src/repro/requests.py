"""The request model: one frozen type per question Ceer answers.

:class:`PredictRequest` (time/cost of one configuration),
:class:`RecommendRequest` (the argmin of Obj(T, C) over candidate
instances, paper Section IV-D) and :class:`ParetoRequest` (the
time/cost frontier) own every rule and message of a request in one
:meth:`validate`, run on construction. The HTTP service
(:mod:`repro.serve.protocol`) and the CLI (:mod:`repro.cli`) are thin
adapters that build them, so both reject the same inputs with the same
:class:`~repro.errors.RequestError`.

Fields that can conflict with another field default to ``None`` ("not
given"), so conflicts are decided by presence in both front ends;
:meth:`spec` maps ``None`` to the default, so an implicit and an
explicit default share one fingerprint (the service's cache key).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Collection, Dict, Mapping, Optional, Tuple

from repro.artifacts.fingerprint import fingerprint
from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND, SPOT, PricingScheme
from repro.core.recommend import (
    HourlyBudget,
    MinimizeCost,
    MinimizeTime,
    Objective,
    SpotRiskObjective,
    TotalBudget,
)
from repro.errors import RequestError
from repro.workloads.dataset import DatasetSpec, TrainingJob

#: Schema version folded into every request fingerprint: bump when a
#: request's meaning changes so cached responses self-invalidate.
#: v2: ``/recommend`` grew ``scenario``/``risk_aversion``.
REQUEST_SCHEMA_VERSION = 2

#: Names of the pricing tiers.
PRICINGS: Mapping[str, PricingScheme] = {
    "on-demand": ON_DEMAND,
    "spot": SPOT,
    "market": MARKET_RATIO,
}
DEFAULT_PRICING = "on-demand"

#: Names of the recommendation objectives (paper, Figs. 9-12).
OBJECTIVES: Tuple[str, ...] = (
    "min-cost", "min-time", "hourly-budget", "total-budget",
)
DEFAULT_OBJECTIVE = "min-cost"
#: The objectives that take a ``budget`` (USD/hr or USD total).
BUDGET_OBJECTIVES: Tuple[str, ...] = ("hourly-budget", "total-budget")  # staticcheck: ignore[unit-suffix] (objective names, not an amount)

#: Names of the recommendation scenarios. ``static`` ranks fixed price
#: tiers; ``spot`` ranks against a streaming spot-price trace under the
#: preemption-aware ``spot-risk`` objective.
SCENARIOS: Tuple[str, ...] = ("static", "spot")

#: Fields the spot scenario fixes itself: it prices against the live
#: trace under the spot-risk objective, so a value for any of these is a
#: contradiction.
SPOT_CONFLICTS: Tuple[str, ...] = ("pricing", "objective", "budget", "slack")

#: The message of every field that only the spot scenario takes.
SPOT_ONLY = "requires scenario 'spot'"

#: Default training workload: one ImageNet epoch at batch 32 per GPU.
DEFAULT_SAMPLES = 1_200_000
DEFAULT_BATCH = 32


# -- the rules ---------------------------------------------------------
def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_name(field: str, value: Any) -> None:
    if not isinstance(value, str) or not value:
        raise RequestError(
            (field,), f"must be a non-empty string, got {value!r}"
        )


def _check_count(field: str, value: Any) -> None:
    if not _is_int(value) or value < 1:
        raise RequestError((field,), f"must be an integer >= 1, got {value!r}")


def _check_choice(field: str, value: Any, choices: Collection[str]) -> None:
    if not isinstance(value, str) or value not in choices:
        raise RequestError(
            (field,), f"must be one of {sorted(choices)}, got {value!r}"
        )


def _check_finite(field: str, value: Any) -> None:
    try:
        finite = (
            isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
        )
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise RequestError((field,), f"must be a finite number, got {value!r}")


def _check_non_negative(field: str, value: float) -> None:
    if value < 0:
        raise RequestError((field,), f"must be >= 0, got {value!r}")


def _check_workload(request: Any) -> None:
    """The rules every request shares: a model and a workload size."""
    _check_name("model", request.model)
    _check_count("samples", request.samples)
    _check_count("epochs", request.epochs)


class _Request:
    """What the three request types share. ``fingerprint`` is not here:
    each type defines its own, so per-layer tracing
    (``perfbench/layers.py``) finds it in the class's own ``__dict__``."""

    model: str
    samples: int
    epochs: int
    pricing: Optional[str]

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        raise NotImplementedError

    def job(self) -> TrainingJob:
        """The training workload the request describes."""
        return TrainingJob(
            DatasetSpec("request-dataset", num_samples=self.samples),
            batch_size=self._batch(), epochs=self.epochs,
        )

    def _batch(self) -> int:
        raise NotImplementedError

    def pricing_scheme(self) -> PricingScheme:
        return PRICINGS[self.pricing or DEFAULT_PRICING]


@dataclass(frozen=True)
class PredictRequest(_Request):
    """Time/cost of one model on one (GPU, count) configuration."""

    model: str
    gpu: str
    gpus: int = 1
    batch: int = DEFAULT_BATCH
    samples: int = DEFAULT_SAMPLES
    epochs: int = 1
    pricing: str = DEFAULT_PRICING

    ENDPOINT = "predict"

    def validate(self) -> None:
        _check_workload(self)
        _check_name("gpu", self.gpu)
        _check_count("gpus", self.gpus)
        _check_count("batch", self.batch)
        _check_choice("pricing", self.pricing, PRICINGS)

    def _batch(self) -> int:
        return self.batch

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


@dataclass(frozen=True)
class RecommendRequest(_Request):
    """The objective-optimal instance for a model (paper, Section IV-D)."""

    model: str
    objective: Optional[str] = None
    budget: Optional[float] = None  # staticcheck: ignore[unit-suffix] (USD/hr or USD, set by `objective`)
    slack: Optional[float] = None  # staticcheck: ignore[unit-suffix] (USD/hr on the hourly budget; wire name)
    batch: int = DEFAULT_BATCH
    samples: int = DEFAULT_SAMPLES
    epochs: int = 1
    pricing: Optional[str] = None
    scenario: str = "static"
    risk_aversion: Optional[float] = None  # staticcheck: ignore[unit-suffix] (USD per expected hour; wire name)

    ENDPOINT = "recommend"

    def validate(self) -> None:
        _check_workload(self)
        _check_count("batch", self.batch)
        if self.pricing is not None:
            _check_choice("pricing", self.pricing, PRICINGS)
        if self.objective is not None:
            _check_choice("objective", self.objective, OBJECTIVES)
        _check_choice("scenario", self.scenario, SCENARIOS)
        if self.budget is not None:
            _check_finite("budget", self.budget)
        if self.slack is not None:
            _check_finite("slack", self.slack)
        if self.risk_aversion is not None:
            _check_finite("risk_aversion", self.risk_aversion)
        if self.scenario == "spot":
            given = [f for f in SPOT_CONFLICTS if getattr(self, f) is not None]
            if given:
                raise RequestError(
                    given,
                    "conflict with scenario 'spot' — spot recommendations "
                    "price against the live trace under the 'spot-risk' "
                    "objective",
                )
            if self.risk_aversion is not None:
                _check_non_negative("risk_aversion", self.risk_aversion)
            return
        if self.risk_aversion is not None:
            raise RequestError(("risk_aversion",), SPOT_ONLY)
        objective = self.objective or DEFAULT_OBJECTIVE
        if objective in BUDGET_OBJECTIVES:
            if self.budget is None:
                raise RequestError(
                    ("budget",), f"is required with objective {objective!r}"
                )
            if self.budget <= 0:
                raise RequestError(("budget",), f"must be > 0, got {self.budget!r}")
        elif self.budget is not None:
            raise RequestError(
                ("budget",),
                f"applies only to objectives {list(BUDGET_OBJECTIVES)}, "
                f"not {objective!r}",
            )
        if self.slack is not None:
            if objective != "hourly-budget":
                raise RequestError(
                    ("slack",),
                    f"applies only to objective 'hourly-budget', "
                    f"not {objective!r}",
                )
            _check_non_negative("slack", self.slack)

    def _batch(self) -> int:
        return self.batch

    def spec(self) -> Dict[str, object]:
        return {
            "endpoint": self.ENDPOINT,
            "model": self.model,
            "objective": self.objective or DEFAULT_OBJECTIVE,
            "budget": self.budget,
            "slack": self.slack or 0.0,
            "batch": self.batch,
            "samples": self.samples,
            "epochs": self.epochs,
            "pricing": self.pricing or DEFAULT_PRICING,
            "scenario": self.scenario,
            "risk_aversion": self.risk_aversion or 0.0,
        }

    def fingerprint(self) -> str:
        return fingerprint("serve.request", REQUEST_SCHEMA_VERSION, self.spec())

    def objective_instance(self) -> Objective:
        """The objective to rank by: spot-risk in the spot scenario."""
        if self.scenario == "spot":
            return SpotRiskObjective(
                risk_aversion_usd_per_hr=self.risk_aversion or 0.0
            )
        objective = self.objective or DEFAULT_OBJECTIVE
        if objective == "min-cost":
            return MinimizeCost()
        if objective == "min-time":
            return MinimizeTime()
        assert self.budget is not None  # validate() requires it
        if objective == "hourly-budget":
            return HourlyBudget(
                budget_usd_per_hr=self.budget,
                slack_usd_per_hr=self.slack or 0.0,
            )
        return TotalBudget(budget_dollars=self.budget)


@dataclass(frozen=True)
class ParetoRequest(_Request):
    """The time/cost frontier over the catalog (and batch sizes)."""

    model: str
    batches: Tuple[int, ...] = (DEFAULT_BATCH,)
    samples: int = DEFAULT_SAMPLES
    epochs: int = 1
    pricing: str = DEFAULT_PRICING

    ENDPOINT = "pareto"

    def validate(self) -> None:
        _check_workload(self)
        batches = self.batches
        if not isinstance(batches, tuple) or not batches or not all(
            _is_int(b) and b >= 1 for b in batches
        ):
            shown = list(batches) if isinstance(batches, tuple) else batches
            raise RequestError(
                ("batches",),
                f"must be a non-empty list of integers >= 1, got {shown!r}",
            )
        if len(set(batches)) != len(batches):
            raise RequestError(
                ("batches",), f"must not contain duplicates, got {list(batches)!r}"
            )
        _check_choice("pricing", self.pricing, PRICINGS)

    def _batch(self) -> int:
        return self.batches[0]

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
