"""Instance recommendation: pick the optimal GPU deployment (paper, IV-D, V).

Given a CNN, a workload, and a user objective over (training time T, cost
C), Ceer estimates T and C for every candidate (GPU model, GPU count)
configuration and recommends the feasible one minimising the objective.
The objectives implemented match the paper's evaluation scenarios:

* :class:`MinimizeCost` — the budget-minimisation scenarios (Figs. 11, 12);
* :class:`MinimizeTime` — plain fastest-instance selection;
* :class:`HourlyBudget` — minimise per-iteration time subject to an hourly
  rental budget (Fig. 9, $3/hr);
* :class:`TotalBudget` — minimise training time subject to a total cost
  budget (Fig. 10, $10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.cloud.pricing import ON_DEMAND, PricingScheme
from repro.errors import RecommendationError
from repro.graph.graph import OpGraph
from repro.hardware.gpus import GPU_KEYS
from repro.obs.spans import span
from repro.workloads.dataset import TrainingJob
from repro.core.estimator import CeerEstimator, TrainingPrediction

#: Candidate GPU counts per GPU model the recommender sweeps by default.
DEFAULT_GPU_COUNTS: Tuple[int, ...] = (1, 2, 3, 4)


class Objective:
    """A user objective Obj(T, C) plus a feasibility rule."""

    name: str = "abstract"

    def feasible(self, prediction: TrainingPrediction) -> bool:
        return True

    def score(self, prediction: TrainingPrediction) -> float:
        """Lower is better among feasible predictions."""
        raise NotImplementedError


@dataclass(frozen=True)
class MinimizeCost(Objective):
    """Minimise total training cost (Figs. 11-12)."""

    name: str = "min-cost"

    def score(self, prediction: TrainingPrediction) -> float:
        return prediction.cost_dollars


@dataclass(frozen=True)
class MinimizeTime(Objective):
    """Minimise total training time, no budget."""

    name: str = "min-time"

    def score(self, prediction: TrainingPrediction) -> float:
        return prediction.total_us


@dataclass(frozen=True)
class HourlyBudget(Objective):
    """Minimise per-iteration time subject to an hourly rental budget.

    ``slack_usd_per_hr`` reproduces the paper's Fig. 9 accommodation: the $3/hr
    budget is allowed to be "slightly exceeded for P3, by 6 cents", and by
    42 cents for the 3-GPU G3 instance ("alternatively, we can consider the
    budget to be $3.42/hr").
    """

    budget_usd_per_hr: float = 3.0
    slack_usd_per_hr: float = 0.0
    name: str = "hourly-budget"

    def feasible(self, prediction: TrainingPrediction) -> bool:
        return prediction.usd_per_hr <= self.budget_usd_per_hr + self.slack_usd_per_hr

    def score(self, prediction: TrainingPrediction) -> float:
        return prediction.per_iteration_us


@dataclass(frozen=True)
class TotalBudget(Objective):
    """Minimise training time subject to a total-cost budget (Fig. 10)."""

    budget_dollars: float = 10.0
    name: str = "total-budget"

    def feasible(self, prediction: TrainingPrediction) -> bool:
        return prediction.cost_dollars <= self.budget_dollars

    def score(self, prediction: TrainingPrediction) -> float:
        return prediction.total_us


@dataclass(frozen=True)
class SpotRiskObjective(Objective):
    """Expected cost plus a risk-aversion penalty on expected makespan.

    The spot scenario's objective: candidates are scored on their
    preemption-aware expectations (``expected_cost_usd``,
    ``expected_makespan_hours``) rather than the deterministic T and C.
    ``risk_aversion_usd_per_hr`` (the CLI's λ) prices each expected
    wall-clock hour — λ = 0 is pure expected-cost minimisation, large λ
    prefers expensive-but-stable instances over cheap-but-preemptible
    ones.
    """

    risk_aversion_usd_per_hr: float = 0.0
    name: str = "spot-risk"

    def score(self, prediction: TrainingPrediction) -> float:
        return (
            prediction.expected_cost_usd
            + self.risk_aversion_usd_per_hr * prediction.expected_makespan_hours
        )


@dataclass(frozen=True)
class WeightedTimeCost(Objective):
    """A generic Obj(T, C) = w_t * T_hours + w_c * C_dollars tradeoff."""

    time_weight: float = 1.0
    cost_weight: float = 1.0
    name: str = "weighted"

    def score(self, prediction: TrainingPrediction) -> float:
        # The weights carry the bridging units (score/hr and score/USD), so
        # the summed terms are dimensionless scores by construction.
        time_term = self.time_weight * prediction.total_hours
        cost_term = self.cost_weight * prediction.cost_dollars
        return time_term + cost_term


@dataclass
class Recommendation:
    """The recommender's output: the winner plus the full ranked sweep."""

    objective: str
    best: TrainingPrediction
    ranked: List[TrainingPrediction] = field(default_factory=list)
    infeasible: List[TrainingPrediction] = field(default_factory=list)

    def summary(self) -> str:
        b = self.best
        lines = [
            f"Recommended instance for {b.model!r} under objective "
            f"{self.objective!r}: {b.instance_name} "
            f"({b.num_gpus}x {b.gpu_key}, ${b.usd_per_hr:.3f}/hr)",
            f"  predicted training time: {b.total_hours:.2f} h, "
            f"cost: ${b.cost_dollars:.2f}",
        ]
        for p in self.ranked[1:4]:
            lines.append(
                f"  runner-up: {p.instance_name:<22s} "
                f"time {p.total_hours:8.2f} h  cost ${p.cost_dollars:8.2f}"
            )
        if self.infeasible:
            lines.append(f"  ({len(self.infeasible)} configurations infeasible)")
        return "\n".join(lines)


class Recommender:
    """Sweeps candidate instances and applies an objective (Section IV-D)."""

    def __init__(
        self,
        estimator: CeerEstimator,
        pricing: PricingScheme = ON_DEMAND,
        gpu_keys: Sequence[str] = GPU_KEYS,
        gpu_counts: Sequence[int] = DEFAULT_GPU_COUNTS,
        check_memory: bool = False,
    ) -> None:
        """``check_memory=True`` additionally excludes GPU models whose
        device memory cannot hold the model's training working set (see
        :mod:`repro.hardware.memory`); the paper's scenarios keep it off."""
        self.estimator = estimator
        self.pricing = pricing
        self.gpu_keys = tuple(gpu_keys)
        self.gpu_counts = tuple(gpu_counts)
        self.check_memory = check_memory

    def _memory_feasible_gpus(self, graph: OpGraph) -> Tuple[str, ...]:
        if not self.check_memory:
            return self.gpu_keys
        from repro.hardware.memory import estimate_memory

        estimate = estimate_memory(graph)
        return tuple(g for g in self.gpu_keys if estimate.fits(g))

    def sweep(
        self, model: Union[str, OpGraph], job: TrainingJob
    ) -> List[TrainingPrediction]:
        """Predict T and C for every candidate (GPU model, k) configuration.

        The sweep runs through the batched engine
        (:func:`~repro.core.batch.evaluate_sweep`): the graph is resolved
        and compiled *once*, one stacked matmul per heavy op type prices
        every GPU model simultaneously, and candidates are materialised
        from the result tensors — no per-candidate prediction calls.

        With ``check_memory`` enabled, GPU models that cannot hold the
        model's working set are dropped from the sweep entirely (under
        data parallelism every replica needs the full working set, so GPU
        count does not help).
        """
        from repro.core.batch import SweepPlan, evaluate_sweep

        graph = self.estimator.resolve_graph(model, job.batch_size)
        gpu_keys = self._memory_feasible_gpus(graph)
        if not gpu_keys:
            raise RecommendationError(
                f"model {graph.name!r} does not fit in any "
                f"candidate GPU's memory at batch {job.batch_size}"
            )
        with span(
            "recommend.sweep", model=graph.name,
            candidates=len(gpu_keys) * len(self.gpu_counts),
        ):
            plan = SweepPlan(
                gpu_keys=gpu_keys,
                gpu_counts=self.gpu_counts,
                batch_sizes=(job.batch_size,),
                pricings=(self.pricing,),
            )
            return evaluate_sweep(self.estimator, graph, job, plan).predictions()

    def recommend(
        self,
        model: Union[str, OpGraph],
        job: TrainingJob,
        objective: Optional[Objective] = None,
    ) -> Recommendation:
        """Recommend the objective-optimal feasible instance for a job."""
        objective = objective or MinimizeCost()
        predictions = self.sweep(model, job)
        feasible = [p for p in predictions if objective.feasible(p)]
        infeasible = [p for p in predictions if not objective.feasible(p)]
        if not feasible:
            raise RecommendationError(
                f"no candidate instance satisfies objective {objective.name!r} "
                f"for model {getattr(model, 'name', model)!r}"
            )
        ranked = sorted(feasible, key=objective.score)
        if not math.isfinite(objective.score(ranked[0])):
            raise RecommendationError(
                f"objective {objective.name!r} produced a non-finite score"
            )
        return Recommendation(
            objective=objective.name,
            best=ranked[0],
            ranked=ranked,
            infeasible=infeasible,
        )
