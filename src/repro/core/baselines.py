"""Baseline predictors and naive strategies Ceer is evaluated against.

The paper positions Ceer against (Sections I, V, VII):

* **PALEO-style** prediction [43]: per-iteration time as a linear model of
  the iteration's total floating-point operation count, per GPU — no
  input-size features, no communication model.
* **Layer-level regression** (Giannini et al. [4], Cai et al. [17]):
  regression over the big layer kernels only (convolutions, matmuls,
  pooling), "ignoring small operations and CPU operations" and all
  communication — the paper attributes their up-to-22% errors to this.
* **Heavy-ops-only Ceer** (Section IV-B ablation): full Ceer minus the
  light/CPU medians; costs 15-25% accuracy.
* **No-communication Ceer** (Section IV-A ablation, Eq. (1) vs Eq. (2)):
  costs 5-20% on 1 GPU (AlexNet ~30%), more on multi-GPU.
* **Naive strategies** (Sections I, V): always rent the cheapest instance,
  or always rent the latest-generation (P3) instance — AWS's default
  listing. Ceer saves up to 36%/44% cost against these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.cloud.catalog import InstanceType
from repro.cloud.pricing import ON_DEMAND, PricingScheme
from repro.errors import CatalogError, ModelingError
from repro.graph.flops import graph_flops
from repro.graph.graph import OpGraph
from repro.hardware.gpus import gpu_spec
from repro.models.zoo import build_model
from repro.workloads.dataset import TrainingJob
from repro.core.estimator import CeerEstimator, TrainingPrediction
from repro.core.regression import RegressionModel, fit_regression

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.classify import OpClassification
    from repro.profiling.records import ProfileDataset

#: Layer-kernel op types the layer-level baseline models (everything else,
#: including all light/CPU ops and communication, is ignored).
LAYER_LEVEL_OP_TYPES = frozenset(
    {
        "Conv2D", "Conv2DBackpropInput", "Conv2DBackpropFilter", "MatMul",
        "MaxPool", "MaxPoolGrad", "AvgPool", "AvgPoolGrad",
    }
)


def heavy_only_variant(estimator: CeerEstimator) -> CeerEstimator:
    """Ceer without light/CPU medians (Section IV-B ablation)."""
    return CeerEstimator(
        estimator.compute_models, estimator.comm_model,
        include_communication=estimator.include_communication, heavy_only=True,
    )


def no_comm_variant(estimator: CeerEstimator) -> CeerEstimator:
    """Ceer without the communication term — Eq. (1) (Section IV-A ablation)."""
    return CeerEstimator(
        estimator.compute_models, estimator.comm_model,
        include_communication=False, heavy_only=estimator.heavy_only,
    )


def profiled_iteration_us(train_profiles: "ProfileDataset") -> Dict[Tuple[str, str], float]:
    """Per-iteration compute time of each (GPU, model) cell: GPU-op means, then CPU-op
    means, each summed in record (= op) order by builtin ``sum``, as ``compute_us`` sums."""
    return {
        cell: sum(rows.gpu_records().mean_us.tolist())
        + sum(rows.cpu_records().mean_us.tolist())
        for cell, rows in train_profiles.group_by_cell().items()
    }


@dataclass
class PaleoStyleEstimator:
    """Per-GPU linear model: per-iteration time ~ total iteration FLOPs.

    Fit on the whole-model compute times and FLOPs in the training
    profile, so it simulates and builds nothing; predicts from a new CNN's
    static FLOP count. Ignores input sizes, op mix, light/CPU ops, and
    communication — the limitations Section VII calls out.
    """

    models: Dict[str, RegressionModel]
    _gflops: Dict[Tuple[str, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def fit(cls, train_profiles: "ProfileDataset") -> "PaleoStyleEstimator":
        """Fit on each profiled model's FLOPs, read from the profile."""
        targets = profiled_iteration_us(train_profiles)
        if not targets:
            raise ModelingError("PALEO baseline needs a non-empty training profile")
        flops = train_profiles.model_flops()
        missing = sorted({m for _, m in targets} - flops.keys())
        if missing:
            raise ModelingError(
                f"PALEO baseline needs profiled FLOPs; the profile has none for {missing}"
            )
        estimator = cls(models={})
        for gpu_key in dict.fromkeys(gpu for gpu, _ in targets):
            models = [m for g, m in targets if g == gpu_key]
            estimator.models[gpu_key] = fit_regression(
                [[flops[m] / 1e9] for m in models],
                [targets[(gpu_key, m)] for m in models], ("gflops",), allow_quadratic=False,
            )
        return estimator

    def gflops(self, model: Union[str, OpGraph], batch_size: int = 32) -> float:
        """Iteration GFLOPs of a graph to predict, or of a zoo model walked
        once per batch."""
        if not isinstance(model, str):
            return graph_flops(model.operations) / 1e9
        if (model, batch_size) not in self._gflops:
            graph = build_model(model, batch_size=batch_size)
            self._gflops[(model, batch_size)] = graph_flops(graph.operations) / 1e9
        return self._gflops[(model, batch_size)]

    def predict_iteration_us(self, model: Union[str, OpGraph], gpu_key: str,
                             num_gpus: int = 1, batch_size: int = 32) -> float:
        key = gpu_spec(gpu_key).key
        if key not in self.models:
            raise ModelingError(f"PALEO baseline was not fit for GPU {key!r}")
        return self.models[key].predict_one([self.gflops(model, batch_size)])


@dataclass
class LayerLevelEstimator:
    """Giannini-style layer-level regression baseline.

    Per-(GPU, layer-kernel op type) regressions on input-size features —
    but *only* for the layer kernels in :data:`LAYER_LEVEL_OP_TYPES`;
    small GPU ops, CPU ops, and communication are all ignored.
    """

    models: Dict[Tuple[str, str], RegressionModel]

    @classmethod
    def fit(
        cls,
        train_profiles: "ProfileDataset",
        classification: Optional["OpClassification"] = None,
    ) -> "LayerLevelEstimator":
        from repro.profiling.features import feature_schema

        fitted: Dict[Tuple[str, str], RegressionModel] = {}
        gpu_records = train_profiles.gpu_records()
        for gpu_key in gpu_records.gpu_keys():
            by_type = gpu_records.for_gpu(gpu_key).group_by_op_type()
            for op_type in LAYER_LEVEL_OP_TYPES:
                subset = by_type.get(op_type)
                if subset is None or len(subset) < 4:
                    continue
                fitted[(gpu_key, op_type)] = fit_regression(
                    subset.feature_matrix(), subset.mean_us,
                    feature_schema(op_type), allow_quadratic=False,
                )
        return cls(models=fitted)

    def predict_iteration_us(self, model: Union[str, OpGraph], gpu_key: str,
                             num_gpus: int = 1, batch_size: int = 32) -> float:
        from repro.profiling.features import features_for

        graph = (
            build_model(model, batch_size=batch_size)
            if isinstance(model, str) else model
        )
        key = gpu_spec(gpu_key).key
        total = 0.0
        for op in graph:
            regression = self.models.get((key, op.op_type))
            if regression is not None:
                total += regression.predict_one(features_for(op))
        if total == 0.0:
            raise ModelingError(
                f"layer-level baseline has no fitted kernels for GPU {key!r}"
            )
        return total


# ---------------------------------------------------------------------------
# naive instance-selection strategies (paper, Sections I and V)
# ---------------------------------------------------------------------------

def cheapest_instance_strategy(
    pricing: PricingScheme = ON_DEMAND,
    gpu_keys: Sequence[str] = ("V100", "K80", "T4", "M60"),
    num_gpus: int = 1,
) -> InstanceType:
    """"Pick the cheapest instance": lowest hourly cost at a GPU count."""
    candidates = [pricing.instance(key, num_gpus) for key in gpu_keys]
    return min(candidates, key=lambda inst: inst.usd_per_hr)


def latest_gpu_strategy(
    pricing: PricingScheme = ON_DEMAND,
    num_gpus: int = 1,
    budget_usd_per_hr: Optional[float] = None,
) -> InstanceType:
    """"Pick the latest GPU" (AWS's default P3 listing; Section V).

    With a budget, returns the largest P3 configuration that fits — the
    Fig. 9 baseline ("pick the largest P3 instance that fits the budget").
    """
    if budget_usd_per_hr is None:
        return pricing.instance("V100", num_gpus)
    best: Optional[InstanceType] = None
    for k in range(1, 9):
        try:
            inst = pricing.instance("V100", k)
        except CatalogError:
            break
        if inst.usd_per_hr <= budget_usd_per_hr:
            best = inst  # keep the largest configuration under budget
    if best is None:
        raise ModelingError(f"no P3 instance fits ${budget_usd_per_hr:.2f}/hr")
    return best


def strategy_cost_comparison(
    ceer_prediction: TrainingPrediction,
    alternative_predictions: Sequence[TrainingPrediction],
) -> List[Tuple[str, float]]:
    """Relative extra cost of each alternative over Ceer's pick.

    Returns (instance name, cost ratio) pairs; a ratio of 1.6 means the
    alternative costs 1.6x Ceer's recommendation (paper: 1.6x for the
    cheapest-instance strategy, 1.8x for the most powerful, Fig. 11).
    """
    base = ceer_prediction.cost_dollars
    if base <= 0:
        raise ModelingError("Ceer prediction has non-positive cost")
    return [
        (p.instance_name, p.cost_dollars / base) for p in alternative_predictions
    ]
