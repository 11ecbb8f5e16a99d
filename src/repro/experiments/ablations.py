"""Ablations and baseline comparisons backing the paper's prose claims.

Four studies:

* **heavy-only** (Section IV-B): dropping the light/CPU medians from Eq.
  (2) raises training-time error to 15-25%.
* **no-comm** (Section IV-A): using Eq. (1) — ignoring the communication
  term — raises error by 5-20% on single-GPU instances (AlexNet ~30%) and
  more on multi-GPU ones.
* **regression quality** (Section IV-B): heavy-op regressions reach R²
  0.84-0.98 on training data and 2-10% MAPE on the held-out test CNNs.
* **baselines** (Sections I, V, VII): Ceer vs a PALEO-style FLOP model and
  a Giannini-style layer-level model for accuracy, and vs the
  cheapest-instance / latest-GPU strategies for rental cost (the paper
  reports 36% and 44% savings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace
from repro.core.baselines import (
    LayerLevelEstimator,
    PaleoStyleEstimator,
    heavy_only_variant,
    no_comm_variant,
)
from repro.core.estimator import CeerEstimator
from repro.core.regression import mean_absolute_percentage_error
from repro.experiments.common import (
    CANONICAL_ITERATIONS,
    IMAGENET_JOB,
    fitted_ceer,
    observed_training,
    test_profiles,
    training_profiles,
)
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TEST_MODELS
from repro.obs.spans import traced

#: Profiling iterations the PALEO baseline's targets are read at, at most.
PALEO_MAX_ITERATIONS = 200


@dataclass
class AblationResult:
    """Per-(model, GPU) per-iteration errors of Ceer and its ablations."""

    errors: Dict[str, Dict[Tuple[str, str, int], float]]  # variant -> errors
    heavy_r2_range: Tuple[float, float]
    heavy_test_mape: Dict[str, float]  # op type -> held-out MAPE
    strategy_cost_ratio: Dict[str, float]  # strategy -> cost vs Ceer pick

    def mean_error(self, variant: str, num_gpus: int = None) -> float:
        values = [
            err for (m, g, k), err in self.errors[variant].items()
            if num_gpus is None or k == num_gpus
        ]
        return sum(values) / len(values)

    def render(self) -> str:
        rows = []
        for variant in self.errors:
            rows.append(
                [
                    variant,
                    f"{self.mean_error(variant, 1):.1%}",
                    f"{self.mean_error(variant, 4):.1%}",
                    f"{self.mean_error(variant):.1%}",
                ]
            )
        table = format_table(
            ["estimator", "err (k=1)", "err (k=4)", "err (all)"],
            rows,
            title="Ablations - per-iteration time prediction error on test CNNs",
        )
        mape_sorted = sorted(self.heavy_test_mape.items(), key=lambda kv: kv[1])
        lines = [
            table,
            "",
            f"heavy-op regression R^2 (train): "
            f"{self.heavy_r2_range[0]:.3f} - {self.heavy_r2_range[1]:.3f}",
            "heavy-op test MAPE (best/worst): "
            f"{mape_sorted[0][0]} {mape_sorted[0][1]:.1%} / "
            f"{mape_sorted[-1][0]} {mape_sorted[-1][1]:.1%}",
            "strategy cost vs Ceer's cost-optimal pick:",
        ]
        for strategy, ratio in self.strategy_cost_ratio.items():
            lines.append(f"  {strategy}: {ratio:.2f}x  "
                         f"(Ceer saves {1 - 1 / ratio:.0%})")
        return "\n".join(lines)


def _per_iteration_errors(
    estimator,
    models: Sequence[str],
    gpu_counts: Sequence[int],
    n_iterations: int,
    workspace: Optional[Workspace] = None,
) -> Dict[Tuple[str, str, int], float]:
    errors: Dict[Tuple[str, str, int], float] = {}
    for model in models:
        for gpu_key in GPU_KEYS:
            for k in gpu_counts:
                obs = observed_training(
                    model, gpu_key, k, IMAGENET_JOB, n_iterations,
                    workspace=workspace,
                ).per_iteration_us
                pred = estimator.predict_iteration_us(model, gpu_key, k)
                errors[(model, gpu_key, k)] = abs(pred - obs) / obs
    return errors


def _heavy_test_mape(
    fitted, n_iterations: int, workspace: Optional[Workspace] = None
) -> Dict[str, float]:
    """Held-out MAPE per heavy op type, pooled over GPUs (paper: 2-10%)."""
    models = fitted.estimator.compute_models
    held_out = test_profiles(n_iterations, workspace=workspace).gpu_records()
    by_type = held_out.group_by_op_type()
    mape: Dict[str, float] = {}
    for op_type in models.classification.heavy:
        observed, predicted = [], []
        rows = by_type.get(op_type)
        if rows is None:
            continue
        for gpu_key, features, mean_us in zip(
            rows.row_gpu_keys(), rows.feature_matrix(), rows.mean_us.tolist()
        ):
            model = models.heavy_models.get((gpu_key, op_type))
            if model is None:
                continue
            observed.append(mean_us)
            predicted.append(model.predict_us(features))
        if observed:
            mape[op_type] = mean_absolute_percentage_error(observed, predicted)
    return mape


def _strategy_cost_ratios(
    estimator: CeerEstimator,
    n_iterations: int,
    workspace: Optional[Workspace] = None,
) -> Dict[str, float]:
    """Observed cost of naive strategies relative to Ceer's pick, averaged
    over the test CNNs (cost-minimisation objective, 1-4 GPU candidates)."""
    ratios: Dict[str, List[float]] = {"cheapest-instance": [], "latest-gpu (P3)": []}
    for model in TEST_MODELS:
        predictions = {
            (g, k): estimator.predict_training(model, g, k, IMAGENET_JOB)
            for g in GPU_KEYS for k in (1, 2, 3, 4)
        }
        ceer_pick = min(predictions, key=lambda key: predictions[key].cost_dollars)
        observed_usd = {
            key: observed_training(model, key[0], key[1], IMAGENET_JOB,
                                   n_iterations, workspace=workspace).cost_dollars
            for key in predictions
        }
        base = observed_usd[ceer_pick]
        # "Cheapest" = lowest hourly rate (the paper's G3 single-GPU);
        # "latest" = the most powerful P3 instance (4 GPUs).
        ratios["cheapest-instance"].append(observed_usd[("M60", 1)] / base)
        ratios["latest-gpu (P3)"].append(observed_usd[("V100", 4)] / base)
    return {k: sum(v) / len(v) for k, v in ratios.items()}


@traced("experiments.ablations")
def run_ablations(
    gpu_counts: Sequence[int] = (1, 4),
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> AblationResult:
    """Run all ablation/baseline studies on the held-out test CNNs."""
    fitted = fitted_ceer(n_iterations, workspace=workspace)
    estimator = fitted.estimator
    paleo = PaleoStyleEstimator.fit(training_profiles(
        min(n_iterations, PALEO_MAX_ITERATIONS), workspace=workspace
    ))
    layer_level = LayerLevelEstimator.fit(
        training_profiles(n_iterations, workspace=workspace)
    )

    variants = {
        "ceer (full)": estimator,
        "heavy-ops-only": heavy_only_variant(estimator),
        "no-communication (Eq. 1)": no_comm_variant(estimator),
        "layer-level (Giannini-style)": layer_level,
        "paleo-style (FLOPs)": paleo,
    }
    errors = {
        name: _per_iteration_errors(
            est, TEST_MODELS, gpu_counts, n_iterations, workspace=workspace
        )
        for name, est in variants.items()
    }
    r2_values = sorted(fitted.diagnostics.heavy_r2.values())
    return AblationResult(
        errors=errors,
        heavy_r2_range=(r2_values[0], r2_values[-1]),
        heavy_test_mape=_heavy_test_mape(fitted, n_iterations, workspace=workspace),
        strategy_cost_ratio=_strategy_cost_ratios(
            estimator, n_iterations, workspace=workspace
        ),
    )
