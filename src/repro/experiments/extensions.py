"""Extension studies beyond the paper's figures.

Studies that stress-test the design decisions and limitations the paper
discusses in prose:

* **Multi-host placement** (Section VI, limitation 2): how data-parallel
  scaling degrades when the GPUs span hosts, and that a placement-retrained
  Ceer recovers prediction accuracy while the single-host Ceer does not.
* **Training-set size sensitivity**: Ceer's held-out accuracy as a
  function of how many CNNs the models were fitted on — quantifying the
  paper's implicit claim that 8 training CNNs suffice.
* **Median-vs-mean light/CPU estimator** (Section IV-B): the paper picks
  the sample median "to avoid the unfair impact of possible outliers";
  this study measures what the mean would have cost.
* **Batch-size generalisation**: the paper fits and evaluates everything
  at batch 32; because Ceer's features are sizes, its predictions remain
  accurate at batch sizes it never profiled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.artifacts.workspace import Workspace
from repro.core.classify import classify_operations
from repro.core.estimator import CeerEstimator
from repro.core.fit import fit_ceer
from repro.core.op_models import fit_compute_models
from repro.experiments.common import (
    CANONICAL_ITERATIONS,
    IMAGENET_JOB,
    SCALING_JOB,
    training_profiles,
)
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TEST_MODELS
from repro.obs.spans import traced
from repro.sim.trainer import measure_training


# ---------------------------------------------------------------------------
# multi-host placement
# ---------------------------------------------------------------------------

@dataclass
class MultiHostResult:
    """Scaling and accuracy comparison across GPU placements."""

    model: str
    #: (placement, gpu, k) -> observed training time (us)
    observed_us: Dict[Tuple[str, str, int], float]
    #: estimator tag -> mean per-iteration error on multi-host observations
    multihost_errors: Dict[str, float]

    def reduction(self, placement: str, gpu_key: str, num_gpus: int) -> float:
        return 1 - (
            self.observed_us[(placement, gpu_key, num_gpus)]
            / self.observed_us[(placement, gpu_key, 1)]
        )

    def render(self) -> str:
        rows = []
        for gpu_key in GPU_KEYS:
            rows.append(
                [
                    gpu_key,
                    f"{self.reduction('single-host', gpu_key, 4):.1%}",
                    f"{self.reduction('multi-host', gpu_key, 4):.1%}",
                ]
            )
        table = format_table(
            ["GPU", "4-GPU cut (single host)", "4-GPU cut (multi host)"],
            rows,
            title=f"Extension - placement study ({self.model})",
        )
        lines = [table, "", "prediction error on multi-host deployments:"]
        for tag, err in self.multihost_errors.items():
            lines.append(f"  {tag}: {err:.1%}")
        return "\n".join(lines)


@traced("experiments.ext.multihost")
def run_multihost_study(
    model: str = "inception_v1",
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> MultiHostResult:
    """Compare placements and show that Ceer must be placement-retrained."""
    observed: Dict[Tuple[str, str, int], float] = {}
    for placement in ("single-host", "multi-host"):
        for gpu_key in GPU_KEYS:
            for k in (1, 4):
                measurement = measure_training(
                    model, gpu_key, k, SCALING_JOB,
                    n_profile_iterations=n_iterations,
                    seed_context="placement-eval", placement=placement,
                )
                observed[(placement, gpu_key, k)] = measurement.total_us

    profiles = training_profiles(n_iterations, workspace=workspace)
    single = fit_ceer(n_iterations=n_iterations, train_profiles=profiles,
                      placement="single-host")
    multi = fit_ceer(n_iterations=n_iterations, train_profiles=profiles,
                     placement="multi-host")

    def _error(estimator: CeerEstimator) -> float:
        errors: List[float] = []
        for test_model in TEST_MODELS:
            for gpu_key in GPU_KEYS:
                obs = measure_training(
                    test_model, gpu_key, 4, IMAGENET_JOB,
                    n_profile_iterations=n_iterations,
                    seed_context="placement-eval", placement="multi-host",
                ).per_iteration_us
                pred = estimator.predict_iteration_us(test_model, gpu_key, 4)
                errors.append(abs(pred - obs) / obs)
        return sum(errors) / len(errors)

    return MultiHostResult(
        model=model,
        observed_us=observed,
        multihost_errors={
            "single-host Ceer (stale comm model)": _error(single.estimator),
            "multi-host Ceer (retrained, Section VI)": _error(multi.estimator),
        },
    )


# ---------------------------------------------------------------------------
# training-set size sensitivity
# ---------------------------------------------------------------------------

@dataclass
class SensitivityResult:
    """Held-out accuracy vs number of training CNNs."""

    #: training-set size -> (models used, mean per-iteration error)
    by_size: Dict[int, Tuple[Tuple[str, ...], float]]

    def render(self) -> str:
        rows = [
            [size, f"{error:.1%}", ", ".join(models)]
            for size, (models, error) in sorted(self.by_size.items())
        ]
        return format_table(
            ["#train CNNs", "held-out error", "training set"],
            rows,
            title="Extension - accuracy vs training-set size",
        )


#: Nested prefixes of the training set, ordered to keep architecture
#: diversity at every size (a VGG, an Inception, a ResNet early).
_SENSITIVITY_ORDER: Tuple[str, ...] = (
    "vgg_11", "inception_v1", "resnet_50", "inception_v4",
    "resnet_152", "inception_resnet_v2", "vgg_16", "resnet_200",
)


@traced("experiments.ext.sensitivity")
def run_sensitivity_study(
    sizes: Sequence[int] = (3, 5, 8),
    n_iterations: int = 150,
) -> SensitivityResult:
    """Refit Ceer on nested training subsets and measure held-out error."""
    by_size: Dict[int, Tuple[Tuple[str, ...], float]] = {}
    for size in sizes:
        subset = _SENSITIVITY_ORDER[:size]
        fitted = fit_ceer(
            train_models=subset, n_iterations=n_iterations, gpu_counts=(1, 4)
        )
        errors: List[float] = []
        for model in TEST_MODELS:
            for gpu_key in GPU_KEYS:
                for k in (1, 4):
                    obs = measure_training(
                        model, gpu_key, k, IMAGENET_JOB,
                        n_profile_iterations=n_iterations,
                        seed_context="sensitivity-eval",
                    ).per_iteration_us
                    pred = fitted.estimator.predict_iteration_us(model, gpu_key, k)
                    errors.append(abs(pred - obs) / obs)
        by_size[size] = (tuple(subset), sum(errors) / len(errors))
    return SensitivityResult(by_size=by_size)


# ---------------------------------------------------------------------------
# median-vs-mean light/CPU estimator
# ---------------------------------------------------------------------------

@dataclass
class EstimatorChoiceResult:
    """Accuracy of the median vs mean pooling for light/CPU estimates."""

    errors: Dict[str, float]
    light_estimates_us: Dict[str, float]
    cpu_estimates_us: Dict[str, float]

    def render(self) -> str:
        rows = [
            [
                choice,
                f"{self.light_estimates_us[choice]:.1f}",
                f"{self.cpu_estimates_us[choice]:.1f}",
                f"{self.errors[choice]:.2%}",
            ]
            for choice in self.errors
        ]
        return format_table(
            ["pooling", "light estimate (us)", "cpu estimate (us)",
             "held-out error"],
            rows,
            title="Extension - light/CPU estimator choice (paper uses median)",
        )


@traced("experiments.ext.estimator_choice")
def run_estimator_choice_study(
    n_iterations: int = CANONICAL_ITERATIONS,
    workspace: Optional[Workspace] = None,
) -> EstimatorChoiceResult:
    """Compare the paper's median pooling against the mean alternative."""
    profiles = training_profiles(n_iterations, workspace=workspace)
    classification = classify_operations(profiles)
    base = fit_ceer(n_iterations=n_iterations, train_profiles=profiles)

    errors: Dict[str, float] = {}
    light: Dict[str, float] = {}
    cpu: Dict[str, float] = {}
    for choice in ("median", "mean"):
        compute_models = fit_compute_models(
            profiles, classification, light_estimator=choice
        )
        estimator = CeerEstimator(compute_models, base.estimator.comm_model)
        light[choice] = compute_models.light_median_us
        cpu[choice] = compute_models.cpu_median_us
        per_model: List[float] = []
        for model in TEST_MODELS:
            for gpu_key in GPU_KEYS:
                obs = measure_training(
                    model, gpu_key, 1, IMAGENET_JOB,
                    n_profile_iterations=n_iterations,
                    seed_context="estimator-choice-eval",
                ).per_iteration_us
                pred = estimator.predict_iteration_us(model, gpu_key, 1)
                per_model.append(abs(pred - obs) / obs)
        errors[choice] = sum(per_model) / len(per_model)
    return EstimatorChoiceResult(
        errors=errors, light_estimates_us=light, cpu_estimates_us=cpu
    )


# ---------------------------------------------------------------------------
# batch-size generalisation
# ---------------------------------------------------------------------------

@dataclass
class BatchSizeStudyResult:
    """Ceer accuracy when predicting batch sizes it was not fitted at."""

    fitted_batch: int
    #: evaluated batch size -> mean per-iteration error over test CNNs/GPUs
    errors: Dict[int, float]

    def render(self) -> str:
        rows = [
            [batch, "fitted" if batch == self.fitted_batch else "extrapolated",
             f"{error:.1%}"]
            for batch, error in sorted(self.errors.items())
        ]
        return format_table(
            ["batch size", "regime", "held-out error"],
            rows,
            title="Extension - batch-size generalisation "
                  f"(Ceer fitted at batch {self.fitted_batch})",
        )


@traced("experiments.ext.batch_size")
def run_batch_size_study(
    batch_sizes: Sequence[int] = (16, 32, 64),
    fitted_batch: int = 32,
    n_iterations: int = 150,
    models: Sequence[str] = ("inception_v3", "resnet_101"),
    workspace: Optional[Workspace] = None,
) -> BatchSizeStudyResult:
    """Fit Ceer at one batch size, evaluate at others.

    The paper profiles everything at batch 32 (Section V); a practitioner
    may want predictions for other batch sizes. Because Ceer's features are
    input *sizes* — which scale smoothly with batch — the regressions
    interpolate/extrapolate across batch sizes without refitting.
    """
    from repro.models.zoo import build_model
    from repro.workloads.dataset import IMAGENET, TrainingJob

    fitted = fit_ceer(
        n_iterations=n_iterations,
        train_profiles=training_profiles(n_iterations, workspace=workspace),
        batch_size=fitted_batch,
    )
    errors: Dict[int, float] = {}
    for batch in batch_sizes:
        job = TrainingJob(IMAGENET, batch_size=batch)
        values: List[float] = []
        for model in models:
            graph = build_model(model, batch_size=batch)
            for gpu_key in GPU_KEYS:
                obs = measure_training(
                    graph, gpu_key, 1, job, n_profile_iterations=n_iterations,
                    seed_context="batch-study-eval",
                ).per_iteration_us
                pred = fitted.estimator.predict_iteration_us(graph, gpu_key, 1)
                values.append(abs(pred - obs) / obs)
        errors[batch] = sum(values) / len(values)
    return BatchSizeStudyResult(fitted_batch=fitted_batch, errors=errors)
