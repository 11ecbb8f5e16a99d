"""The end-to-end Ceer training pipeline: profiles in, estimator out.

:func:`fit_ceer` reproduces the paper's offline phase (Sections III-IV):
profile the 8 training-set CNNs on all four GPU models, classify op types,
fit the heavy-op regressions and light/CPU medians, measure and fit the
communication overheads, and assemble a :class:`CeerEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TRAIN_MODELS
from repro.obs.spans import span
from repro.profiling.profiler import Profiler
from repro.profiling.records import ProfileDataset
from repro.core.classify import (
    LIGHT_THRESHOLD_US,
    REFERENCE_GPU,
    classify_operations,
)
from repro.core.comm_model import (
    CommObservation,
    collect_comm_observations,
    fit_comm_model,
)
from repro.core.estimator import CeerEstimator
from repro.core.op_models import fit_compute_models

#: Communication overheads are measured over at most this many iterations.
COMM_MAX_ITERATIONS = 300


@dataclass
class CeerDiagnostics:
    """Fit-quality metadata surfaced alongside a fitted estimator."""

    train_models: Tuple[str, ...]
    gpu_keys: Tuple[str, ...]
    n_profile_records: int
    heavy_op_types: Tuple[str, ...]
    light_op_types: Tuple[str, ...]
    cpu_op_types: Tuple[str, ...]
    light_median_us: float
    cpu_median_us: float
    heavy_r2: Dict[Tuple[str, str], float] = field(default_factory=dict)
    comm_r2: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: Which op-model backend produced the heavy fits.
    backend: str = "per_gpu"
    #: (gpu, op type) cells that fell back to the proportional model for
    #: want of samples (gpu = "pooled" under the transfer backend).
    proportional_fallbacks: Tuple[Tuple[str, str], ...] = ()
    #: Per-op-type residual std of the pooled transfer fits (empty for
    #: the per-GPU backend).
    transfer_std_us: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        r2_values = sorted(self.heavy_r2.values())
        lines = [
            f"Ceer fit over {len(self.train_models)} CNNs x "
            f"{len(self.gpu_keys)} GPU models ({self.n_profile_records} op records)",
            f"  heavy op types: {len(self.heavy_op_types)}  "
            f"light: {len(self.light_op_types)}  cpu: {len(self.cpu_op_types)}",
            f"  light median: {self.light_median_us:.1f} us   "
            f"cpu median: {self.cpu_median_us:.1f} us",
        ]
        if self.backend != "per_gpu":
            lines.append(f"  op-model backend: {self.backend}")
        if r2_values:
            lines.append(
                f"  heavy-op regression R^2: min {r2_values[0]:.3f} / "
                f"median {r2_values[len(r2_values) // 2]:.3f} / max {r2_values[-1]:.3f}"
            )
        if self.proportional_fallbacks:
            cells = ", ".join(
                f"{gpu}/{op}" for gpu, op in self.proportional_fallbacks
            )
            lines.append(
                f"  proportional fallbacks ({len(self.proportional_fallbacks)} "
                f"cells with < p+2 samples): {cells}"
            )
        if self.comm_r2:
            comm = sorted(self.comm_r2.values())
            lines.append(
                f"  comm model R^2: min {comm[0]:.3f} / max {comm[-1]:.3f}"
            )
        return "\n".join(lines)


@dataclass
class FittedCeer:
    """A fitted estimator bundled with its training profiles and diagnostics."""

    estimator: CeerEstimator
    train_profiles: ProfileDataset
    diagnostics: CeerDiagnostics


def fit_ceer(
    train_models: Sequence[str] = TRAIN_MODELS,
    gpu_keys: Sequence[str] = GPU_KEYS,
    n_iterations: int = 1000,
    batch_size: int = 32,
    gpu_counts: Sequence[int] = (1, 2, 3, 4),
    threshold_us: float = LIGHT_THRESHOLD_US,
    reference_gpu: str = REFERENCE_GPU,
    train_profiles: Optional[ProfileDataset] = None,
    comm_observations: Optional[Sequence[CommObservation]] = None,
    strict_unseen: bool = False,
    seed_context: str = "",
    placement: str = "single-host",
    backend: str = "per_gpu",
) -> FittedCeer:
    """Fit Ceer from scratch (or from pre-collected ``train_profiles``).

    Args:
        train_models: CNNs to profile; the paper's 8-model training set by
            default. Test-set CNNs must not appear here.
        gpu_keys: GPU models to profile on; all four AWS GPUs by default.
        n_iterations: profiling iterations per (model, GPU); paper uses 1,000.
        batch_size: per-GPU profiling batch size (paper default 32).
        gpu_counts: k values to fit communication models for.
        threshold_us / reference_gpu: light-op classification rule.
        train_profiles: reuse an existing profile dataset (skips profiling).
        comm_observations: reuse communication observations collected
            for these models, GPUs and counts (skips their collection).
        strict_unseen: raise on unseen GPU op types instead of using the
            light median (paper, Section IV-D / Limitations).
        seed_context: simulation seed context for independent re-runs.
        placement: GPU topology the communication model is trained for —
            ``"single-host"`` (the paper's setting) or ``"multi-host"``.
            An estimator is placement-specific (Section VI): retrain to
            predict for a different topology.
        backend: how heavy-op models are fitted — ``"per_gpu"`` (the
            paper's one regression per (GPU, op type)) or ``"transfer"``
            (one pooled fit per op type on size x device features, able
            to price spec-only GPUs with uncertainty bands).

    Returns:
        A :class:`FittedCeer` with the estimator, profiles, and diagnostics.
    """
    if train_profiles is None:
        profiler = Profiler(n_iterations=n_iterations, batch_size=batch_size)
        train_profiles = profiler.profile_many(
            list(train_models), list(gpu_keys), seed_context
        )
    with span(
        "fit.ceer", models=len(train_models), gpus=len(gpu_keys),
        iterations=n_iterations, placement=placement, backend=backend,
    ):
        classification = classify_operations(
            train_profiles, threshold_us=threshold_us, reference_gpu=reference_gpu
        )
        with span("fit.compute_models"):
            compute_models = fit_compute_models(
                train_profiles, classification, strict_unseen=strict_unseen,
                backend=backend,
            )
        with span("fit.comm_model"):
            if comm_observations is None:
                comm_observations = collect_comm_observations(
                    list(train_models), list(gpu_keys), gpu_counts,
                    n_iterations=min(n_iterations, COMM_MAX_ITERATIONS),
                    batch_size=batch_size,
                    seed_context=seed_context, placement=placement,
                )
            comm_model = fit_comm_model(comm_observations)
    estimator = CeerEstimator(compute_models, comm_model)
    if compute_models.heavy_models:
        fitted_gpu_keys = tuple(sorted({g for g, _ in compute_models.heavy_models}))
    elif compute_models.transfer is not None:
        fitted_gpu_keys = tuple(compute_models.transfer.train_gpu_keys)
    else:
        fitted_gpu_keys = tuple(gpu_keys)
    diagnostics = CeerDiagnostics(
        train_models=tuple(train_models),
        gpu_keys=fitted_gpu_keys,
        n_profile_records=len(train_profiles),
        heavy_op_types=tuple(sorted(classification.heavy)),
        light_op_types=tuple(sorted(classification.light)),
        cpu_op_types=tuple(sorted(classification.cpu)),
        light_median_us=compute_models.light_median_us,
        cpu_median_us=compute_models.cpu_median_us,
        heavy_r2=dict(compute_models.train_r2),
        comm_r2=dict(comm_model.r2),
        backend=compute_models.backend,
        proportional_fallbacks=compute_models.proportional_fallbacks,
        transfer_std_us=dict(compute_models.heavy_std_us),
    )
    return FittedCeer(
        estimator=estimator,
        train_profiles=train_profiles,
        diagnostics=diagnostics,
    )
