"""Per-operation compute-time models: regressions for heavy ops, medians
for light and CPU ops (paper, Section IV-B).

``t_GPU,op(input)`` — the function at the heart of the paper's Eq. (1)/(2):

* heavy GPU op: a per-(GPU model, op type) regression on input-size
  features, linear or quadratic (selected automatically);
* light GPU op: the global sample median ``t~_l`` over all light-op
  instances in all training CNNs across all GPU types;
* CPU op: the global sample median ``t~_c``, likewise.

The median estimators are deliberately GPU-, CNN-, and op-oblivious, "to
avoid the unfair impact of possible outliers" — reproduced verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import HardwareError, ModelingError
from repro.profiling.features import feature_schema
from repro.profiling.records import ProfileDataset
from repro.core.classify import OpClassification
from repro.core.regression import RegressionModel, fit_proportional, fit_regression

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.transfer import TransferModelSet


@dataclass(frozen=True)
class HeavyOpModel:
    """The fitted compute-time regression for one (GPU model, op type)."""

    gpu_key: str
    op_type: str
    regression: RegressionModel

    def predict_us(self, features: Sequence[float]) -> float:
        return self.regression.predict_one(features)


@dataclass
class ComputeTimeModels:
    """All fitted ``t_GPU,op`` functions plus the classification they use.

    Attributes:
        classification: the heavy/light/CPU partition.
        heavy_models: (gpu_key, op_type) -> :class:`HeavyOpModel` — the
            per-GPU backend's fits; empty under the transfer backend,
            where per-device models are synthesized on demand (see
            :meth:`heavy_model`).
        light_median_us: the paper's ``t~_l``.
        cpu_median_us: the paper's ``t~_c``.
        strict_unseen: when True, predicting an unclassified GPU op type
            raises :class:`UnseenOperationError` (the paper's stated
            limitation); when False, unseen types fall back to the light
            median — the paper's policy for unseen *light/CPU* ops.
        backend: which :class:`OpModelBackend` produced the heavy fits
            (``"per_gpu"`` or ``"transfer"``).
        transfer: the pooled cross-GPU fits (transfer backend only).
        heavy_std_us: per-op-type residual std of the pooled fits —
            the raw material of prediction uncertainty bands (empty for
            the per-GPU backend, which offers no uncertainty estimate).
        proportional_fallbacks: (gpu, op type) cells whose heavy fit fell
            back to the proportional model for want of samples; under the
            transfer backend the gpu component is ``"pooled"``.
    """

    classification: OpClassification
    heavy_models: Dict[Tuple[str, str], HeavyOpModel]
    light_median_us: float
    cpu_median_us: float
    strict_unseen: bool = False
    #: Per-(gpu, op type) training R² values (diagnostics; paper: 0.84-0.98).
    #: The transfer backend keys its pooled fits as ("pooled", op_type).
    train_r2: Dict[Tuple[str, str], float] = field(default_factory=dict)
    backend: str = "per_gpu"
    transfer: Optional["TransferModelSet"] = None
    heavy_std_us: Dict[str, float] = field(default_factory=dict)
    proportional_fallbacks: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        # Per-device models synthesized from the transfer fits, cached so
        # a sweep collapses each (gpu, op type) exactly once.
        self._synthesized: Dict[Tuple[str, str], HeavyOpModel] = {}

    # ------------------------------------------------------------------
    def heavy_model(self, gpu_key: str, op_type: str) -> Optional[HeavyOpModel]:
        """The heavy-op model for one (GPU, op type), whatever the backend.

        Per-GPU fits are returned directly; under the transfer backend a
        per-device regression is synthesized (and cached) by collapsing
        the pooled fit onto the GPU's spec features. Returns None when
        neither backend can price the cell — callers keep the existing
        unseen-op semantics.
        """
        model = self.heavy_models.get((gpu_key, op_type))
        if model is not None or self.transfer is None:
            return model
        cached = self._synthesized.get((gpu_key, op_type))
        if cached is not None:
            return cached
        try:
            regression = self.transfer.collapse(gpu_key, op_type)
        except HardwareError:
            return None
        if regression is None:
            return None
        synthesized = HeavyOpModel(gpu_key, op_type, regression)
        self._synthesized[(gpu_key, op_type)] = synthesized
        from repro.obs.metrics import default_registry

        default_registry().counter("transfer.synthesized").inc()
        return synthesized

    def supports_gpu(self, gpu_key: str) -> bool:
        """Can this model set price ``gpu_key`` at all?

        Per-GPU fits support exactly the profiled GPUs; the transfer
        backend supports any GPU with a resolvable spec (including
        runtime-admitted, never-profiled devices).
        """
        if any(g == gpu_key for g, _ in self.heavy_models):
            return True
        if self.transfer is None:
            return False
        from repro.hardware.gpus import gpu_spec

        try:
            gpu_spec(gpu_key)
        except HardwareError:
            return False
        return True

    def compiled_std_us(self, heavy_counts: Mapping[str, int]) -> float:
        """Graph-level 1-sigma compute uncertainty from per-op residuals.

        Independent per-op residuals sum in variance: ``sqrt(sum_t n_t *
        sigma_t^2)`` over heavy op types. Device- and batch-independent
        (op *counts* do not change with batch size), zero when the
        backend carries no uncertainty (per-GPU fits).
        """
        if not self.heavy_std_us:
            return 0.0
        variance = 0.0
        for op_type, count in heavy_counts.items():
            variance += count * self.heavy_std_us.get(op_type, 0.0) ** 2
        return math.sqrt(variance)

    def heavy_op_types(self) -> Tuple[str, ...]:
        return tuple(sorted(self.classification.heavy))


def fit_heavy_regression(
    rows: ArrayLike,
    targets: ArrayLike,
    schema: Tuple[str, ...],
    allow_quadratic: bool = True,
) -> RegressionModel:
    """Fit one heavy-op regression from a feature matrix / mean times.

    Shared by :class:`PerGpuBackend` and the transfer backend's
    leave-one-GPU-out baseline, so both fit a cell the same way.
    """
    x = np.asarray(rows, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] >= x.shape[1] + 2:
        return fit_regression(x, y, schema, allow_quadratic=allow_quadratic)
    # Rare op types (e.g. LRN: two instances per network) get a
    # proportional input-size model instead of a full OLS fit.
    return fit_proportional(x, y, schema)


@dataclass(frozen=True)
class BackendFit:
    """What an :class:`OpModelBackend` produces: the heavy-op side of a
    :class:`ComputeTimeModels` (light/CPU medians are backend-agnostic)."""

    heavy_models: Dict[Tuple[str, str], HeavyOpModel]
    train_r2: Dict[Tuple[str, str], float]
    transfer: Optional["TransferModelSet"] = None
    heavy_std_us: Dict[str, float] = field(default_factory=dict)
    proportional_fallbacks: Tuple[Tuple[str, str], ...] = ()


class OpModelBackend:
    """How heavy-op compute-time models are fitted.

    Two implementations: :class:`PerGpuBackend` (the paper's one fit per
    (GPU model, op type) — byte-identical artifacts to the pre-backend
    code) and :class:`TransferBackend` (one pooled fit per op type on
    size × device features, able to price GPUs from a spec sheet alone).
    """

    name: str = "abstract"

    def fit_heavy(
        self,
        train_profiles: ProfileDataset,
        classification: OpClassification,
        allow_quadratic: bool = True,
    ) -> BackendFit:
        raise NotImplementedError


class PerGpuBackend(OpModelBackend):
    """The paper-faithful backend: one regression per (GPU, heavy op)."""

    name = "per_gpu"

    def fit_heavy(
        self,
        train_profiles: ProfileDataset,
        classification: OpClassification,
        allow_quadratic: bool = True,
    ) -> BackendFit:
        heavy_models: Dict[Tuple[str, str], HeavyOpModel] = {}
        train_r2: Dict[Tuple[str, str], float] = {}
        fallbacks: List[Tuple[str, str]] = []
        gpu_records = train_profiles.gpu_records()
        for gpu_key in gpu_records.gpu_keys():
            by_type = gpu_records.for_gpu(gpu_key).group_by_op_type()
            for op_type in classification.heavy:
                subset = by_type.get(op_type)
                if subset is None:
                    continue  # never seen on this GPU; predict_op raises later
                schema = feature_schema(op_type)
                regression = fit_heavy_regression(
                    subset.feature_matrix(), subset.mean_us, schema, allow_quadratic,
                )
                heavy_models[(gpu_key, op_type)] = HeavyOpModel(gpu_key, op_type, regression)
                train_r2[(gpu_key, op_type)] = regression.r2
                if len(subset) < len(schema) + 2:
                    fallbacks.append((gpu_key, op_type))
        return BackendFit(
            heavy_models=heavy_models,
            train_r2=train_r2,
            proportional_fallbacks=tuple(sorted(fallbacks)),
        )


class TransferBackend(OpModelBackend):
    """The cross-hardware backend: pooled fits on size × device features."""

    name = "transfer"

    def fit_heavy(
        self,
        train_profiles: ProfileDataset,
        classification: OpClassification,
        allow_quadratic: bool = True,
    ) -> BackendFit:
        from repro.core.transfer import fit_transfer_models

        transfer = fit_transfer_models(
            train_profiles, classification,
            allow_quadratic=allow_quadratic,
        )
        fallbacks = tuple(
            ("pooled", op_type)
            for op_type in transfer.op_types()
            if transfer.models[op_type].proportional
        )
        return BackendFit(
            heavy_models={},
            train_r2={
                ("pooled", op_type): transfer.models[op_type].r2
                for op_type in transfer.op_types()
            },
            transfer=transfer,
            heavy_std_us=transfer.residual_std_us(),
            proportional_fallbacks=fallbacks,
        )


#: The registered backends, keyed by their CLI/artifact name.
BACKENDS: Dict[str, OpModelBackend] = {
    "per_gpu": PerGpuBackend(),
    "transfer": TransferBackend(),
}


def resolve_backend(backend: Union[str, OpModelBackend]) -> OpModelBackend:
    """Map a backend name (or pass through an instance) to an implementation."""
    if isinstance(backend, OpModelBackend):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ModelingError(
            f"unknown op-model backend {backend!r}; "
            f"expected one of {sorted(BACKENDS)}"
        ) from None


def fit_compute_models(
    train_profiles: ProfileDataset,
    classification: OpClassification,
    allow_quadratic: bool = True,
    strict_unseen: bool = False,
    light_estimator: str = "median",
    backend: Union[str, OpModelBackend] = "per_gpu",
) -> ComputeTimeModels:
    """Fit every ``t_GPU,op`` model from training-set profiles.

    The heavy-op side is delegated to the chosen :class:`OpModelBackend`
    (``"per_gpu"``: one regression per (GPU model, heavy op type) on that
    op type's size features — the paper's scheme; ``"transfer"``: one
    pooled fit per op type that generalizes across devices). A single
    global estimate each for light and CPU ops, identical under every
    backend.

    ``light_estimator`` selects how the light/CPU estimates are pooled:
    ``"median"`` (the paper's choice, robust to outliers) or ``"mean"``
    (the alternative the paper rejects — exposed for the ablation that
    justifies the choice).
    """
    if not train_profiles:
        raise ModelingError("cannot fit compute models from an empty profile set")
    if light_estimator not in ("median", "mean"):
        raise ModelingError(
            f"light_estimator must be 'median' or 'mean', got {light_estimator!r}"
        )
    impl = resolve_backend(backend)
    fit = impl.fit_heavy(
        train_profiles, classification,
        allow_quadratic=allow_quadratic,
    )
    if fit.proportional_fallbacks:
        from repro.obs.metrics import default_registry

        default_registry().counter("fit.proportional_fallbacks").inc(
            len(fit.proportional_fallbacks)
        )

    gpu_records = train_profiles.gpu_records()
    light_times_us = gpu_records.median_us[
        gpu_records.op_type_mask(classification.light)
    ]
    cpu_times_us = train_profiles.cpu_records().median_us
    if not len(light_times_us):
        raise ModelingError("no light-op observations in training profiles")
    if not len(cpu_times_us):
        raise ModelingError("no CPU-op observations in training profiles")
    pool = np.median if light_estimator == "median" else np.mean

    return ComputeTimeModels(
        classification=classification,
        heavy_models=fit.heavy_models,
        light_median_us=float(pool(light_times_us)),
        cpu_median_us=float(pool(cpu_times_us)),
        strict_unseen=strict_unseen,
        train_r2=fit.train_r2,
        backend=impl.name,
        transfer=fit.transfer,
        heavy_std_us=dict(fit.heavy_std_us),
        proportional_fallbacks=fit.proportional_fallbacks,
    )
