"""Cross-hardware transfer: one pooled fit per heavy op type.

The paper fits one regression per (GPU model, heavy op type), which caps
the estimator at the four GPUs it profiled. Habitat (arXiv:2102.00527)
and PROFET (arXiv:2208.05130) show that op-level compute times transfer
across devices through a small set of hardware descriptors; the
:class:`~repro.hardware.gpus.GpuSpec` catalog already carries the two
that dominate kernel runtime — peak FLOP/s (compute-bound ops) and
memory bandwidth (bandwidth-bound ops).

The transfer backend pools *all* GPUs' profile rows for an op type and
fits, per op type, one OLS model on

    [phi(x), d, d0 * phi(x), d1 * phi(x)]

where ``phi(x)`` is the op's size features (optionally with squared
terms, selected exactly like :func:`~repro.core.regression.fit_regression`)
and ``d = (d0, d1)`` are *inverse-normalized* device features

    d0 = peak_gflops(ref) / peak_gflops(g)        # inverse relative FLOP/s
    d1 = bandwidth(ref) / bandwidth(g)            # inverse relative bandwidth

with the reference fixed to the V100, so a slower device has larger
``d`` and the interaction terms ``d * phi(x)`` scale compute time up —
the roofline intuition that time ~ work / throughput.

The payoff of this particular design: for any *fixed* device the model
collapses to an ordinary :class:`~repro.core.regression.RegressionModel`
over size features alone::

    intercept_g = b + a . d
    coef_g[j]   = c[j] + d0 * e0[j] + d1 * e1[j]

so the Eq. (2) kernel and the stacked (G, K, B) sweep tensors work
unchanged for any catalog GPU — including ones admitted from a spec
sheet that were never profiled. Each fit also carries its residual
standard deviation, which propagates to prediction-level uncertainty
bands (something the per-GPU backend cannot offer for unseen devices).

Leave-one-GPU-out (:func:`logo_report`) is the honest evaluation: hold
out each profiled GPU, fit the transfer model on the other three, and
score MAPE on the holdout against the paper's own in-sample per-GPU fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import ModelingError
from repro.hardware.gpus import GpuSpec, gpu_spec
from repro.obs.metrics import default_registry
from repro.obs.spans import span
from repro.profiling.features import feature_schema
from repro.profiling.records import ProfileDataset
from repro.core.classify import OpClassification
from repro.core.op_models import fit_heavy_regression
from repro.core.regression import (
    EXTRAPOLATION_CLIP_FACTOR,
    QUADRATIC_PREFERENCE_MARGIN,
    RegressionModel,
    mean_absolute_percentage_error,
)

#: Device features are normalized against this GPU (the paper's fastest):
#: the V100 maps to d = (1, 1), slower devices to larger components.
REFERENCE_TRANSFER_GPU = "V100"

#: Type alias for one pooled training cell: (op_type, (n, features)
#: feature matrix, n mean times, (n, 2) device features).
TransferCell = Tuple[str, np.ndarray, np.ndarray, np.ndarray]


def device_features(spec: GpuSpec, reference: GpuSpec) -> Tuple[float, float]:
    """Inverse-normalized device features ``(d0, d1)`` for one GPU.

    Both components are *reference / device* ratios, so they act as
    multipliers on work terms: a GPU with half the V100's FLOP/s gets
    ``d0 = 2`` and its compute-bound coefficients double.
    """
    if spec.peak_gflops <= 0 or spec.memory_bandwidth_gbps <= 0:
        raise ModelingError(
            f"GPU {spec.key!r} needs positive peak_gflops and "
            f"memory_bandwidth_gbps for transfer prediction"
        )
    return (
        reference.peak_gflops / spec.peak_gflops,
        reference.memory_bandwidth_gbps / spec.memory_bandwidth_gbps,
    )


@dataclass(frozen=True)
class TransferOpModel:
    """One pooled cross-GPU fit for a heavy op type.

    Coefficient layout (``F = len(size_coef)`` expanded size features,
    ``F = n_features * degree``)::

        y ~ intercept + size_coef . phi(x) + device_coef . d
            + d0 * interaction_coef[0] . phi(x)
            + d1 * interaction_coef[1] . phi(x)

    ``proportional`` marks the few-rows fallback (through-origin on
    ``x[0] * d0``), the transfer analog of
    :func:`~repro.core.regression.fit_proportional`.
    """

    op_type: str
    degree: int
    feature_names: Tuple[str, ...]
    intercept: float
    size_coef: Tuple[float, ...]
    device_coef: Tuple[float, float]
    interaction_coef: Tuple[Tuple[float, ...], Tuple[float, ...]]
    residual_std_us: float
    r2: float
    adjusted_r2: float
    n_train: int
    clip_max: Optional[float] = None
    proportional: bool = False

    def collapse(self, spec: GpuSpec, reference: GpuSpec) -> RegressionModel:
        """Specialize to one device: an ordinary size-feature regression.

        The collapsed model has the same degree and feature schema as a
        per-GPU fit, so every downstream consumer (the Eq. (2) kernel,
        the stacked sweep tensors) works on it unchanged.
        """
        d0, d1 = device_features(spec, reference)
        e0, e1 = self.interaction_coef
        coef = tuple(
            c + d0 * a + d1 * b for c, a, b in zip(self.size_coef, e0, e1)
        )
        intercept = (
            self.intercept + d0 * self.device_coef[0] + d1 * self.device_coef[1]
        )
        return RegressionModel(
            degree=self.degree,
            intercept=intercept,
            coef=coef,
            r2=self.r2,
            adjusted_r2=self.adjusted_r2,
            n_train=self.n_train,
            feature_names=self.feature_names,
            clip_max=self.clip_max,
        )


def _expand(x: np.ndarray, degree: int) -> np.ndarray:
    return np.hstack([x, x**2]) if degree == 2 else x


def _transfer_design(phi: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Assemble ``[1, phi, d, d0*phi, d1*phi]`` — shape (n, 3F + 3)."""
    ones = np.ones((phi.shape[0], 1))
    return np.hstack(
        [ones, phi, d, d[:, 0:1] * phi, d[:, 1:2] * phi]
    )


def _fit_transfer_ols(
    op_type: str,
    x: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    degree: int,
    schema: Tuple[str, ...],
) -> TransferOpModel:
    phi = _expand(x, degree)
    design = _transfer_design(phi, d)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ coef
    ss_res = float(residuals @ residuals)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    n, p = design.shape
    if n > p:
        adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    else:
        adjusted = r2
    f = phi.shape[1]
    return TransferOpModel(
        op_type=op_type,
        degree=degree,
        feature_names=schema,
        intercept=float(coef[0]),
        size_coef=tuple(float(c) for c in coef[1 : 1 + f]),
        device_coef=(float(coef[1 + f]), float(coef[2 + f])),
        interaction_coef=(
            tuple(float(c) for c in coef[3 + f : 3 + 2 * f]),
            tuple(float(c) for c in coef[3 + 2 * f : 3 + 3 * f]),
        ),
        residual_std_us=float(np.sqrt(ss_res / max(n - p, 1))),
        r2=r2,
        adjusted_r2=adjusted,
        n_train=n,
        clip_max=float(EXTRAPOLATION_CLIP_FACTOR * y.max()),
    )


def _fit_transfer_proportional(
    op_type: str,
    x: np.ndarray,
    y: np.ndarray,
    d: np.ndarray,
    schema: Tuple[str, ...],
) -> TransferOpModel:
    """Few-rows fallback: through-origin on ``x[0] * d0``.

    Stored entirely in ``interaction_coef[0][0]``, so :meth:`collapse`
    reproduces a per-device proportional model (``coef[0] = slope * d0``)
    with zero intercept — mirroring ``fit_proportional``.
    """
    z = x[:, 0] * d[:, 0]
    denom = float(z @ z)
    if denom <= 0:
        raise ModelingError(
            f"transfer proportional fit for {op_type!r} needs a positive "
            "first feature"
        )
    slope = float(z @ y) / denom
    predicted = slope * z
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    n_features = x.shape[1]
    zeros = (0.0,) * n_features
    return TransferOpModel(
        op_type=op_type,
        degree=1,
        feature_names=schema,
        intercept=0.0,
        size_coef=zeros,
        device_coef=(0.0, 0.0),
        interaction_coef=((slope,) + (0.0,) * (n_features - 1), zeros),
        residual_std_us=float(np.sqrt(ss_res / max(x.shape[0] - 1, 1))),
        r2=r2,
        adjusted_r2=r2,
        n_train=x.shape[0],
        clip_max=float(EXTRAPOLATION_CLIP_FACTOR * y.max()),
        proportional=True,
    )


def fit_transfer_op(
    op_type: str,
    rows: ArrayLike,
    targets: ArrayLike,
    device_rows: ArrayLike,
    schema: Tuple[str, ...],
    allow_quadratic: bool = True,
) -> TransferOpModel:
    """Fit one pooled transfer model for one heavy op type.

    Linear vs quadratic size terms are selected by adjusted R² with the
    same preference margin as the per-GPU path; the quadratic variant is
    attempted only when the pooled sample comfortably overdetermines its
    ``6 * n_features + 3`` parameters.
    """
    x = np.asarray(rows, dtype=float)
    y = np.asarray(targets, dtype=float)
    d = np.asarray(device_rows, dtype=float)
    if x.shape[0] != y.shape[0] or x.shape[0] != d.shape[0]:
        raise ModelingError(
            f"transfer fit for {op_type!r}: rows/targets/device_rows "
            f"lengths differ ({x.shape[0]}/{y.shape[0]}/{d.shape[0]})"
        )
    n, n_features = x.shape
    p_linear = 3 * n_features + 3
    if n < p_linear + 1:
        return _fit_transfer_proportional(op_type, x, y, d, schema)
    linear = _fit_transfer_ols(op_type, x, y, d, 1, schema)
    p_quadratic = 6 * n_features + 3
    if not allow_quadratic or n < p_quadratic + 2:
        return linear
    quadratic = _fit_transfer_ols(op_type, x, y, d, 2, schema)
    if quadratic.adjusted_r2 > linear.adjusted_r2 + QUADRATIC_PREFERENCE_MARGIN:
        return quadratic
    return linear


@dataclass
class TransferModelSet:
    """All pooled transfer fits plus the device normalization anchor."""

    models: Dict[str, TransferOpModel]
    train_gpu_keys: Tuple[str, ...]
    reference_gpu: str = REFERENCE_TRANSFER_GPU

    def collapse(self, gpu_key: str, op_type: str) -> Optional[RegressionModel]:
        """Per-device regression for one op type (None if type unknown).

        Raises :class:`~repro.errors.HardwareError` for an unknown GPU
        key — the caller decides whether that is an unseen-op situation.
        """
        model = self.models.get(op_type)
        if model is None:
            return None
        return model.collapse(gpu_spec(gpu_key), gpu_spec(self.reference_gpu))

    def residual_std_us(self) -> Dict[str, float]:
        """Per-op-type residual std, the raw material of uncertainty bands."""
        return {
            op_type: model.residual_std_us
            for op_type, model in sorted(self.models.items())
        }

    def op_types(self) -> Tuple[str, ...]:
        return tuple(sorted(self.models))


def _pooled_cells(
    train_profiles: ProfileDataset, classification: OpClassification
) -> List[TransferCell]:
    """Pool every GPU's rows per heavy op type, in deterministic order.

    Rows are ordered by (sorted GPU key, dataset order), so a fit's
    inputs do not depend on how the profiles were collected.
    """
    gpu_records = train_profiles.gpu_records()
    reference = gpu_spec(REFERENCE_TRANSFER_GPU)
    per_gpu = [
        (gpu_records.for_gpu(gpu_key).group_by_op_type(),
         device_features(gpu_spec(gpu_key), reference))
        for gpu_key in gpu_records.gpu_keys()
    ]
    cells: List[TransferCell] = []
    for op_type in sorted(classification.heavy):
        subsets = [
            (by_type[op_type], dev) for by_type, dev in per_gpu if op_type in by_type
        ]
        if subsets:
            cells.append((
                op_type,
                np.concatenate([subset.feature_matrix() for subset, _ in subsets]),
                np.concatenate([subset.mean_us for subset, _ in subsets]),
                np.array([dev for subset, dev in subsets for _ in range(len(subset))]),
            ))
    return cells


def fit_transfer_models(
    train_profiles: ProfileDataset,
    classification: OpClassification,
    allow_quadratic: bool = True,
) -> TransferModelSet:
    """Fit one pooled transfer model per heavy op type."""
    if not train_profiles:
        raise ModelingError("cannot fit transfer models from an empty profile set")
    with span("transfer.fit"):
        cells = _pooled_cells(train_profiles, classification)
        if not cells:
            raise ModelingError("no heavy-op observations to fit transfer models")
        fitted = [
            fit_transfer_op(
                op_type, rows, targets, devices, feature_schema(op_type),
                allow_quadratic=allow_quadratic,
            )
            for op_type, rows, targets, devices in cells
        ]
        default_registry().counter("transfer.fits").inc(len(fitted))
        return TransferModelSet(
            models={model.op_type: model for model in fitted},
            train_gpu_keys=train_profiles.gpu_records().gpu_keys(),
        )


# ----------------------------------------------------------------------
# Leave-one-GPU-out evaluation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LogoFold:
    """One holdout GPU's scores: transfer (out-of-sample) vs paper fit.

    ``per_gpu_mape`` is the *in-sample* MAPE of the paper's own
    per-(GPU, op) fits on the same rows — the floor a transfer model
    that never saw this GPU is compared against.
    """

    gpu_key: str
    n_rows: int
    n_op_types: int
    transfer_mape: float
    per_gpu_mape: float


@dataclass(frozen=True)
class LogoReport:
    """Leave-one-GPU-out error table across all profiled GPUs."""

    folds: Tuple[LogoFold, ...]
    reference_gpu: str = REFERENCE_TRANSFER_GPU

    def to_dict(self) -> Dict[str, object]:
        return {
            "reference_gpu": self.reference_gpu,
            "folds": [
                {
                    "gpu_key": f.gpu_key,
                    "n_rows": f.n_rows,
                    "n_op_types": f.n_op_types,
                    "transfer_mape": f.transfer_mape,
                    "per_gpu_mape": f.per_gpu_mape,
                }
                for f in self.folds
            ],
        }


def logo_report(
    train_profiles: ProfileDataset,
    classification: OpClassification,
    allow_quadratic: bool = True,
) -> LogoReport:
    """Leave-one-GPU-out over every GPU in the profile set.

    Each fold fits the transfer model on the other GPUs' pooled rows and
    scores MAPE on the holdout's heavy rows, against the in-sample MAPE
    of the paper's own per-(GPU, op) fits on the same rows.
    """
    gpu_records = train_profiles.gpu_records()
    gpu_keys = gpu_records.gpu_keys()
    if len(gpu_keys) < 2:
        raise ModelingError(
            "leave-one-GPU-out needs at least two profiled GPUs, got "
            f"{len(gpu_keys)}"
        )
    reference = gpu_spec(REFERENCE_TRANSFER_GPU)
    folds: List[LogoFold] = []
    with span("transfer.logo", gpus=len(gpu_keys)):
        for holdout in gpu_keys:
            fitted = {
                op_type: fit_transfer_op(
                    op_type, rows, targets, devices, feature_schema(op_type),
                    allow_quadratic=allow_quadratic,
                )
                for op_type, rows, targets, devices in _pooled_cells(
                    train_profiles.select(~train_profiles.gpu_mask((holdout,))),
                    classification,
                )
            }
            holdout_by_type = gpu_records.for_gpu(holdout).group_by_op_type()
            d0, d1 = device_features(gpu_spec(holdout), reference)
            observed: List[float] = []
            predicted: List[float] = []
            baseline: List[float] = []
            n_op_types = 0
            for op_type in sorted(classification.heavy):
                model = fitted.get(op_type)
                subset = holdout_by_type.get(op_type)
                if model is None or subset is None:
                    continue
                n_op_types += 1
                targets = subset.mean_us.tolist()
                x = subset.feature_matrix()
                e0, e1 = model.interaction_coef
                phi = _expand(x, model.degree)
                coef = np.asarray(
                    [c + d0 * a + d1 * b for c, a, b in zip(model.size_coef, e0, e1)]
                )
                intercept = (
                    model.intercept + d0 * model.device_coef[0]
                    + d1 * model.device_coef[1]
                )
                pred = intercept + phi @ coef
                if model.clip_max is not None:
                    pred = np.minimum(pred, model.clip_max)
                pred = np.maximum(pred, 1.0)
                own = fit_heavy_regression(
                    x, targets, feature_schema(op_type), allow_quadratic,
                )
                observed.extend(targets)
                predicted.extend(float(v) for v in pred)
                baseline.extend(float(v) for v in own.predict_batch(x))
            if not observed:
                raise ModelingError(
                    f"no evaluable heavy rows for holdout GPU {holdout!r}"
                )
            folds.append(LogoFold(
                gpu_key=holdout,
                n_rows=len(observed),
                n_op_types=n_op_types,
                transfer_mape=mean_absolute_percentage_error(observed, predicted),
                per_gpu_mape=mean_absolute_percentage_error(observed, baseline),
            ))
        default_registry().counter("transfer.folds").inc(len(folds))
        return LogoReport(folds=tuple(folds))
