"""Least-squares regression with linear/quadratic model selection.

Paper, Section IV-B: "we find that linear regression works well for most
heavy operations ... However, for a few operations, e.g.
Conv2DBackpropFilter, a quadratic fit is much better suited". We implement
ordinary least squares on the op's size features, optionally augmented with
squared terms, and select between the two by adjusted R² with a preference
margin for the simpler model.

Implemented directly on numpy (lstsq) — no sklearn dependency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.errors import ModelingError

#: Quadratic must beat linear by this much adjusted-R² to be selected.
QUADRATIC_PREFERENCE_MARGIN = 0.003

#: Floor applied to predictions: a kernel can't take less than ~1 us.
PREDICTION_FLOOR_US = 1.0

#: Extrapolation guard: predictions are clipped to this multiple of the
#: largest training observation. Quadratic fits in particular can explode
#: when queried far outside the fitted input range (e.g. pricing a
#: Transformer's matmuls with CNN-trained models); a clipped estimate is
#: wrong but bounded, which keeps downstream recommendations sane.
EXTRAPOLATION_CLIP_FACTOR = 10.0


def _expand_quadratic(x: np.ndarray) -> np.ndarray:
    """Augment a design matrix with per-feature squared terms."""
    return np.hstack([x, x**2])


@dataclass(frozen=True)
class RegressionModel:
    """A fitted OLS model: ``y ~ intercept + coef . phi(x)``.

    ``degree`` is 1 (linear in the features) or 2 (features + their
    squares). ``r2`` and ``adjusted_r2`` are training-set statistics.
    """

    degree: int
    intercept: float
    coef: Tuple[float, ...]
    r2: float
    adjusted_r2: float
    n_train: int
    feature_names: Tuple[str, ...] = ()
    #: Upper clip for predictions (see EXTRAPOLATION_CLIP_FACTOR); None
    #: disables the guard.
    clip_max: Optional[float] = None

    def _design(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] * (2 if self.degree == 2 else 1) != len(self.coef):
            raise ModelingError(
                f"feature count mismatch: model has {len(self.coef)} coefficients "
                f"(degree {self.degree}), got {x.shape[1]} features"
            )
        return _expand_quadratic(x) if self.degree == 2 else x

    def predict(self, x: ArrayLike) -> np.ndarray:
        """Predict times for a feature matrix (or single feature vector)."""
        phi = self._design(x)
        pred = self.intercept + phi @ np.asarray(self.coef)
        if self.clip_max is not None:
            pred = np.minimum(pred, self.clip_max)
        return np.maximum(pred, PREDICTION_FLOOR_US)

    def predict_one(self, features: Sequence[float]) -> float:
        return float(self.predict(np.asarray(features, dtype=float)[None, :])[0])

    def predict_batch(self, x: ArrayLike) -> np.ndarray:
        """Vectorized prediction over an (n, features) matrix.

        One ``X @ w`` plus the same clip/floor as :meth:`predict_one`:
        ``predict_batch(X)[i] == predict_one(X[i])`` for every row (the
        stacked kernel replays the same clip-then-floor; see
        :func:`~repro.core.batch.evaluate_compiled_batch_us`).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ModelingError(
                f"predict_batch expects an (n, features) matrix, got ndim={x.ndim}"
            )
        return self.predict(x)


def _fit_ols(
    x: np.ndarray, y: np.ndarray, degree: int, feature_names: Tuple[str, ...]
) -> RegressionModel:
    phi = _expand_quadratic(x) if degree == 2 else x
    design = np.hstack([np.ones((phi.shape[0], 1)), phi])
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
    return RegressionModel(
        degree=degree,
        intercept=float(coef[0]),
        coef=tuple(float(c) for c in coef[1:]),
        r2=r2,
        adjusted_r2=adjusted,
        n_train=n,
        feature_names=feature_names,
        clip_max=float(EXTRAPOLATION_CLIP_FACTOR * y.max()),
    )


def fit_regression(
    x: ArrayLike,
    y: ArrayLike,
    feature_names: Tuple[str, ...] = (),
    allow_quadratic: bool = True,
) -> RegressionModel:
    """Fit OLS, selecting linear vs quadratic by adjusted R².

    The linear model wins ties (and near-ties within
    :data:`QUADRATIC_PREFERENCE_MARGIN`): parsimony matches the paper's
    finding that most ops are linear and only a few need curvature.

    Raises :class:`ModelingError` with a clear message when there are too
    few observations to fit anything.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise ModelingError(
            f"x has {x.shape[0]} rows but y has {y.shape[0]} values"
        )
    if x.shape[0] < x.shape[1] + 2:
        raise ModelingError(
            f"need at least {x.shape[1] + 2} observations to fit "
            f"{x.shape[1]} features, got {x.shape[0]}"
        )
    linear = _fit_ols(x, y, 1, feature_names)
    if not allow_quadratic or x.shape[0] < 2 * x.shape[1] + 3:
        return linear
    quadratic = _fit_ols(x, y, 2, feature_names)
    if quadratic.adjusted_r2 > linear.adjusted_r2 + QUADRATIC_PREFERENCE_MARGIN:
        return quadratic
    return linear


def fit_proportional(x: ArrayLike, y: ArrayLike, feature_names: Tuple[str, ...] = ()) -> RegressionModel:
    """Fit a through-origin model on the *first* feature only.

    A last-resort fallback for heavy op types with too few instances for a
    full OLS fit (e.g. LRN, which appears only twice per network): compute
    time is taken proportional to input size, the dominant first-order
    behaviour of every heavy kernel (paper, Section III-C).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if x.shape[0] < 1:
        raise ModelingError("need at least one observation for a proportional fit")
    x1 = x[:, 0]
    denom = float(x1 @ x1)
    if denom <= 0:
        raise ModelingError("proportional fit needs a positive first feature")
    slope = float(x1 @ y) / denom
    predicted = slope * x1
    ss_res = float(((y - predicted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    coef = (slope,) + (0.0,) * (x.shape[1] - 1)
    return RegressionModel(
        degree=1, intercept=0.0, coef=coef, r2=r2, adjusted_r2=r2,
        n_train=x.shape[0], feature_names=feature_names,
        clip_max=float(EXTRAPOLATION_CLIP_FACTOR * y.max()),
    )


def mean_absolute_percentage_error(observed: ArrayLike, predicted: ArrayLike) -> float:
    """MAPE in [0, inf): mean of |pred - obs| / obs."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.shape != predicted.shape:
        raise ModelingError("observed and predicted must have the same shape")
    if np.any(observed <= 0):
        raise ModelingError("MAPE requires strictly positive observed values")
    return float(np.mean(np.abs(predicted - observed) / observed))


def r_squared(observed: ArrayLike, predicted: ArrayLike) -> float:
    """Out-of-sample R² of predictions against observations."""
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    ss_res = float(((observed - predicted) ** 2).sum())
    ss_tot = float(((observed - observed.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
