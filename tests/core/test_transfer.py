"""Cross-hardware transfer backend: pooled fits, LOGO, spec-only GPUs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.catalog import admit_gpu, admitted_gpu_keys, clear_admitted
from repro.core.classify import classify_operations
from repro.core.batch import SweepPlan, evaluate_sweep
from repro.core.fit import fit_ceer
from repro.core.transfer import (
    REFERENCE_TRANSFER_GPU,
    device_features,
    fit_transfer_models,
    fit_transfer_op,
    logo_report,
)
from repro.errors import ModelingError
from repro.hardware.gpus import GPU_KEYS, GpuSpec, gpu_spec
from repro.models.zoo import TRAIN_MODELS
from repro.profiling.features import feature_schema
from repro.workloads.dataset import DatasetSpec, TrainingJob

ITERATIONS = 30


@pytest.fixture(scope="module")
def transfer_profiles():
    from repro.profiling.profiler import Profiler

    profiler = Profiler(n_iterations=ITERATIONS)
    return profiler.profile_many(list(TRAIN_MODELS[:4]), list(GPU_KEYS))


@pytest.fixture(scope="module")
def transfer_fitted(transfer_profiles):
    return fit_ceer(
        train_models=TRAIN_MODELS[:4],
        n_iterations=ITERATIONS,
        gpu_counts=(1, 2),
        train_profiles=transfer_profiles,
        backend="transfer",
    )


@pytest.fixture(scope="module")
def transfer_models(transfer_profiles):
    classification = classify_operations(transfer_profiles)
    return fit_transfer_models(transfer_profiles, classification)


def _spec_only_gpu(key: str = "XGPU") -> GpuSpec:
    """A plausible never-profiled GPU between the T4 and the V100."""
    return GpuSpec(
        key=key, family="GX", marketing_name="Spec-Only Test GPU",
        cuda_cores=4096, tensor_cores=256, memory_gb=24,
        peak_gflops=12000.0, memory_bandwidth_gbps=600.0,
        launch_overhead_us=4.0, saturation_elements=1.0e6,
        comm_base_us=4000.0, comm_us_per_mparam=300.0,
    )


@pytest.fixture
def admitted_gpu():
    spec = _spec_only_gpu()
    admit_gpu(spec, usd_per_hr=2.0, max_gpus=4)
    yield spec
    clear_admitted(spec.key)


# ----------------------------------------------------------------------
# device features and collapse
# ----------------------------------------------------------------------

def test_reference_device_features_are_unity():
    ref = gpu_spec(REFERENCE_TRANSFER_GPU)
    assert device_features(ref, ref) == (1.0, 1.0)


def test_slower_device_has_larger_features():
    ref = gpu_spec("V100")
    d0, d1 = device_features(gpu_spec("K80"), ref)
    assert d0 > 1.0 and d1 > 1.0


def test_device_features_reject_nonpositive_spec():
    import dataclasses

    bad = dataclasses.replace(_spec_only_gpu(), peak_gflops=0.0)
    with pytest.raises(ModelingError):
        device_features(bad, gpu_spec("V100"))


def test_collapse_matches_manual_formula(transfer_models):
    """collapse() must equal the documented coefficient arithmetic."""
    spec = gpu_spec("T4")
    ref = gpu_spec(REFERENCE_TRANSFER_GPU)
    d0, d1 = device_features(spec, ref)
    for op_type, model in transfer_models.models.items():
        collapsed = model.collapse(spec, ref)
        assert collapsed.degree == model.degree
        assert collapsed.feature_names == model.feature_names
        assert collapsed.clip_max == model.clip_max
        e0, e1 = model.interaction_coef
        expected_coef = tuple(
            c + d0 * a + d1 * b for c, a, b in zip(model.size_coef, e0, e1)
        )
        assert collapsed.coef == pytest.approx(expected_coef, abs=0.0)
        assert collapsed.intercept == pytest.approx(
            model.intercept + d0 * model.device_coef[0]
            + d1 * model.device_coef[1],
            abs=0.0,
        )


def test_collapse_for_unknown_op_type_is_none(transfer_models):
    assert transfer_models.collapse("V100", "NoSuchOp") is None


def test_proportional_fallback_collapses_to_through_origin():
    schema = feature_schema("Conv2D")
    n_features = len(schema)
    rows = [[float(i + 1)] + [1.0] * (n_features - 1) for i in range(3)]
    targets = [10.0, 20.0, 30.0]
    devices = [(1.0, 1.0)] * 3
    model = fit_transfer_op("Conv2D", rows, targets, devices, schema)
    assert model.proportional
    assert model.intercept == 0.0
    collapsed = model.collapse(
        gpu_spec("K80"), gpu_spec(REFERENCE_TRANSFER_GPU)
    )
    assert collapsed.intercept == 0.0
    d0, _ = device_features(gpu_spec("K80"), gpu_spec(REFERENCE_TRANSFER_GPU))
    assert collapsed.coef[0] == pytest.approx(
        model.interaction_coef[0][0] * d0, abs=0.0
    )
    assert all(c == 0.0 for c in collapsed.coef[1:])


# ----------------------------------------------------------------------
# leave-one-GPU-out report
# ----------------------------------------------------------------------

def test_logo_covers_every_profiled_gpu(transfer_profiles):
    classification = classify_operations(transfer_profiles)
    report = logo_report(transfer_profiles, classification)
    assert sorted(f.gpu_key for f in report.folds) == sorted(GPU_KEYS)
    for fold in report.folds:
        assert fold.n_rows > 0
        assert fold.n_op_types > 0
        assert np.isfinite(fold.transfer_mape) and fold.transfer_mape > 0
        assert np.isfinite(fold.per_gpu_mape) and fold.per_gpu_mape > 0
        # Out-of-sample transfer cannot beat the in-sample paper fit by
        # construction of the comparison; sanity-check the ordering.
        assert fold.transfer_mape >= fold.per_gpu_mape


def test_logo_requires_two_gpus(transfer_profiles):
    classification = classify_operations(transfer_profiles)
    only_v100 = transfer_profiles.filter(lambda r: r.gpu_key == "V100")
    with pytest.raises(ModelingError):
        logo_report(only_v100, classification)


# ----------------------------------------------------------------------
# transfer backend through the estimator stack
# ----------------------------------------------------------------------

def test_transfer_backend_prices_all_builtin_gpus(transfer_fitted):
    estimator = transfer_fitted.estimator
    assert estimator.compute_models.backend == "transfer"
    assert not estimator.compute_models.heavy_models
    for gpu_key in GPU_KEYS:
        t = estimator.predict_iteration_us("resnet_50", gpu_key, 1)
        assert np.isfinite(t) and t > 0


def test_transfer_backend_close_to_per_gpu(transfer_profiles, transfer_fitted):
    """Pooled fits track the paper's per-GPU fits on profiled devices."""
    per_gpu = fit_ceer(
        train_models=TRAIN_MODELS[:4], n_iterations=ITERATIONS,
        gpu_counts=(1, 2), train_profiles=transfer_profiles,
    )
    for gpu_key in GPU_KEYS:
        a = transfer_fitted.estimator.predict_iteration_us("vgg_11", gpu_key, 1)
        b = per_gpu.estimator.predict_iteration_us("vgg_11", gpu_key, 1)
        assert a == pytest.approx(b, rel=0.6)


def test_transfer_prediction_carries_uncertainty(transfer_fitted):
    estimator = transfer_fitted.estimator
    assert estimator.compute_models.heavy_std_us
    job = TrainingJob(DatasetSpec("t", num_samples=64_000), batch_size=32)
    prediction = estimator.predict_training("resnet_50", "T4", 2, job)
    assert prediction.compute_std_us > 0
    assert prediction.total_std_hours > 0
    assert prediction.cost_std_dollars > 0
    # sigma scales linearly with iteration count
    assert prediction.total_std_us == pytest.approx(
        prediction.compute_std_us * prediction.iterations
    )


def test_per_gpu_prediction_has_zero_uncertainty(ceer_small):
    job = TrainingJob(DatasetSpec("t", num_samples=64_000), batch_size=32)
    prediction = ceer_small.predict_training("resnet_50", "T4", 2, job)
    assert prediction.compute_std_us == 0.0
    assert prediction.total_std_hours == 0.0
    assert prediction.cost_std_dollars == 0.0


# ----------------------------------------------------------------------
# spec-only GPUs end to end
# ----------------------------------------------------------------------

def test_spec_only_gpu_end_to_end(transfer_fitted, admitted_gpu):
    estimator = transfer_fitted.estimator
    assert estimator.compute_models.supports_gpu(admitted_gpu.key)
    job = TrainingJob(DatasetSpec("t", num_samples=64_000), batch_size=32)
    prediction = estimator.predict_training(
        "resnet_50", admitted_gpu.key, 2, job
    )
    assert np.isfinite(prediction.total_hours) and prediction.total_hours > 0
    assert np.isfinite(prediction.cost_dollars) and prediction.cost_dollars > 0
    assert prediction.compute_std_us > 0

    plan = SweepPlan.full_catalog(
        batch_sizes=(32,), gpu_keys=tuple(GPU_KEYS) + (admitted_gpu.key,)
    )
    result = evaluate_sweep(estimator, "resnet_50", job, plan)
    assert result.compute_std_us > 0
    swept_keys = {p.gpu_key for p in result.predictions()}
    assert admitted_gpu.key in swept_keys
    frontier = result.frontier()
    assert frontier
    admitted_points = [
        p for p in result.predictions() if p.gpu_key == admitted_gpu.key
    ]
    assert admitted_points
    for p in admitted_points:
        assert np.isfinite(p.total_us) and p.total_us > 0
        assert np.isfinite(p.cost_dollars) and p.cost_dollars > 0


def test_per_gpu_backend_rejects_spec_only_gpu(ceer_small, admitted_gpu):
    assert not ceer_small.compute_models.supports_gpu(admitted_gpu.key)


def test_admitted_keys_are_tracked(admitted_gpu):
    assert admitted_gpu.key in admitted_gpu_keys()
