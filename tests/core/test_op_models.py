"""Tests for the fitted per-op compute-time models.

Per-op semantics (paper, Section IV-B) are checked on what the package
actually predicts: the Eq. (2) kernel over graphs of a few ops.
"""

from dataclasses import replace

import pytest

from repro.errors import ModelingError, UnseenOperationError
from repro.core.classify import classify_operations
from repro.core.engine import compile_graph
from repro.core.op_models import fit_compute_models
from repro.graph.graph import OpGraph
from repro.graph.ops import Operation
from repro.graph.shapes import TensorShape
from repro.models import build_model
from repro.profiling.records import ProfileDataset
from tests.oracle import kernel_us, oracle_op_us


@pytest.fixture(scope="module")
def compute_models(train_profiles_small):
    classification = classify_operations(train_profiles_small)
    return fit_compute_models(train_profiles_small, classification)


class TestFit:
    def test_models_for_every_heavy_type_on_every_gpu(self, compute_models):
        for gpu in ("V100", "K80", "T4", "M60"):
            for op_type in compute_models.classification.heavy:
                assert (gpu, op_type) in compute_models.heavy_models, (gpu, op_type)

    def test_paper_r2_band(self, compute_models):
        """Section IV-B: training R^2 from 0.84 to 0.98 (ours skews a bit
        higher; assert the same qualitative band)."""
        r2s = list(compute_models.train_r2.values())
        assert min(r2s) > 0.80
        assert sum(r2s) / len(r2s) > 0.95

    def test_medians_positive_and_ordered(self, compute_models):
        assert 0 < compute_models.light_median_us < 500
        assert compute_models.cpu_median_us > compute_models.light_median_us

    def test_empty_profiles_rejected(self, train_profiles_small):
        classification = classify_operations(train_profiles_small)
        with pytest.raises(ModelingError):
            fit_compute_models(ProfileDataset([]), classification)


def predicted_us(models, ops, gpu_key, heavy_only=False):
    """What the package predicts for ``ops`` on ``gpu_key``: the one-GPU
    slice of the Eq. (2) kernel over a graph holding just those ops."""
    if isinstance(ops, OpGraph):
        graph = ops
    else:
        graph = OpGraph(name="ops", batch_size=4)
        for op in ops:
            graph.add(replace(op, input_ops=()))
    return kernel_us(models, graph, gpu_key, heavy_only)


PAD = Operation(
    name="x/Pad", op_type="Pad",
    inputs=(TensorShape.of(4, 4),), outputs=(TensorShape.of(4, 4),),
)


class TestPredictOp:
    def test_heavy_prediction_near_truth(self, compute_models):
        """Predictions for a held-out model's convolutions track the
        simulated ground truth within the paper's 2-10% band."""
        from repro.hardware.kernel_model import base_time_us

        graph = build_model("resnet_101", batch_size=32)
        convs = graph.ops_of_type("Conv2D")[:20]
        errors = []
        for op in convs:
            predicted = predicted_us(compute_models, [op], "T4")
            truth = base_time_us(op, "T4")
            errors.append(abs(predicted - truth) / truth)
        assert sum(errors) / len(errors) < 0.12

    def test_light_uses_global_median(self, compute_models):
        op = Operation(
            name="x/Reshape", op_type="Reshape",
            inputs=(TensorShape.of(4, 4),), outputs=(TensorShape.of(16),),
        )
        assert predicted_us(compute_models, [op], "V100") == compute_models.light_median_us
        # GPU-oblivious (paper, Section IV-B)
        assert predicted_us(compute_models, [op], "K80") == compute_models.light_median_us

    def test_cpu_uses_cpu_median(self, compute_models):
        op = Operation(
            name="x/SparseToDense", op_type="SparseToDense",
            inputs=(TensorShape.of(4, dtype="int64"),),
            outputs=(TensorShape.of(4, dtype="int64"),),
        )
        assert predicted_us(compute_models, [op], "V100") == compute_models.cpu_median_us

    def test_unseen_type_falls_back_to_light_median(self, compute_models):
        assert predicted_us(compute_models, [PAD], "V100") == compute_models.light_median_us

    def test_strict_mode_raises_on_unseen(self, train_profiles_small):
        classification = classify_operations(train_profiles_small)
        models = fit_compute_models(
            train_profiles_small, classification, strict_unseen=True
        )
        with pytest.raises(UnseenOperationError):
            predicted_us(models, [PAD], "V100")


class TestPredictGraph:
    def test_sum_over_ops(self, compute_models, tiny_graph):
        total = predicted_us(compute_models, tiny_graph, "V100")
        manual = sum(
            oracle_op_us(compute_models, op, "V100") for op in tiny_graph
        )
        assert total == pytest.approx(manual)

    def test_heavy_only_drops_light_and_cpu(self, compute_models, tiny_graph):
        full = predicted_us(compute_models, tiny_graph, "V100")
        heavy = predicted_us(compute_models, tiny_graph, "V100", heavy_only=True)
        assert heavy < full

    def test_include_flags(self, compute_models, tiny_graph):
        """heavy_only drops exactly the light and CPU median terms."""
        compiled = compile_graph(tiny_graph, compute_models)
        assert compiled.n_light and compiled.n_cpu
        full = predicted_us(compute_models, tiny_graph, "V100")
        heavy = predicted_us(compute_models, tiny_graph, "V100", heavy_only=True)
        assert full - heavy == pytest.approx(
            compiled.n_light * compute_models.light_median_us
            + compiled.n_cpu * compute_models.cpu_median_us
        )

    def _unseen_graph(self):
        graph = OpGraph(name="unseen", batch_size=4)
        graph.add(PAD)
        return graph

    def test_unseen_op_costs_light_median_when_lenient(self, compute_models):
        graph = self._unseen_graph()
        total = predicted_us(compute_models, graph, "V100")
        assert total == pytest.approx(compute_models.light_median_us)
        # ... and contributes nothing once light ops are excluded.
        assert predicted_us(compute_models, graph, "V100", heavy_only=True) == 0.0

    def test_strict_unseen_raises_even_under_heavy_only(self, train_profiles_small):
        """The unseen-op policy is flag-independent: strict mode must not
        silently skip an unseen GPU op just because heavy_only discards
        its light-median contribution."""
        classification = classify_operations(train_profiles_small)
        strict = fit_compute_models(
            train_profiles_small, classification, strict_unseen=True
        )
        graph = self._unseen_graph()
        for heavy_only in (False, True):
            with pytest.raises(UnseenOperationError):
                predicted_us(strict, graph, "V100", heavy_only=heavy_only)


class TestProportionalFallbackSurfacing:
    """A fit must say — not silently decide — which cells got the
    proportional fallback (LRN-style op types with too few rows)."""

    @pytest.fixture(scope="class")
    def sparse_profiles(self):
        from repro.profiling.profiler import Profiler

        # inception_v1 carries exactly two LRN (and two LRNGrad) ops, so
        # profiling it alone leaves those cells short of the rows a full
        # OLS fit needs (len(schema) + 2) on every GPU.
        return Profiler(n_iterations=20).profile_many(
            ["inception_v1"], ["V100", "T4"]
        )

    def test_fallback_cells_listed_in_fit(self, sparse_profiles):
        classification = classify_operations(sparse_profiles)
        models = fit_compute_models(sparse_profiles, classification)
        assert models.proportional_fallbacks == (
            ("T4", "LRN"), ("T4", "LRNGrad"),
            ("V100", "LRN"), ("V100", "LRNGrad"),
        )

    def test_fallback_counter_increments(self, sparse_profiles):
        from repro.obs.metrics import default_registry

        classification = classify_operations(sparse_profiles)
        counter = default_registry().counter("fit.proportional_fallbacks")
        before = counter.value
        models = fit_compute_models(sparse_profiles, classification)
        assert counter.value - before == len(models.proportional_fallbacks) == 4

    def test_fallback_cells_reach_diagnostics(self):
        from repro.core.fit import fit_ceer
        from repro.profiling.profiler import Profiler

        # Three CNNs (the comm model's minimum), only one of which has
        # LRN ops — the LRN cells still lack rows for a full OLS fit.
        models = ("vgg_11", "inception_v1", "resnet_50")
        profiles = Profiler(n_iterations=20).profile_many(
            list(models), ["V100", "T4"]
        )
        fitted = fit_ceer(
            train_models=models, gpu_keys=("V100", "T4"),
            n_iterations=20, gpu_counts=(1,),
            train_profiles=profiles,
        )
        diagnostics = fitted.diagnostics
        assert diagnostics.proportional_fallbacks == (
            ("T4", "LRN"), ("T4", "LRNGrad"),
            ("V100", "LRN"), ("V100", "LRNGrad"),
        )
        assert "proportional fallback" in diagnostics.summary()

    def test_full_training_set_has_no_lrn_fallback_shortage(
        self, train_profiles_small, compute_models
    ):
        """With all 8 training CNNs the LRN cells still fall back — the
        training set simply has too few LRN instances; the point of the
        surfacing is that this is now visible."""
        assert all(
            op_type in ("LRN", "LRNGrad")
            for _, op_type in compute_models.proportional_fallbacks
        )
