"""Tests for graph compilation and the one Eq. (2) kernel it feeds.

The load-bearing property: for every zoo model on every GPU key, with and
without ``heavy_only``, the stacked kernel
(:func:`~repro.core.batch.evaluate_compiled_batch_us`, which a single
``predict_training`` slices) must match the scalar per-op oracle in
``tests/oracle.py`` within 1e-9 relative tolerance — on zoo graphs and on
random ones, raising the same error whenever the oracle does.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch import StackedOpModels, evaluate_compiled_batch_us
from repro.core.classify import classify_operations
from repro.core.engine import PredictionEngine, compile_graph
from repro.core.estimator import CeerEstimator
from repro.core.op_models import fit_compute_models
from repro.errors import UnseenOperationError
from repro.graph.graph import OpGraph
from repro.graph.ops import Operation
from repro.graph.shapes import TensorShape
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import build_model, model_names
from tests.oracle import REL_TOL, kernel_us, oracle_graph_us, oracle_op_us
from tests.test_property_random_models import _architectures, _build_random


@pytest.fixture(scope="module")
def compute_models(train_profiles_small):
    classification = classify_operations(train_profiles_small)
    return fit_compute_models(train_profiles_small, classification)


@pytest.fixture(scope="module")
def strict_models(train_profiles_small):
    classification = classify_operations(train_profiles_small)
    return fit_compute_models(
        train_profiles_small, classification, strict_unseen=True
    )


def unseen_op(name="x/Tanh"):
    """A GPU op whose type never appears in training profiles."""
    return Operation(
        name=name, op_type="Tanh",
        inputs=(TensorShape.of(4, 4),), outputs=(TensorShape.of(4, 4),),
    )


def graph_with_unseen_op(batch_size=4):
    graph = OpGraph(name="unseen", batch_size=batch_size)
    graph.add(unseen_op())
    return graph


class TestScalarEquivalence:
    @pytest.mark.parametrize("model_name", model_names())
    def test_full_zoo_all_gpus_all_flags(self, model_name, compute_models):
        """The zoo x GPU x heavy_only equivalence property, for the
        one-GPU slice and for every GPU stacked at once."""
        graph = build_model(model_name, batch_size=32)
        compiled = compile_graph(graph, compute_models)
        stacked = StackedOpModels(compute_models)
        for heavy_only in (False, True):
            all_gpus = stacked.totals_us(compiled, GPU_KEYS, heavy_only)
            for g, gpu_key in enumerate(GPU_KEYS):
                oracle = oracle_graph_us(
                    compute_models, graph, gpu_key, heavy_only=heavy_only
                )
                one_gpu = stacked.totals_us(compiled, (gpu_key,), heavy_only)[0]
                for got in (one_gpu, all_gpus[g]):
                    assert got == pytest.approx(oracle, rel=REL_TOL), (
                        model_name, gpu_key, heavy_only,
                    )

    def test_matches_per_op_scalar_sum(self, compute_models, tiny_graph):
        manual = sum(
            oracle_op_us(compute_models, op, "T4") for op in tiny_graph
        )
        assert kernel_us(compute_models, tiny_graph, "T4") == pytest.approx(
            manual, rel=REL_TOL
        )

    def test_unseen_op_fallback_matches_scalar(self, compute_models):
        """Non-strict: unseen GPU ops cost the light median in both paths."""
        graph = graph_with_unseen_op()
        scalar = oracle_graph_us(compute_models, graph, "V100")
        assert kernel_us(compute_models, graph, "V100") == pytest.approx(scalar)
        assert scalar == pytest.approx(compute_models.light_median_us)
        # ... and are dropped (not raised on) under heavy_only.
        assert kernel_us(
            compute_models, graph, "V100", heavy_only=True
        ) == oracle_graph_us(compute_models, graph, "V100", heavy_only=True)

    def test_strict_unseen_raises_in_both_paths(self, strict_models):
        """Strict mode raises identically — including under heavy_only,
        which would otherwise discard the op's contribution."""
        graph = graph_with_unseen_op()
        for heavy_only in (False, True):
            with pytest.raises(UnseenOperationError):
                oracle_graph_us(strict_models, graph, "V100", heavy_only)
            with pytest.raises(UnseenOperationError):
                kernel_us(strict_models, graph, "V100", heavy_only)


def _outcome(fn):
    """A call's value, or the identity of the UnseenOperationError it raised."""
    try:
        return "value", fn()
    except UnseenOperationError as exc:
        return "raised", (exc.op_type, exc.device)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_architectures, st.booleans(), st.sampled_from(GPU_KEYS), st.booleans())
def test_random_graphs_kernel_matches_oracle(
    compute_models, strict_models, layers, add_unseen, gpu_key, heavy_only
):
    """On random CNNs the kernel equals the oracle within 1e-9; under
    ``strict_unseen`` both raise the same UnseenOperationError."""
    graph = _build_random(layers)
    if add_unseen:
        graph.add(unseen_op("random/extra/Tanh"))
    for models in (compute_models, strict_models):
        kind, got = _outcome(lambda: kernel_us(models, graph, gpu_key, heavy_only))
        want_kind, want = _outcome(
            lambda: oracle_graph_us(models, graph, gpu_key, heavy_only)
        )
        assert kind == want_kind
        if kind == "raised":
            assert got == want
        else:
            assert got == pytest.approx(want, rel=REL_TOL)
        if add_unseen and models.strict_unseen:
            assert kind == "raised"


class TestCompiledGraph:
    def test_partition_covers_every_op(self, compute_models):
        graph = build_model("inception_v1", batch_size=32)
        compiled = compile_graph(graph, compute_models)
        assert (
            compiled.n_heavy + compiled.n_light + compiled.n_cpu
            + compiled.n_unseen
        ) == len(graph)
        assert compiled.num_ops == len(graph)
        assert compiled.num_parameters == graph.num_parameters
        assert compiled.n_unseen == 0

    def test_feature_matrices_match_schema(self, compute_models):
        from repro.profiling.features import feature_schema

        graph = build_model("alexnet", batch_size=32)
        compiled = compile_graph(graph, compute_models)
        for op_type, x in compiled.heavy_features.items():
            assert x.ndim == 2
            assert x.shape[0] == len(
                [op for op in graph.ops_of_type(op_type)]
            )
            assert x.shape[1] == len(feature_schema(op_type))

    def test_unseen_types_recorded(self, compute_models):
        compiled = compile_graph(graph_with_unseen_op(), compute_models)
        assert compiled.n_unseen == 1
        assert compiled.unseen_types == ("Tanh",)
        assert evaluate_compiled_batch_us(
            compiled, StackedOpModels(compute_models), ("V100",)
        )[0] == pytest.approx(compute_models.light_median_us)


class TestEngineCaching:
    def test_graph_memoized_by_name_and_batch(self, compute_models):
        engine = PredictionEngine(compute_models)
        g1 = engine.resolve_graph("alexnet", 32)
        g2 = engine.resolve_graph("alexnet", 32)
        assert g1 is g2
        assert engine.stats["graph_hits"] == 1
        assert engine.resolve_graph("alexnet", 16) is not g1

    def test_compilation_happens_once_per_graph(self, fitted_small):
        est = CeerEstimator(
            fitted_small.estimator.compute_models,
            fitted_small.estimator.comm_model,
        )
        graph = build_model("inception_v1", batch_size=32)
        for gpu_key in GPU_KEYS:
            est.predict_iteration_us(graph, gpu_key, 1, batch_size=32)
        assert est.engine.stats["compile_misses"] == 1
        assert est.engine.stats["compile_hits"] == len(GPU_KEYS) - 1

    def test_totals_cached_per_gpu_and_flags(self, compute_models):
        stacked = StackedOpModels(compute_models)
        compiled = compile_graph(build_model("alexnet", batch_size=32), compute_models)
        first = stacked.totals_us(compiled, ("T4",))
        assert stacked.totals_us(compiled, ("T4",)) is first  # cache hit
        # heavy_only is a distinct cache line, not a stale hit.
        heavy = stacked.totals_us(compiled, ("T4",), heavy_only=True)
        assert heavy is not first
        assert heavy[0] < first[0]

    def test_lru_eviction_bounds_memory(self, compute_models):
        engine = PredictionEngine(
            compute_models, graph_cache_size=2, compiled_cache_size=2
        )
        for name in ("alexnet", "vgg_11", "inception_v1"):
            engine.compile(name)
        info = engine.cache_info()
        assert info["graphs_cached"] == 2
        assert info["compiled_cached"] == 2

    def test_clear_resets(self, compute_models):
        engine = PredictionEngine(compute_models)
        engine.compile("alexnet")
        engine.clear()
        info = engine.cache_info()
        assert info["graphs_cached"] == 0
        assert info["compiled_cached"] == 0
        assert info["compile_misses"] == 0


class TestEstimatorIntegration:
    def test_estimator_engine_matches_scalar_reference(self, fitted_small):
        est = fitted_small.estimator
        graph = build_model("inception_v3", batch_size=32)
        for gpu_key in GPU_KEYS:
            oracle = oracle_graph_us(
                est.compute_models, graph, gpu_key
            ) + est.comm_model.predict_us(gpu_key, 2, graph.num_parameters)
            assert est.predict_iteration_us(
                "inception_v3", gpu_key, 2
            ) == pytest.approx(oracle, rel=REL_TOL)

    def test_sweep_reuses_one_compilation(self, fitted_small):
        from repro.core.recommend import Recommender
        from repro.workloads.dataset import IMAGENET_6400, TrainingJob

        est = fitted_small.estimator
        est.engine.clear()
        recommender = Recommender(est)
        predictions = recommender.sweep(
            "inception_v3", TrainingJob(IMAGENET_6400, batch_size=32)
        )
        assert len(predictions) == 16
        info = est.engine.cache_info()
        assert info["compile_misses"] == 1
