"""Tests for the batched catalog sweep (repro.core.batch).

The load-bearing contract is numerical equivalence: the tensor path must
reproduce the scalar per-op oracle (``tests/oracle.py``), one candidate at
a time, to rel diff < 1e-9. Everything else — masking, candidate
ordering, the frontier, the plan's validation — is checked against the
same oracle.
"""

import numpy as np
import pytest

from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND, SPOT
from repro.core.batch import (
    DEFAULT_SWEEP_BATCH_SIZES,
    DEFAULT_SWEEP_PRICINGS,
    StackedOpModels,
    SweepPlan,
    evaluate_sweep,
)
from repro.core.estimator import CeerEstimator
from repro.core.pareto import pareto_frontier
from repro.errors import CatalogError, ModelingError, UnseenOperationError
from repro.graph.graph import OpGraph
from repro.models.zoo import model_names
from repro.workloads.dataset import IMAGENET_6400, TrainingJob
from tests.oracle import REL_TOL as EQUIVALENCE_BOUND
from tests.oracle import oracle_graph_us, oracle_sweep

JOB = TrainingJob(IMAGENET_6400, batch_size=32)

#: A small but fully-representative plan: both axes extend past the
#: paper's grid (k=6 forces a proxy of the 8-GPU hosts and masks M60),
#: two batch sizes, and all three pricing tiers.
SMALL_PLAN_KWARGS = dict(
    gpu_counts=(1, 2, 6), batch_sizes=(16, 32),
    pricings=(ON_DEMAND, SPOT, MARKET_RATIO),
)


def _assert_equivalent(result, reference):
    """Batched result vs oracle predictions: same candidates,
    same numbers (rel diff < 1e-9 on time and cost)."""
    cells = list(result.iter_candidates())
    assert len(cells) == len(reference) == result.n_candidates
    for cell, ref in zip(cells, reference):
        got = result.prediction(*cell)
        assert got.instance_name == ref.instance_name
        assert got.gpu_key == ref.gpu_key
        assert got.num_gpus == ref.num_gpus
        assert got.batch_size == ref.batch_size
        assert got.total_us == pytest.approx(ref.total_us, rel=EQUIVALENCE_BOUND)
        assert got.cost_dollars == pytest.approx(
            ref.cost_dollars, rel=EQUIVALENCE_BOUND
        )


class TestEquivalence:
    def test_zoo_wide_small_plan(self, ceer_small):
        plan = SweepPlan(**SMALL_PLAN_KWARGS)
        for name in model_names():
            result = evaluate_sweep(ceer_small, name, JOB, plan)
            reference = oracle_sweep(ceer_small, name, JOB, plan)
            _assert_equivalent(result, reference)

    def test_full_catalog_inception(self, ceer_small):
        plan = SweepPlan.full_catalog()
        result = evaluate_sweep(ceer_small, "inception_v3", JOB, plan)
        reference = oracle_sweep(
            ceer_small, "inception_v3", JOB, plan
        )
        _assert_equivalent(result, reference)

    @pytest.mark.parametrize(
        "flags",
        [{"heavy_only": True}, {"include_communication": False}],
        ids=["heavy_only", "no_comm"],
    )
    def test_ablation_flags(self, ceer_small, flags):
        ablated = CeerEstimator(
            ceer_small.compute_models, ceer_small.comm_model, **flags
        )
        plan = SweepPlan(**SMALL_PLAN_KWARGS)
        result = evaluate_sweep(ablated, "resnet_101", JOB, plan)
        reference = oracle_sweep(ablated, "resnet_101", JOB, plan)
        _assert_equivalent(result, reference)

    def test_repeated_sweep_served_from_caches_identically(self, ceer_small):
        plan = SweepPlan(**SMALL_PLAN_KWARGS)
        first = evaluate_sweep(ceer_small, "vgg_19", JOB, plan)
        second = evaluate_sweep(ceer_small, "vgg_19", JOB, plan)
        np.testing.assert_array_equal(first.total_us, second.total_us)
        np.testing.assert_array_equal(first.cost_usd, second.cost_usd)

    def test_prebuilt_graph(self, ceer_small, tiny_graph):
        plan = SweepPlan(batch_sizes=(tiny_graph.batch_size,))
        job = TrainingJob(IMAGENET_6400, batch_size=tiny_graph.batch_size)
        result = evaluate_sweep(ceer_small, tiny_graph, job, plan)
        reference = oracle_sweep(ceer_small, tiny_graph, job, plan)
        _assert_equivalent(result, reference)


class TestMasking:
    def test_unpriceable_cells_masked_not_failed(self, ceer_small):
        """k=16 exists only for K80; other GPUs mask, none raise."""
        plan = SweepPlan(gpu_counts=(1, 16), batch_sizes=(32,))
        result = evaluate_sweep(ceer_small, "alexnet", JOB, plan)
        k16 = plan.gpu_counts.index(16)
        for g, gpu_key in enumerate(plan.gpu_keys):
            assert result.valid(0, g, 0)  # k=1 always priceable
            assert result.valid(0, g, k16) == (gpu_key == "K80")
        g_v100 = plan.gpu_keys.index("V100")
        assert np.isnan(result.usd_per_hr[0, g_v100, k16])
        assert np.isnan(result.cost_usd[0, g_v100, k16, 0])
        with pytest.raises(CatalogError):
            result.prediction(0, g_v100, k16, 0)

    def test_masked_cells_match_reference_skips(self, ceer_small):
        plan = SweepPlan(gpu_counts=(1, 16), batch_sizes=(32,))
        result = evaluate_sweep(ceer_small, "alexnet", JOB, plan)
        reference = oracle_sweep(ceer_small, "alexnet", JOB, plan)
        _assert_equivalent(result, reference)

    def test_time_tensor_is_never_masked(self, ceer_small):
        """Eq. (2) time is pricing-free, so it fills even masked cells."""
        plan = SweepPlan(gpu_counts=(1, 16), batch_sizes=(32,))
        result = evaluate_sweep(ceer_small, "alexnet", JOB, plan)
        assert np.isfinite(result.total_us).all()


class TestStacking:
    def test_totals_match_scalar_per_gpu(self, ceer_small, tiny_graph):
        """The stacked (G,) vector equals G independent scalar evals."""
        from repro.core.engine import compile_graph

        models = ceer_small.compute_models
        stacked = StackedOpModels(models)
        compiled = compile_graph(tiny_graph, models)
        gpu_keys = ("V100", "K80", "T4", "M60")
        totals = stacked.totals_us(compiled, gpu_keys)
        for g, gpu_key in enumerate(gpu_keys):
            assert totals[g] == pytest.approx(
                oracle_graph_us(models, tiny_graph, gpu_key),
                rel=EQUIVALENCE_BOUND,
            )

    def test_unknown_op_type_raises_unseen(self, ceer_small):
        stacked = StackedOpModels(ceer_small.compute_models)
        with pytest.raises(UnseenOperationError):
            stacked.for_type(("V100",), "NoSuchOp", 3)

    def test_stacked_arrays_cached(self, ceer_small):
        stacked = StackedOpModels(ceer_small.compute_models)
        gpu_keys = ("V100", "K80")
        # Derive a real (op type, feature count) from the fitted models.
        (_, op_type), op_model = next(
            iter(ceer_small.compute_models.heavy_models.items())
        )
        regression = op_model.regression
        n = len(regression.coef) // 2 if regression.degree == 2 else len(regression.coef)
        first = stacked.for_type(gpu_keys, op_type, n)
        assert stacked.for_type(gpu_keys, op_type, n) is first


class TestSweepPlan:
    def test_empty_axis_rejected(self):
        for kwargs in (
            {"gpu_keys": ()}, {"gpu_counts": ()},
            {"batch_sizes": ()}, {"pricings": ()},
        ):
            with pytest.raises(ModelingError):
                SweepPlan(**kwargs)

    def test_non_positive_values_rejected(self):
        with pytest.raises(ModelingError):
            SweepPlan(gpu_counts=(1, 0))
        with pytest.raises(ModelingError):
            SweepPlan(batch_sizes=(32, -1))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ModelingError):
            SweepPlan(gpu_counts=(1, 2, 2))
        with pytest.raises(ModelingError):
            SweepPlan(batch_sizes=(32, 32))

    def test_family_aliases_canonicalised_before_duplicate_check(self):
        """Regression: ("V100", "P3") name one GPU twice and used to sweep
        every V100 candidate twice."""
        assert SweepPlan(gpu_keys=("P3", "G4")).gpu_keys == ("V100", "T4")
        with pytest.raises(ModelingError, match="duplicates"):
            SweepPlan(gpu_keys=("V100", "P3"))

    def test_recommender_rejects_alias_duplicates(self, ceer_small):
        from repro.core.recommend import Recommender

        with pytest.raises(ModelingError, match="duplicates"):
            Recommender(ceer_small, gpu_keys=("V100", "P3")).sweep(
                "alexnet", JOB
            )

    def test_full_catalog_spans_grown_menu(self):
        plan = SweepPlan.full_catalog()
        assert plan.gpu_counts == tuple(range(1, 17))  # K80 goes to 16
        assert plan.batch_sizes == DEFAULT_SWEEP_BATCH_SIZES
        assert len(plan.pricings) == len(DEFAULT_SWEEP_PRICINGS)

    def test_full_catalog_prices_1000_plus_candidates(self, ceer_small):
        result = evaluate_sweep(
            ceer_small, "alexnet", JOB, SweepPlan.full_catalog()
        )
        assert result.n_candidates >= 1000
        # 36 priceable (GPU, k) combos x 12 batches x 3 tiers.
        assert result.n_candidates == 36 * 12 * 3
        assert result.n_candidates < result.plan.n_cells  # masking happened

    def test_graph_with_mismatched_batch_rejected(self, ceer_small, tiny_graph):
        plan = SweepPlan(batch_sizes=(64,))
        assert tiny_graph.batch_size != 64
        with pytest.raises(ModelingError):
            evaluate_sweep(ceer_small, tiny_graph, JOB, plan)


class TestFrontier:
    def test_matches_list_pareto_over_reference(self, ceer_small):
        plan = SweepPlan(**SMALL_PLAN_KWARGS)
        result = evaluate_sweep(ceer_small, "inception_v3", JOB, plan)
        reference = oracle_sweep(
            ceer_small, "inception_v3", JOB, plan
        )
        via_tensor = result.frontier()
        via_list = pareto_frontier(reference)
        assert [
            (p.instance_name, p.batch_size) for p in via_tensor
        ] == [(p.instance_name, p.batch_size) for p in via_list]
        for a, b in zip(via_tensor, via_list):
            assert a.total_us == pytest.approx(b.total_us, rel=EQUIVALENCE_BOUND)
            assert a.cost_dollars == pytest.approx(
                b.cost_dollars, rel=EQUIVALENCE_BOUND
            )

    def test_frontier_is_nondominated_and_sorted(self, ceer_small):
        result = evaluate_sweep(
            ceer_small, "alexnet", JOB, SweepPlan.full_catalog()
        )
        frontier = result.frontier()
        times = [p.total_us for p in frontier]
        costs = [p.cost_dollars for p in frontier]
        assert times == sorted(times)
        assert costs == sorted(costs, reverse=True)


class TestClipBoundaryEquivalence:
    """The stacked tensor path must honor clip_max and the prediction
    floor *exactly* at the boundary — including the zero-padded path
    where degree-1 and degree-2 models share one coefficient matrix."""

    @staticmethod
    def _hand_built_models():
        from repro.core.classify import OpClassification
        from repro.core.op_models import ComputeTimeModels, HeavyOpModel
        from repro.core.regression import RegressionModel

        # V100: a genuine degree-2 model (coefficients fill both halves).
        quadratic = RegressionModel(
            degree=2, intercept=0.0, coef=(1.0, 0.0, 1.0, 0.0),
            r2=1.0, adjusted_r2=1.0, n_train=10,
            feature_names=("f0", "f1"), clip_max=6.0,
        )
        # K80: a degree-1 model, stacked via the zero-padded squared half.
        linear = RegressionModel(
            degree=1, intercept=0.25, coef=(2.0, 0.0),
            r2=1.0, adjusted_r2=1.0, n_train=10,
            feature_names=("f0", "f1"), clip_max=21.0,
        )
        classification = OpClassification(
            heavy=frozenset({"Conv2D"}), light=frozenset(), cpu=frozenset()
        )
        return ComputeTimeModels(
            classification=classification,
            heavy_models={
                ("V100", "Conv2D"): HeavyOpModel("V100", "Conv2D", quadratic),
                ("K80", "Conv2D"): HeavyOpModel("K80", "Conv2D", linear),
            },
            light_median_us=0.0,
            cpu_median_us=0.0,
        )

    @staticmethod
    def _compiled(x):
        from repro.core.engine import CompiledGraph

        return CompiledGraph(
            graph_name="clip-boundary", batch_size=32,
            num_ops=x.shape[0], num_parameters=1_000_000,
            heavy_features={"Conv2D": x}, n_light=0, n_cpu=0,
            n_unseen=0, unseen_types=(),
        )

    def test_batched_clip_and_floor_exact_at_boundary(self):
        from repro.core.batch import evaluate_compiled_batch_us
        from repro.core.regression import PREDICTION_FLOOR_US

        models = self._hand_built_models()
        # Rows chosen so raw predictions land exactly ON each boundary,
        # strictly above the clip, and strictly below the floor:
        #   V100 (x + x^2 on f0): [2, 0] -> 6.0 == clip, [3, 0] -> 12 > clip,
        #     [0.1, 0] -> 0.11 < floor
        #   K80 (0.25 + 2 f0):  [2, 0] -> 4.25, [3, 0] -> 6.25,
        #     [0.1, 0] -> 0.45 < floor; plus [10.375, 5] -> 21.0 == clip
        #     and [0.375, 5] -> 1.0 == floor on a dedicated row.
        x = np.asarray([
            [2.0, 0.0],
            [3.0, 0.0],
            [0.1, 0.0],
            [10.375, 5.0],
            [0.375, 5.0],
        ])
        compiled = self._compiled(x)
        gpu_keys = ("V100", "K80")
        totals = evaluate_compiled_batch_us(
            compiled, StackedOpModels(models), gpu_keys
        )

        for g, gpu_key in enumerate(gpu_keys):
            regression = models.heavy_models[(gpu_key, "Conv2D")].regression
            per_row = regression.predict_batch(x)
            # Bitwise equality, not approx: the tensor path replays the
            # scalar clip-then-floor sequence exactly.
            assert totals[g] == per_row.sum()

        # The scalar reference itself pins the boundary semantics.
        v100 = models.heavy_models[("V100", "Conv2D")].regression
        k80 = models.heavy_models[("K80", "Conv2D")].regression
        assert v100.predict_one([2.0, 0.0]) == 6.0  # raw == clip_max
        assert v100.predict_one([3.0, 0.0]) == 6.0  # clipped down
        assert v100.predict_one([0.1, 0.0]) == PREDICTION_FLOOR_US
        assert k80.predict_one([10.375, 5.0]) == 21.0  # raw == clip_max
        assert k80.predict_one([0.375, 5.0]) == PREDICTION_FLOOR_US  # raw == floor
        assert k80.predict_one([0.1, 0.0]) == PREDICTION_FLOOR_US

    def test_padded_degree1_matches_unpadded_evaluation(self):
        from repro.core.batch import evaluate_compiled_batch_us

        models = self._hand_built_models()
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 12.0, size=(64, 2))
        compiled = self._compiled(x)
        totals = evaluate_compiled_batch_us(
            compiled, StackedOpModels(models), ("K80",)
        )
        linear = models.heavy_models[("K80", "Conv2D")].regression
        assert totals[0] == linear.predict_batch(x).sum()


class TestSpotAdmittedRegression:
    """Spot/admitted sweeps mask unquoted GPUs instead of raising.

    Regression guard for the pricing path: a spec-only GPU admitted
    *without* ``--spot-ratio`` has no spot (or market) quote, and a full
    catalog sweep that includes it must NaN-mask those cells while still
    pricing it On-Demand — under every pricing tier at once.
    """

    SPEC_KWARGS = dict(
        key="ADMX", family="GA", marketing_name="Batch Test GPU",
        cuda_cores=4608, tensor_cores=576, memory_gb=24.0,
        peak_gflops=16300.0, memory_bandwidth_gbps=672.0,
        launch_overhead_us=3.4, saturation_elements=2.0e7,
        comm_base_us=190.0, comm_us_per_mparam=4.1,
    )

    @pytest.fixture(scope="class")
    def transfer_estimator(self, train_profiles_small):
        from repro.core.fit import fit_ceer

        return fit_ceer(
            n_iterations=80, gpu_counts=(1, 2),
            train_profiles=train_profiles_small, backend="transfer",
        ).estimator

    @pytest.fixture
    def admitted_gpu(self):
        from repro.cloud.catalog import admit_gpu, clear_admitted
        from repro.hardware.gpus import GpuSpec

        admit_gpu(GpuSpec(**self.SPEC_KWARGS), usd_per_hr=2.0, replace=True)
        yield "ADMX"
        clear_admitted("ADMX")

    def test_full_catalog_all_tiers_masks_admitted(
        self, transfer_estimator, admitted_gpu
    ):
        from repro.hardware.gpus import GPU_KEYS

        plan = SweepPlan.full_catalog(
            batch_sizes=(16, 32),
            pricings=(ON_DEMAND, SPOT, MARKET_RATIO),
            gpu_keys=tuple(GPU_KEYS) + (admitted_gpu,),
        )
        result = evaluate_sweep(transfer_estimator, "alexnet", JOB, plan)
        g = plan.gpu_keys.index(admitted_gpu)
        # On-Demand prices the admitted GPU; spot and market have no
        # quote for it, so its cells mask rather than raise.
        assert np.isfinite(result.cost_usd[0, g]).any()
        assert not np.isfinite(result.cost_usd[1, g]).any()
        assert not np.isfinite(result.cost_usd[2, g]).any()
        # The time tensors are pricing-independent and never masked.
        assert np.isfinite(result.total_us[g]).all()
        # Built-in GPUs still price under every tier.
        v = plan.gpu_keys.index("V100")
        for p in range(3):
            assert np.isfinite(result.cost_usd[p, v]).any()

    def test_admitted_with_ratio_prices_on_spot(
        self, transfer_estimator, admitted_gpu
    ):
        from repro.cloud.catalog import admit_gpu
        from repro.hardware.gpus import GPU_KEYS, GpuSpec

        admit_gpu(
            GpuSpec(**self.SPEC_KWARGS), usd_per_hr=2.0, replace=True,
            spot_ratio=0.4,
        )
        plan = SweepPlan.full_catalog(
            batch_sizes=(32,), pricings=(ON_DEMAND, SPOT),
            gpu_keys=tuple(GPU_KEYS) + (admitted_gpu,),
        )
        result = evaluate_sweep(transfer_estimator, "alexnet", JOB, plan)
        g = plan.gpu_keys.index(admitted_gpu)
        od = result.usd_per_hr[0, g]
        spot = result.usd_per_hr[1, g]
        priced = np.isfinite(od)
        assert priced.any()
        assert np.array_equal(spot[priced], od[priced] * 0.4)

    def test_recommender_sweep_spot_masks_not_raises(
        self, transfer_estimator, admitted_gpu
    ):
        from repro.core.recommend import Recommender
        from repro.hardware.gpus import GPU_KEYS

        recommender = Recommender(
            transfer_estimator, pricing=SPOT,
            gpu_keys=tuple(GPU_KEYS) + (admitted_gpu,),
        )
        predictions = recommender.sweep("alexnet", JOB)
        assert predictions  # built-in GPUs still priced
        assert all(p.gpu_key != admitted_gpu for p in predictions)
        on_demand = Recommender(
            transfer_estimator, pricing=ON_DEMAND,
            gpu_keys=tuple(GPU_KEYS) + (admitted_gpu,),
        ).sweep("alexnet", JOB)
        assert any(p.gpu_key == admitted_gpu for p in on_demand)
