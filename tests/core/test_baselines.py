"""Tests for baseline predictors and naive strategies."""

import json

import pytest

from repro.artifacts import kinds
from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND
from repro.core import baselines
from repro.errors import ModelingError
from repro.core.baselines import (
    LayerLevelEstimator,
    PaleoStyleEstimator,
    cheapest_instance_strategy,
    latest_gpu_strategy,
    profiled_iteration_us,
    strategy_cost_comparison,
)
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TRAIN_MODELS, build_model
from repro.obs.metrics import default_registry
from repro.profiling.profiler import Profiler
from repro.profiling.records import ProfileDataset
from repro.sim.trainer import measure_training
from repro.workloads.dataset import IMAGENET_6400, TrainingJob
from tests.oracle import oracle_paleo_models, oracle_paleo_targets

JOB = TrainingJob(IMAGENET_6400, batch_size=32)


@pytest.fixture(scope="module")
def paleo(train_profiles_small):
    return PaleoStyleEstimator.fit(train_profiles_small.filter(
        lambda r: r.gpu_key in ("V100", "T4")
        and r.model in ("inception_v1", "vgg_11", "resnet_50", "inception_v4")
    ))


@pytest.fixture(scope="module")
def profiles_40():
    return Profiler(n_iterations=40).profile_many(list(TRAIN_MODELS), list(GPU_KEYS))


@pytest.fixture(scope="module")
def layer_level(train_profiles_small):
    return LayerLevelEstimator.fit(train_profiles_small)


class TestPaleo:
    def test_predicts_rough_magnitude(self, paleo):
        observed = measure_training(
            "resnet_101", "V100", 1, JOB, n_profile_iterations=60,
        ).compute_us_per_iteration
        predicted = paleo.predict_iteration_us("resnet_101", "V100")
        assert 0.4 * observed < predicted < 2.5 * observed

    def test_graph_and_zoo_name_predict_alike(self, paleo):
        graph = build_model("resnet_101", batch_size=32)
        assert paleo.predict_iteration_us(graph, "V100") == (
            paleo.predict_iteration_us("resnet_101", "V100")
        )

    def test_unfitted_gpu_rejected(self, paleo):
        with pytest.raises(ModelingError):
            paleo.predict_iteration_us("alexnet", "M60")

    def test_less_accurate_than_ceer(self, paleo, ceer_small):
        observed = measure_training(
            "alexnet", "V100", 1, JOB, n_profile_iterations=60,
            seed_context="holdout",
        ).per_iteration_us
        ceer_err = abs(
            ceer_small.predict_iteration_us("alexnet", "V100", 1) - observed
        )
        paleo_err = abs(paleo.predict_iteration_us("alexnet", "V100") - observed)
        assert ceer_err < paleo_err


class TestPaleoFromProfile:
    """The fit reads its targets from profile records, simulating nothing,
    and gets the bits the simulate-and-sum fit got."""

    def test_targets_equal_simulated_sums(self, profiles_40):
        oracle = oracle_paleo_targets(TRAIN_MODELS, GPU_KEYS, 40)
        targets = profiled_iteration_us(profiles_40)
        assert targets.keys() == oracle.keys()
        for cell, us in oracle.items():
            assert targets[cell] == us, cell

    def test_coefficients_equal_simulated_fit(self, profiles_40):
        oracle = oracle_paleo_models(TRAIN_MODELS, GPU_KEYS, 40)
        assert PaleoStyleEstimator.fit(profiles_40).models == oracle

    def test_round_tripped_profile_fits_identically(self, profiles_40):
        """Through the ``profile`` artifact's JSON codec (one GPU, for speed)."""
        original = profiles_40.for_gpu("T4")
        decoded = kinds.decode_profiles(
            json.loads(json.dumps(kinds.encode_profiles(original)))
        )
        assert profiled_iteration_us(decoded) == profiled_iteration_us(original)
        assert (
            PaleoStyleEstimator.fit(decoded).models
            == PaleoStyleEstimator.fit(original).models
        )

    def test_fit_simulates_nothing(self, profiles_40):
        misses = default_registry().counter("sim.cells", result="miss")
        before = misses.value
        PaleoStyleEstimator.fit(profiles_40)
        assert misses.value == before

    def test_empty_profile_rejected_by_fit(self):
        with pytest.raises(ModelingError, match="non-empty"):
            PaleoStyleEstimator.fit(ProfileDataset(()))

    def test_gflops_walked_once_per_model(self, profiles_40, monkeypatch):
        """The fit reads the training models' FLOPs from the profile: it
        builds and walks no graph. A model outside the profile is built
        and walked once, however often it is predicted."""
        walks, builds = [], []
        real_graph_flops = baselines.graph_flops
        real_build_model = baselines.build_model

        def counting_graph_flops(ops):
            walks.append(1)
            return real_graph_flops(ops)

        def counting_build_model(*args, **kwargs):
            builds.append(args)
            return real_build_model(*args, **kwargs)

        monkeypatch.setattr(baselines, "graph_flops", counting_graph_flops)
        monkeypatch.setattr(baselines, "build_model", counting_build_model)
        paleo = PaleoStyleEstimator.fit(profiles_40)
        assert walks == [] and builds == []
        for _ in range(3):
            for gpu_key in GPU_KEYS:
                paleo.predict_iteration_us("resnet_101", gpu_key)
        assert len(walks) == 1 and len(builds) == 1

    def test_profile_flops_equal_graph_flops(self, profiles_40):
        assert profiles_40.model_flops() == {
            name: baselines.graph_flops(build_model(name, batch_size=32).operations)
            for name in TRAIN_MODELS
        }

    def test_profile_without_flops_rejected_by_fit(self, profiles_40):
        """Rows built from records carry no FLOPs, so there is nothing to fit on."""
        rebuilt = ProfileDataset(profiles_40.for_gpu("T4").records)
        with pytest.raises(ModelingError, match="profiled FLOPs"):
            PaleoStyleEstimator.fit(rebuilt)


class TestLayerLevel:
    def test_only_layer_kernels_fitted(self, layer_level):
        from repro.core.baselines import LAYER_LEVEL_OP_TYPES

        assert {op for _, op in layer_level.models} <= LAYER_LEVEL_OP_TYPES

    def test_underpredicts_whole_model(self, layer_level):
        """Ignoring small ops, CPU ops, and communication makes this
        baseline biased low — the error source the paper calls out."""
        observed = measure_training(
            "inception_v3", "T4", 1, JOB, n_profile_iterations=60,
            seed_context="holdout",
        ).per_iteration_us
        predicted = layer_level.predict_iteration_us("inception_v3", "T4")
        assert predicted < observed

    def test_unfitted_gpu_raises(self, train_profiles_small):
        partial = LayerLevelEstimator.fit(train_profiles_small.for_gpu("V100"))
        with pytest.raises(ModelingError):
            partial.predict_iteration_us("alexnet", "K80")


class TestStrategies:
    def test_cheapest_instance_is_g3(self):
        assert cheapest_instance_strategy().name == "g3s.xlarge"

    def test_cheapest_under_market_prices_is_p2(self):
        inst = cheapest_instance_strategy(pricing=MARKET_RATIO)
        assert inst.gpu_key == "K80"

    def test_latest_gpu_is_p3(self):
        assert latest_gpu_strategy().gpu_key == "V100"

    def test_latest_gpu_with_budget_picks_largest_affordable(self):
        inst = latest_gpu_strategy(budget_usd_per_hr=13.0)
        assert inst.num_gpus == 4  # p3.8xlarge at $12.24
        inst_small = latest_gpu_strategy(budget_usd_per_hr=3.10)
        assert inst_small.num_gpus == 1

    def test_latest_gpu_budget_unsatisfiable(self):
        with pytest.raises(ModelingError):
            latest_gpu_strategy(budget_usd_per_hr=1.0)

    def test_strategy_cost_comparison(self, ceer_small):
        base = ceer_small.predict_training("inception_v1", "T4", 1, JOB)
        alt = ceer_small.predict_training("inception_v1", "V100", 4, JOB)
        ratios = dict(strategy_cost_comparison(base, [alt]))
        assert ratios[alt.instance_name] == pytest.approx(
            alt.cost_dollars / base.cost_dollars
        )
