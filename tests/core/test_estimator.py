"""Tests for the CeerEstimator (Eq. (1)/(2) and cost prediction)."""

import pytest

from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND
from repro.sim.trainer import measure_training
from repro.workloads.dataset import IMAGENET, IMAGENET_6400, TrainingJob

JOB = TrainingJob(IMAGENET_6400, batch_size=32)


class TestPrediction:
    def test_eq2_accounting(self, ceer_small):
        p = ceer_small.predict_training("inception_v1", "V100", 2, JOB)
        assert p.per_iteration_us == pytest.approx(
            p.compute_us_per_iteration + p.comm_overhead_us
        )
        assert p.iterations == JOB.iterations(2)
        assert p.total_us == pytest.approx(p.per_iteration_us * p.iterations)
        assert p.cost_dollars == pytest.approx(p.total_hours * p.usd_per_hr)

    def test_accuracy_on_held_out_model(self, ceer_small):
        """The headline claim: <~10% per-iteration error on unseen CNNs
        (the paper reports ~4-5% on average)."""
        for gpu in ("V100", "K80", "T4", "M60"):
            observed = measure_training(
                "resnet_101", gpu, 1, JOB,
                n_profile_iterations=60, seed_context="holdout",
            )
            predicted = ceer_small.predict_training("resnet_101", gpu, 1, JOB)
            error = abs(predicted.per_iteration_us - observed.per_iteration_us)
            assert error / observed.per_iteration_us < 0.10, gpu

    def test_comm_term_included_per_k(self, ceer_small):
        p1 = ceer_small.predict_training("alexnet", "V100", 1, JOB)
        p4 = ceer_small.predict_training("alexnet", "V100", 4, JOB)
        assert p4.comm_overhead_us > p1.comm_overhead_us
        assert p4.compute_us_per_iteration == pytest.approx(
            p1.compute_us_per_iteration
        )

    def test_instance_override(self, ceer_small):
        market = MARKET_RATIO.instance("K80", 1)
        p = ceer_small.predict_training(
            "alexnet", "K80", 1, JOB, instance=market
        )
        assert p.usd_per_hr == pytest.approx(0.15)

    def test_pricing_scheme_argument(self, ceer_small):
        aws = ceer_small.predict_training("alexnet", "K80", 1, JOB)
        market = ceer_small.predict_training(
            "alexnet", "K80", 1, JOB, pricing=MARKET_RATIO
        )
        assert market.total_us == pytest.approx(aws.total_us)
        assert market.cost_dollars < aws.cost_dollars

    def test_predict_iteration_us_matches_training_path(self, ceer_small):
        per_iter = ceer_small.predict_iteration_us("alexnet", "T4", 2)
        p = ceer_small.predict_training("alexnet", "T4", 2, JOB)
        assert per_iter == pytest.approx(p.per_iteration_us)

    def test_epoch_scaling(self, ceer_small):
        one = ceer_small.predict_training("alexnet", "T4", 1, JOB)
        three = ceer_small.predict_training(
            "alexnet", "T4", 1, TrainingJob(IMAGENET_6400, batch_size=32, epochs=3)
        )
        assert three.total_us == pytest.approx(3 * one.total_us)


class TestInstanceValidation:
    def test_mismatched_gpu_raises(self, ceer_small):
        """Regression: an explicit instance on different hardware used to
        silently price compute predicted for another GPU."""
        from repro.errors import ModelingError

        wrong = ON_DEMAND.instance("K80", 1)
        with pytest.raises(ModelingError) as excinfo:
            ceer_small.predict_training(
                "alexnet", "V100", 1, JOB, instance=wrong
            )
        message = str(excinfo.value)
        assert "K80" in message and "V100" in message
        assert wrong.name in message

    def test_mismatched_gpu_count_raises(self, ceer_small):
        from repro.errors import ModelingError

        four_gpu = ON_DEMAND.instance("V100", 4)
        with pytest.raises(ModelingError):
            ceer_small.predict_training(
                "alexnet", "V100", 1, JOB, instance=four_gpu
            )

    def test_matching_instance_is_accepted(self, ceer_small):
        matching = ON_DEMAND.instance("V100", 2)
        explicit = ceer_small.predict_training(
            "alexnet", "V100", 2, JOB, instance=matching
        )
        implicit = ceer_small.predict_training("alexnet", "V100", 2, JOB)
        assert explicit == implicit

    def test_family_alias_resolves_before_validation(self, ceer_small):
        """``gpu_key="P3"`` names the same hardware as a V100 instance."""
        p = ceer_small.predict_training(
            "alexnet", "P3", 1, JOB, instance=ON_DEMAND.instance("V100", 1)
        )
        assert p.gpu_key == "V100"


class TestLazyEngine:
    def _fresh(self, ceer_small):
        from repro.core.estimator import CeerEstimator

        return CeerEstimator(ceer_small.compute_models, ceer_small.comm_model)

    def test_resolve_graph_memoizes(self, ceer_small):
        estimator = self._fresh(ceer_small)
        first = estimator.resolve_graph("alexnet")
        assert estimator.resolve_graph("alexnet") is first
        # A different batch size is a different graph.
        assert estimator.resolve_graph("alexnet", batch_size=8) is not first

    def test_engine_created_once_on_first_use(self, ceer_small):
        estimator = self._fresh(ceer_small)
        assert estimator._engine is None
        engine = estimator.engine
        assert estimator.engine is engine
        assert estimator._engine is engine

    def test_scalar_and_engine_paths_agree(self, ceer_small):
        """The estimator (a one-GPU kernel slice) agrees with the scalar
        per-op oracle."""
        from repro.models.zoo import build_model
        from tests.oracle import REL_TOL, oracle_prediction

        estimator = self._fresh(ceer_small)
        for model in ("alexnet", "inception_v1"):
            graph = build_model(model, batch_size=JOB.batch_size)
            got = estimator.predict_training(model, "V100", 2, JOB)
            want = oracle_prediction(estimator, graph, "V100", 2, JOB)
            assert got.total_us == pytest.approx(want.total_us, rel=REL_TOL)
            assert got.instance_name == want.instance_name


class TestVariants:
    def test_no_comm_variant_smaller(self, ceer_small):
        from repro.core.baselines import no_comm_variant

        variant = no_comm_variant(ceer_small)
        full = ceer_small.predict_training("alexnet", "V100", 4, JOB)
        ablated = variant.predict_training("alexnet", "V100", 4, JOB)
        assert ablated.comm_overhead_us == 0.0
        assert ablated.total_us < full.total_us

    def test_heavy_only_variant_smaller(self, ceer_small):
        from repro.core.baselines import heavy_only_variant

        variant = heavy_only_variant(ceer_small)
        full = ceer_small.predict_training("alexnet", "V100", 1, JOB)
        ablated = variant.predict_training("alexnet", "V100", 1, JOB)
        assert ablated.compute_us_per_iteration < full.compute_us_per_iteration

    def test_ignoring_comm_hurts_alexnet_most(self, ceer_small):
        """Section IV-A: AlexNet's single-GPU error is ~30% without the
        communication term — the largest among the test CNNs."""
        from repro.core.baselines import no_comm_variant

        variant = no_comm_variant(ceer_small)
        errors = {}
        for model in ("alexnet", "inception_v3", "vgg_19"):
            observed = measure_training(
                model, "V100", 1, JOB, n_profile_iterations=60,
                seed_context="holdout",
            ).per_iteration_us
            predicted = variant.predict_iteration_us(model, "V100", 1)
            errors[model] = abs(predicted - observed) / observed
        assert errors["alexnet"] == max(errors.values())
        assert errors["alexnet"] > 0.15
