"""Tests for objectives and the instance recommender (Section IV-D)."""

import pytest

from repro.cloud.pricing import MARKET_RATIO
from repro.errors import RecommendationError
from repro.core.batch import SweepPlan
from repro.core.recommend import (
    HourlyBudget,
    MinimizeCost,
    MinimizeTime,
    Recommender,
    TotalBudget,
    WeightedTimeCost,
)
from repro.workloads.dataset import IMAGENET_6400, TrainingJob
from tests.oracle import oracle_sweep

JOB = TrainingJob(IMAGENET_6400, batch_size=32)


@pytest.fixture(scope="module")
def recommender(ceer_small):
    return Recommender(ceer_small)


class TestSweep:
    def test_covers_all_candidates(self, recommender):
        predictions = recommender.sweep("inception_v1", JOB)
        assert len(predictions) == 16
        assert {(p.gpu_key, p.num_gpus) for p in predictions} == {
            (g, k) for g in ("V100", "K80", "T4", "M60") for k in (1, 2, 3, 4)
        }

    def test_matches_per_candidate_reference(self, recommender):
        batched = recommender.sweep("inception_v1", JOB)
        reference = oracle_sweep(
            recommender.estimator, "inception_v1", JOB,
            SweepPlan(batch_sizes=(JOB.batch_size,)),
        )
        assert len(batched) == len(reference)
        for got, ref in zip(batched, reference):
            assert got.instance_name == ref.instance_name
            assert got.total_us == pytest.approx(ref.total_us, rel=1e-9)
            assert got.cost_dollars == pytest.approx(ref.cost_dollars, rel=1e-9)

    def test_counts_beyond_catalog_are_skipped_not_fatal(self, ceer_small):
        """gpu_counts past a GPU's biggest host narrow the sweep (M60
        stops at 4) instead of raising."""
        rec = Recommender(ceer_small, gpu_counts=(1, 8))
        predictions = rec.sweep("alexnet", JOB)
        by_gpu = {}
        for p in predictions:
            by_gpu.setdefault(p.gpu_key, set()).add(p.num_gpus)
        assert by_gpu["V100"] == {1, 8}
        assert by_gpu["M60"] == {1}


class TestObjectives:
    def test_min_time_picks_global_fastest(self, recommender):
        rec = recommender.recommend("inception_v1", JOB, MinimizeTime())
        sweep = recommender.sweep("inception_v1", JOB)
        assert rec.best.total_us == min(p.total_us for p in sweep)

    def test_min_cost_picks_global_cheapest(self, recommender):
        rec = recommender.recommend("inception_v1", JOB, MinimizeCost())
        sweep = recommender.sweep("inception_v1", JOB)
        assert rec.best.cost_dollars == min(p.cost_dollars for p in sweep)

    def test_default_objective_is_min_cost(self, recommender):
        assert recommender.recommend("inception_v1", JOB).objective == "min-cost"

    def test_hourly_budget_feasibility(self, recommender):
        rec = recommender.recommend(
            "inception_v1", JOB, HourlyBudget(budget_usd_per_hr=3.0, slack_usd_per_hr=0.42)
        )
        assert rec.best.usd_per_hr <= 3.42
        assert all(p.usd_per_hr > 3.42 for p in rec.infeasible)

    def test_hourly_budget_unsatisfiable(self, recommender):
        with pytest.raises(RecommendationError):
            recommender.recommend("inception_v1", JOB, HourlyBudget(0.10))

    def test_total_budget_excludes_expensive_runs(self, recommender):
        sweep = recommender.sweep("inception_v1", JOB)
        median_cost = sorted(p.cost_dollars for p in sweep)[8]
        rec = recommender.recommend(
            "inception_v1", JOB, TotalBudget(budget_dollars=median_cost)
        )
        assert rec.best.cost_dollars <= median_cost
        assert rec.infeasible

    def test_weighted_objective(self, recommender):
        time_heavy = recommender.recommend(
            "inception_v1", JOB, WeightedTimeCost(time_weight=1000.0, cost_weight=0.0)
        )
        cost_heavy = recommender.recommend(
            "inception_v1", JOB, WeightedTimeCost(time_weight=0.0, cost_weight=1000.0)
        )
        assert time_heavy.best.total_us <= cost_heavy.best.total_us
        assert cost_heavy.best.cost_dollars <= time_heavy.best.cost_dollars

    def test_ranked_is_sorted(self, recommender):
        rec = recommender.recommend("inception_v1", JOB, MinimizeCost())
        costs = [p.cost_dollars for p in rec.ranked]
        assert costs == sorted(costs)

    def test_market_pricing_changes_winner(self, ceer_small):
        aws = Recommender(ceer_small).recommend("inception_v1", JOB, MinimizeCost())
        market = Recommender(ceer_small, pricing=MARKET_RATIO).recommend(
            "inception_v1", JOB, MinimizeCost()
        )
        # Under market prices the K80 becomes dramatically cheaper (Fig. 12).
        assert market.best.gpu_key == "K80"
        assert aws.best.gpu_key != "K80"

    def test_summary_mentions_instance(self, recommender):
        rec = recommender.recommend("inception_v1", JOB, MinimizeCost())
        assert rec.best.instance_name in rec.summary()
