"""Integration tests for the figure drivers (reduced iteration counts).

Each driver must run end-to-end, render, and satisfy the *structural*
properties of its paper figure; the quantitative paper-vs-measured
comparison lives in tests/test_paper_claims.py and EXPERIMENTS.md.
"""

from types import SimpleNamespace

import pytest

from repro.artifacts import kinds
from repro.artifacts.workspace import Workspace
from repro.experiments import (
    run_ablations,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.experiments.ablations import PALEO_MAX_ITERATIONS
from repro.hardware.gpus import GPU_KEYS
from repro.models.zoo import TRAIN_MODELS

N = 80  # reduced from the canonical 300 for test speed


class _Stop(Exception):
    """Raised by a spy to end a driver at the request it records."""


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self, train_profiles_small):
        return run_fig2(train_profiles_small)

    def test_all_heavy_ops_on_all_gpus(self, result):
        for per_gpu in result.mean_us.values():
            assert set(per_gpu) == set(GPU_KEYS)

    def test_p3_fastest_per_op(self, result):
        for op_type, per_gpu in result.mean_us.items():
            assert min(per_gpu, key=per_gpu.get) == "V100", op_type

    def test_render(self, result):
        text = result.render()
        assert "Conv2D" in text and "P2/P3" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, train_profiles_small):
        return run_fig3(train_profiles_small)

    def test_winner_tally_consistent(self, result):
        assert result.g4_win_count + result.p3_win_count <= len(result.cheapest_gpu)
        assert result.p3_win_count == len(result.p3_wins)

    def test_costs_positive(self, result):
        for per_gpu in result.cost_nano_dollars.values():
            assert all(v > 0 for v in per_gpu.values())

    def test_render(self, result):
        assert "cheapest-GPU tally" in result.render()


class TestFig4:
    def test_relu_default(self, train_profiles_small):
        result = run_fig4(profiles=train_profiles_small)
        assert result.op_type == "Relu"
        for gpu_key, fit in result.fits.items():
            assert fit.r2 > 0.9, gpu_key
            assert len(result.points[gpu_key]) > 100

    def test_quadratic_op(self, train_profiles_small):
        result = run_fig4("Conv2DBackpropFilter", profiles=train_profiles_small)
        assert "Conv2DBackpropFilter" in result.render()


class TestFig5:
    def test_structure(self, train_profiles_small):
        result = run_fig5(train_profiles_small)
        assert set(result.heavy_by_gpu) == set(GPU_KEYS)
        assert result.light_values and result.cpu_values
        assert "p95" in result.render()


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(n_iterations=N)

    def test_all_cells_present(self, result):
        assert set(result.training_time_us) == {
            (g, k) for g in GPU_KEYS for k in (1, 2, 3, 4)
        }

    def test_time_decreases_with_gpus(self, result):
        for g in GPU_KEYS:
            times = [result.training_time_us[(g, k)] for k in (1, 2, 3, 4)]
            assert times == sorted(times, reverse=True)

    def test_diminishing_returns(self, result):
        """Marginal reduction shrinks with each added GPU (Section III-D)."""
        for g in GPU_KEYS:
            r2 = result.reduction(g, 2)
            r3 = result.reduction(g, 3)
            r4 = result.reduction(g, 4)
            assert r2 > (r3 - r2) > (r4 - r3)

    def test_render(self, result):
        assert "inception_v1" in result.render()


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(
            models=("inception_v1", "vgg_11", "resnet_50", "inception_v4"),
            gpu_counts=(1, 2), n_iterations=N,
        )

    def test_fits_per_gpu_and_k(self, result):
        assert set(result.model.models) == {
            (g, k) for g in GPU_KEYS for k in (1, 2)
        }

    def test_linearity(self, result):
        assert all(r2 > 0.85 for r2 in result.model.r2.values())

    def test_positive_slopes(self, result):
        for fit in result.model.models.values():
            assert fit.coef[0] > 0

    def test_scatter_points(self, result):
        assert len(result.points("V100", 2)) == 4
        assert "slope" in result.render()


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self, ceer_small):
        return run_fig8(estimator=ceer_small, n_iterations=N)

    def test_low_error(self, result):
        assert result.average_error < 0.10

    def test_perfect_ranking(self, result):
        for model in ("inception_v3", "alexnet", "resnet_101", "vgg_19"):
            assert result.ranking_correct(model), model

    def test_p3_fastest(self, result):
        for versus in ("K80", "M60", "T4"):
            assert result.p3_time_reduction(versus) > 0

    def test_g4_cheapest(self, result):
        for model in ("inception_v3", "alexnet", "resnet_101", "vgg_19"):
            assert result.cheapest_gpu(model) == "T4"

    def test_render(self, result):
        assert "average training-time prediction error" in result.render()


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self, ceer_small):
        return run_fig9(estimator=ceer_small, n_iterations=N)

    def test_paper_budget_configs(self, result):
        """$3/hr + slack selects 3xP2, 3xG3, 3xG4 proxies and 1xP3."""
        configs = {(i.gpu_key, i.num_gpus) for i in result.configs}
        assert configs == {("K80", 3), ("M60", 3), ("T4", 3), ("V100", 1)}

    def test_ceer_picks_match_observed(self, result):
        for model in ("inception_v3", "alexnet", "resnet_101", "vgg_19"):
            assert result.best_config(model) == result.best_config(model, True)

    def test_cnn_dependent_winners(self, result):
        """The optimal choice depends on the CNN (the Fig. 9 headline)."""
        winners = {
            result.best_config(m)
            for m in ("inception_v3", "alexnet", "resnet_101", "vgg_19")
        }
        assert len(winners) >= 2

    def test_render(self, result):
        assert "P3-default penalty" in result.render()


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self, ceer_small):
        return run_fig10(estimator=ceer_small, n_iterations=N)

    def test_feasibility_agreement_high(self, result):
        assert result.feasibility_agreement() >= 0.9

    def test_ceer_pick_matches_observed_optimum(self, result):
        assert result.best_config(False) == result.best_config(True)

    def test_all_p2_infeasible(self, result):
        feasible_gpus = {g for g, _ in result.feasible(False)}
        assert "K80" not in feasible_gpus

    def test_cheapest_rate_much_slower(self, result):
        assert result.cheapest_rate_penalty() > 5.0

    def test_render(self, result):
        assert "observed optimum" in result.render()


class TestFig11And12:
    def test_aws_winner_is_g4_single(self, ceer_small):
        result = run_fig11(estimator=ceer_small, n_iterations=N)
        assert result.best_config(False) == ("T4", 1)
        assert result.best_config(True) == ("T4", 1)
        assert result.average_error() < 0.10

    def test_market_winner_is_p2_single(self, ceer_small):
        result = run_fig12(estimator=ceer_small, n_iterations=N)
        assert result.best_config(False) == ("K80", 1)
        assert result.best_config(True) == ("K80", 1)
        assert result.pricing_name == "market-ratio"


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ablations(gpu_counts=(1, 4), n_iterations=N)

    def test_full_ceer_most_accurate(self, result):
        full = result.mean_error("ceer (full)")
        for variant in result.errors:
            assert full <= result.mean_error(variant) + 1e-9

    def test_no_comm_ablation_hurts(self, result):
        assert result.mean_error("no-communication (Eq. 1)") > 2 * result.mean_error(
            "ceer (full)"
        )

    def test_heavy_only_ablation_hurts(self, result):
        assert result.mean_error("heavy-ops-only") > result.mean_error("ceer (full)")

    def test_strategies_cost_more(self, result):
        assert all(ratio > 1.2 for ratio in result.strategy_cost_ratio.values())

    def test_render(self, result):
        assert "strategy cost" in result.render()

    def test_paleo_reads_the_200_iteration_training_profile(
        self, tmp_path, monkeypatch
    ):
        """Above PALEO_MAX_ITERATIONS the baseline asks the workspace for the
        training profile at the cap. Stops at that request: nothing is
        simulated at 300 iterations."""
        ws = Workspace(tmp_path / "ws")
        monkeypatch.setattr(
            ws, "fitted_ceer", lambda n: SimpleNamespace(estimator=None)
        )
        asked = []

        def spy(kind, spec, *rest):
            asked.append((kind, dict(spec)))
            raise _Stop

        monkeypatch.setattr(ws.store, "get_or_create", spy)
        with pytest.raises(_Stop):
            run_ablations(n_iterations=300, workspace=ws)
        assert asked == [(kinds.PROFILE, {
            "models": sorted(TRAIN_MODELS), "gpus": sorted(GPU_KEYS),
            "iterations": PALEO_MAX_ITERATIONS, "batch": 32, "seed": "",
        })]
        assert PALEO_MAX_ITERATIONS == 200
