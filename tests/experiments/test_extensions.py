"""Tests for the extension studies (multi-host, sensitivity, estimator choice)."""

import pytest

from repro.experiments.extensions import (
    run_estimator_choice_study,
    run_multihost_study,
    run_sensitivity_study,
)
from repro.sim.dataparallel import comm_overhead_base_us

N = 60


class TestPlacementGroundTruth:
    def test_multihost_slower_for_multi_gpu(self):
        single = comm_overhead_base_us("T4", 4, 25_000_000, placement="single-host")
        multi = comm_overhead_base_us("T4", 4, 25_000_000, placement="multi-host")
        assert multi > 1.5 * single

    def test_single_gpu_placement_independent(self):
        single = comm_overhead_base_us("T4", 1, 25_000_000, placement="single-host")
        multi = comm_overhead_base_us("T4", 1, 25_000_000, placement="multi-host")
        assert single == multi

    def test_unknown_placement_rejected(self):
        from repro.errors import HardwareError

        with pytest.raises(HardwareError):
            comm_overhead_base_us("T4", 2, 1_000_000, placement="rack-scale")


class TestMultiHostStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_multihost_study(n_iterations=N)

    def test_multihost_scales_worse(self, result):
        for gpu in ("V100", "K80", "T4", "M60"):
            assert result.reduction("multi-host", gpu, 4) < result.reduction(
                "single-host", gpu, 4
            )

    def test_retrained_ceer_recovers_accuracy(self, result):
        """Section VI: the comm model must be retrained for a new topology;
        the retrained estimator is much more accurate on it."""
        stale = result.multihost_errors["single-host Ceer (stale comm model)"]
        retrained = result.multihost_errors[
            "multi-host Ceer (retrained, Section VI)"
        ]
        assert retrained < stale / 2
        assert retrained < 0.08

    def test_render(self, result):
        assert "placement study" in result.render()


class TestSensitivityStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sensitivity_study(sizes=(3, 8), n_iterations=N)

    def test_more_training_models_not_worse(self, result):
        errors = {size: err for size, (_, err) in result.by_size.items()}
        assert errors[8] <= errors[3] * 1.5  # larger sets don't regress much

    def test_all_sizes_usable(self, result):
        for size, (models, error) in result.by_size.items():
            assert len(models) == size
            assert error < 0.20

    def test_render(self, result):
        assert "training-set size" in result.render()


class TestEstimatorChoiceStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_estimator_choice_study(n_iterations=N)

    def test_both_choices_evaluated(self, result):
        assert set(result.errors) == {"median", "mean"}

    def test_median_is_smaller_estimate(self, result):
        """The median sits below the mean for the right-skewed light-op
        distribution — the robustness property the paper invokes."""
        assert result.light_estimates_us["median"] < result.light_estimates_us["mean"]
        assert result.cpu_estimates_us["median"] < result.cpu_estimates_us["mean"]

    def test_both_choices_accurate(self, result):
        assert all(err < 0.06 for err in result.errors.values())

    def test_render(self, result):
        assert "median" in result.render()


class TestBatchSizeStudy:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.extensions import run_batch_size_study

        return run_batch_size_study(n_iterations=N)

    def test_fitted_batch_most_accurate_or_close(self, result):
        fitted_error = result.errors[result.fitted_batch]
        assert fitted_error < 0.06

    def test_extrapolation_stays_useful(self, result):
        """Ceer's size-based features generalise across batch sizes: the
        extrapolated errors stay within a few percent."""
        for batch, error in result.errors.items():
            assert error < 0.12, batch

    def test_render(self, result):
        assert "batch-size generalisation" in result.render()

