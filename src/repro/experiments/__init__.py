"""Experiment drivers regenerating every figure of the paper's evaluation.

Each ``run_figN`` function returns a structured result object whose
``render()`` method prints the rows/series the corresponding paper figure
reports. The benchmark harness under ``benchmarks/`` invokes these.
"""

from repro.experiments.ablations import AblationResult, run_ablations
from repro.experiments.common import (
    CANONICAL_ITERATIONS,
    IMAGENET_JOB,
    SCALING_JOB,
    fitted_ceer,
    observed_training,
    test_profiles,
    training_profiles,
)
from repro.experiments.fig2_op_times import Fig2Result, run_fig2
from repro.experiments.fig3_op_costs import Fig3Result, run_fig3
from repro.experiments.fig4_relu_scaling import Fig4Result, run_fig4
from repro.experiments.fig5_variability import Fig5Result, run_fig5
from repro.experiments.fig6_scaling import Fig6Result, run_fig6
from repro.experiments.fig7_comm_overhead import Fig7Result, run_fig7
from repro.experiments.fig8_validation import Fig8Result, run_fig8
from repro.experiments.fig9_hourly_budget import Fig9Result, run_fig9
from repro.experiments.fig10_total_budget import Fig10Result, run_fig10
from repro.experiments.fig11_cost_min import Fig11Result, run_fig11
from repro.experiments.fig12_market_prices import run_fig12
from repro.experiments.ext_spot_dynamics import (
    SpotDynamicsResult,
    run_spot_dynamics,
)
from repro.experiments.ext_transfer_logo import (
    TransferLogoResult,
    run_transfer_logo,
)
from repro.experiments.extensions import (
    BatchSizeStudyResult,
    EstimatorChoiceResult,
    MultiHostResult,
    SensitivityResult,
    run_batch_size_study,
    run_estimator_choice_study,
    run_multihost_study,
    run_sensitivity_study,
)

__all__ = [
    "run_fig2", "run_fig3", "run_fig4", "run_fig5", "run_fig6", "run_fig7",
    "run_fig8", "run_fig9", "run_fig10", "run_fig11", "run_fig12",
    "run_ablations",
    "run_multihost_study",
    "run_sensitivity_study",
    "run_estimator_choice_study",
    "run_batch_size_study",
    "BatchSizeStudyResult",
    "run_spot_dynamics",
    "SpotDynamicsResult",
    "run_transfer_logo",
    "TransferLogoResult",
    "MultiHostResult",
    "SensitivityResult",
    "EstimatorChoiceResult",
    "Fig2Result", "Fig3Result", "Fig4Result", "Fig5Result", "Fig6Result",
    "Fig7Result", "Fig8Result", "Fig9Result", "Fig10Result", "Fig11Result",
    "AblationResult",
    "fitted_ceer", "training_profiles", "test_profiles", "observed_training",
    "CANONICAL_ITERATIONS", "IMAGENET_JOB", "SCALING_JOB",
]
