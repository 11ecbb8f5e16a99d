"""Ceer — the paper's contribution: operation-level training time and cost
prediction for CNNs across cloud GPU instances, and optimal-instance
recommendation (paper, Section IV)."""

from repro.core.classify import (
    LIGHT_THRESHOLD_US,
    REFERENCE_GPU,
    OpClassification,
    classify_operations,
)
from repro.core.comm_model import (
    CommObservation,
    CommunicationModel,
    collect_comm_observations,
    fit_comm_model,
)
from repro.core.engine import (
    CompiledGraph,
    PredictionEngine,
    compile_graph,
)
from repro.core.estimator import CeerEstimator, TrainingPrediction
from repro.core.fit import CeerDiagnostics, FittedCeer, fit_ceer
from repro.core.op_models import (
    ComputeTimeModels,
    HeavyOpModel,
    fit_compute_models,
)
from repro.core.recommend import (
    HourlyBudget,
    MinimizeCost,
    MinimizeTime,
    Objective,
    Recommendation,
    Recommender,
    TotalBudget,
    WeightedTimeCost,
)
from repro.core.regression import (
    RegressionModel,
    fit_regression,
    mean_absolute_percentage_error,
    r_squared,
)
from repro.core.persistence import (
    estimator_from_dict,
    estimator_to_dict,
    load_estimator,
    save_estimator,
)
from repro.core.pareto import (
    ParetoAnalysis,
    analyze_tradeoff,
    pareto_frontier,
    pareto_order_and_keep,
)
from repro.core.batch import (
    DEFAULT_SWEEP_BATCH_SIZES,
    DEFAULT_SWEEP_PRICINGS,
    StackedOpModels,
    SweepPlan,
    SweepResult,
    evaluate_sweep,
)
from repro.core.update import extend_ceer, learn_model
from repro.core.baselines import (
    LayerLevelEstimator,
    PaleoStyleEstimator,
    cheapest_instance_strategy,
    heavy_only_variant,
    latest_gpu_strategy,
    no_comm_variant,
)

__all__ = [
    "fit_ceer",
    "FittedCeer",
    "CeerDiagnostics",
    "CeerEstimator",
    "TrainingPrediction",
    "PredictionEngine",
    "CompiledGraph",
    "compile_graph",
    "ComputeTimeModels",
    "HeavyOpModel",
    "fit_compute_models",
    "OpClassification",
    "classify_operations",
    "LIGHT_THRESHOLD_US",
    "REFERENCE_GPU",
    "CommunicationModel",
    "CommObservation",
    "collect_comm_observations",
    "fit_comm_model",
    "RegressionModel",
    "fit_regression",
    "mean_absolute_percentage_error",
    "r_squared",
    "Recommender",
    "Recommendation",
    "Objective",
    "MinimizeCost",
    "MinimizeTime",
    "HourlyBudget",
    "TotalBudget",
    "WeightedTimeCost",
    "PaleoStyleEstimator",
    "LayerLevelEstimator",
    "heavy_only_variant",
    "no_comm_variant",
    "cheapest_instance_strategy",
    "latest_gpu_strategy",
    "save_estimator",
    "load_estimator",
    "estimator_to_dict",
    "estimator_from_dict",
    "extend_ceer",
    "learn_model",
    "ParetoAnalysis",
    "analyze_tradeoff",
    "pareto_frontier",
    "pareto_order_and_keep",
    "SweepPlan",
    "SweepResult",
    "StackedOpModels",
    "evaluate_sweep",
    "DEFAULT_SWEEP_BATCH_SIZES",
    "DEFAULT_SWEEP_PRICINGS",
]
