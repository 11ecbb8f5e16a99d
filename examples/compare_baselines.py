#!/usr/bin/env python
"""Ceer vs the literature's simpler predictors (paper, Sections IV & VII).

Compares per-iteration training-time prediction error on the held-out test
CNNs for:

* full Ceer (regressions + medians + communication model);
* Ceer without light/CPU ops (the Section IV-B ablation);
* Ceer without the communication term — Eq. (1) (the Section IV-A ablation);
* a Giannini-style layer-level regression (conv/pool/matmul kernels only);
* a PALEO-style whole-model FLOP regression.

Run:  python examples/compare_baselines.py
"""

from repro import TEST_MODELS, TrainingJob, fit_ceer, measure_training
from repro.analysis.reporting import format_table
from repro.core.baselines import (
    LayerLevelEstimator,
    PaleoStyleEstimator,
    heavy_only_variant,
    no_comm_variant,
)
from repro.hardware import GPU_KEYS
from repro.workloads import IMAGENET

ITERATIONS = 150
JOB = TrainingJob(IMAGENET, batch_size=32)


def main() -> None:
    print("Fitting Ceer and both baselines ...")
    fitted = fit_ceer(n_iterations=ITERATIONS)
    estimators = {
        "ceer (full)": fitted.estimator,
        "heavy-ops-only": heavy_only_variant(fitted.estimator),
        "no-communication": no_comm_variant(fitted.estimator),
        "layer-level": LayerLevelEstimator.fit(fitted.train_profiles),
        "paleo-style": PaleoStyleEstimator.fit(fitted.train_profiles),
    }

    observed = {
        (model, gpu, k): measure_training(
            model, gpu, k, JOB, n_profile_iterations=ITERATIONS,
            seed_context="baseline-eval",
        ).per_iteration_us
        for model in TEST_MODELS
        for gpu in GPU_KEYS
        for k in (1, 4)
    }

    rows = []
    for name, estimator in estimators.items():
        errors = {1: [], 4: []}
        for (model, gpu, k), obs in observed.items():
            predicted = estimator.predict_iteration_us(model, gpu, k)
            errors[k].append(abs(predicted - obs) / obs)
        rows.append(
            [
                name,
                f"{sum(errors[1]) / len(errors[1]):.1%}",
                f"{sum(errors[4]) / len(errors[4]):.1%}",
            ]
        )
    print()
    print(
        format_table(
            ["estimator", "error (1 GPU)", "error (4 GPUs)"],
            rows,
            title="Per-iteration prediction error on held-out CNNs",
        )
    )
    print(
        "\nTakeaways (matching the paper): dropping light/CPU ops or the\n"
        "communication term measurably hurts accuracy, and whole-model or\n"
        "layer-level baselines are far behind operation-level Ceer."
    )


if __name__ == "__main__":
    main()
