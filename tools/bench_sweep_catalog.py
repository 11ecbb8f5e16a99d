#!/usr/bin/env python
"""Microbenchmark for Eq. (2) evaluation: batched sweeps and single predictions.

Times a per-candidate loop (one ``predict_training`` call per (pricing,
GPU model, count, batch) cell) against the batched tensor path
(:func:`repro.core.batch.evaluate_sweep`) on the full AWS catalog plan —
1000+ candidates — and emits a JSON report so the perf trajectory is
tracked in version control:

* per-candidate loop latency, warm (graph, compile and totals caches
  hot, so the comparison isolates the per-candidate Python overhead the
  batched path removes);
* batched sweep latency, cold (stacking + compiling every batch graph)
  and warm (stacked coefficients, totals, comm grid, and price grid all
  cached);
* one warm ``predict_training`` call, in microseconds;
* zoo-wide batched/loop numerical equivalence (max relative difference
  over every unmasked candidate's total_us and cost_usd).

Headless usage::

    PYTHONPATH=src python tools/bench_sweep_catalog.py --json BENCH_sweep_catalog.json

The default fit uses reduced profiling iterations — sweep latency is
independent of how many iterations trained the regressions, and this
keeps the tool runnable in CI in well under a minute.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.core.batch import (
    DEFAULT_SWEEP_BATCH_SIZES,
    DEFAULT_SWEEP_PRICINGS,
    SweepPlan,
    evaluate_sweep,
)
from repro.core.estimator import CeerEstimator
from repro.core.fit import fit_ceer
from repro.errors import CatalogError
from repro.models.zoo import model_names
from repro.obs.export import write_trace
from repro.obs.spans import disable_tracing, enable_tracing
from repro.units import s_to_us
from repro.workloads.dataset import IMAGENET, TrainingJob

#: Warm single predictions timed per repeat (the mean is reported).
SINGLE_PREDICT_CALLS = 1000


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fresh_estimator(fitted) -> CeerEstimator:
    return CeerEstimator(
        fitted.estimator.compute_models, fitted.estimator.comm_model
    )


def predict_each(estimator, model: str, job: TrainingJob, plan: SweepPlan) -> list:
    """One ``predict_training`` per priceable candidate, in
    :meth:`SweepResult.iter_candidates` order; unpriceable (GPU, count)
    pairs are skipped exactly as the batched path masks them."""
    predictions = []
    for pricing in plan.pricings:
        for gpu_key in plan.gpu_keys:
            for num_gpus in plan.gpu_counts:
                try:
                    instance = pricing.instance(gpu_key, num_gpus)
                except CatalogError:
                    continue
                for batch_size in plan.batch_sizes:
                    cell_job = TrainingJob(
                        job.dataset, batch_size=batch_size, epochs=job.epochs
                    )
                    predictions.append(estimator.predict_training(
                        model, gpu_key, num_gpus, cell_job,
                        pricing=pricing, instance=instance,
                    ))
    return predictions


def bench_catalog_sweep(
    fitted, model: str, job: TrainingJob, plan: SweepPlan, repeats: int
) -> dict:
    """Time the per-candidate loop vs the batched path on one shared plan.

    Both paths are primed before timing so the engine's graph caches are
    hot for each: the measured gap is the per-candidate Python dispatch
    the batched path eliminates, not one-off graph compilation.
    """
    estimator = _fresh_estimator(fitted)
    # Prime the compiled graphs and one-GPU totals (shared by both paths).
    predict_each(estimator, model, job, plan)
    loop_s = best_of(lambda: predict_each(estimator, model, job, plan), repeats)

    def single_predicts():
        for _ in range(SINGLE_PREDICT_CALLS):
            estimator.predict_training(model, "V100", 1, job)

    single_s = best_of(single_predicts, repeats) / SINGLE_PREDICT_CALLS

    def cold():
        # A fresh estimator per run: stacked coefficients, totals, comm
        # grid, and engine caches all rebuilt — but the plan's price grid
        # is also dropped by rebuilding the plan.
        cold_est = _fresh_estimator(fitted)
        cold_plan = SweepPlan(
            gpu_keys=plan.gpu_keys, gpu_counts=plan.gpu_counts,
            batch_sizes=plan.batch_sizes, pricings=plan.pricings,
        )
        evaluate_sweep(cold_est, model, job, cold_plan)

    cold_s = best_of(cold, repeats)
    evaluate_sweep(estimator, model, job, plan)  # prime every batch cache
    warm_s = best_of(lambda: evaluate_sweep(estimator, model, job, plan), repeats)
    result = evaluate_sweep(estimator, model, job, plan)
    return {
        "model": model,
        "candidates": result.n_candidates,
        "n_cells": plan.n_cells,
        "loop_warm_ms": loop_s * 1e3,
        "batched_cold_ms": cold_s * 1e3,
        "batched_warm_ms": warm_s * 1e3,
        "single_predict_warm_us": s_to_us(single_s),
        "speedup_cold": loop_s / cold_s,
        "speedup_warm": loop_s / warm_s,
    }


def check_equivalence(fitted, job: TrainingJob, plan: SweepPlan) -> dict:
    """Max batched/loop relative difference across the whole zoo."""
    estimator = _fresh_estimator(fitted)
    worst = 0.0
    n_checked = 0
    for name in model_names():
        result = evaluate_sweep(estimator, name, job, plan)
        reference = predict_each(estimator, name, job, plan)
        cells = list(result.iter_candidates())
        if len(cells) != len(reference):
            raise SystemExit(
                f"candidate sets disagree for {name!r}: batched has "
                f"{len(cells)}, reference has {len(reference)}"
            )
        for (p, g, k, b), ref in zip(cells, reference):
            got = result.prediction(p, g, k, b)
            for field in ("total_us", "cost_dollars"):
                ref_v = getattr(ref, field)
                got_v = getattr(got, field)
                if ref_v > 0:
                    worst = max(worst, abs(got_v - ref_v) / ref_v)
                n_checked += 1
    return {
        "max_rel_diff": worst,
        "checked": n_checked,
        "models": len(model_names()),
        "candidates_per_model": plan.n_cells,
        "within_1e-9": worst <= 1e-9,
    }


def run(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    fitted = fit_ceer(n_iterations=args.iterations)
    fit_s = time.perf_counter() - t0
    job = TrainingJob(IMAGENET, batch_size=args.batch_size)
    plan = SweepPlan.full_catalog(
        batch_sizes=DEFAULT_SWEEP_BATCH_SIZES, pricings=DEFAULT_SWEEP_PRICINGS
    )

    if args.trace_out is not None:
        # Traced demo pass, separate from the timed runs so the span
        # instrumentation never skews the reported numbers.
        estimator = _fresh_estimator(fitted)
        tracer = enable_tracing()
        try:
            evaluate_sweep(estimator, args.model, job, plan)  # cold
            evaluate_sweep(estimator, args.model, job, plan)  # warm
        finally:
            disable_tracing()
        write_trace(args.trace_out, tracer)
        print(f"wrote trace of cold+warm catalog sweep to {args.trace_out}")

    report = {
        "benchmark": "sweep_catalog",
        "config": {
            "model": args.model,
            "batch_size": args.batch_size,
            "fit_iterations": args.iterations,
            "repeats": args.repeats,
            "batch_sizes": list(plan.batch_sizes),
            "pricings": [p.name for p in plan.pricings],
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "fit_seconds": fit_s,
        "sweep": bench_catalog_sweep(fitted, args.model, job, plan, args.repeats),
        "equivalence": check_equivalence(fitted, job, plan),
    }
    return report


def render(report: dict) -> str:
    w = report["sweep"]
    e = report["equivalence"]
    return "\n".join(
        [
            f"catalog-sweep benchmark ({report['config']['model']}, "
            f"{w['candidates']} candidates over "
            f"{len(report['config']['batch_sizes'])} batch sizes x "
            f"{len(report['config']['pricings'])} pricing tiers)",
            f"  per-candidate loop (warm): {w['loop_warm_ms']:9.2f} ms",
            f"  single predict (warm):     {w['single_predict_warm_us']:9.2f} us",
            f"  batched sweep:  cold {w['batched_cold_ms']:9.3f} ms "
            f"({w['speedup_cold']:.1f}x) | warm {w['batched_warm_ms']:7.3f} ms "
            f"({w['speedup_warm']:.0f}x)",
            f"  equivalence:    max rel diff {e['max_rel_diff']:.2e} over "
            f"{e['checked']} checks across {e['models']} zoo models "
            f"({'OK' if e['within_1e-9'] else 'FAIL'} at 1e-9)",
        ]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--model", default="inception_v3",
                        help="zoo model for the latency benchmark")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="training-job batch size for the equivalence "
                             "job's dataset maths")
    parser.add_argument("--iterations", type=int, default=60,
                        help="profiling iterations for the fit (latency is "
                             "independent of this; low keeps CI fast)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats (best-of)")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write a Chrome trace-event JSON of one "
                             "cold+warm catalog sweep (untimed demo pass)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run(args)
    print(render(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    if not report["equivalence"]["within_1e-9"]:
        return 1
    if report["sweep"]["candidates"] < 1000:
        print("WARNING: catalog sweep covers fewer than 1000 candidates",
              file=sys.stderr)
        return 1
    if report["sweep"]["speedup_warm"] < 10.0:
        print("WARNING: warm batched sweep speedup below the 10x target",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
