#!/usr/bin/env python
"""Benchmark for the cross-hardware transfer backend.

Quantifies the two costs of predicting GPUs we never profiled
(DESIGN.md section 5h) and emits a JSON report so the trajectory is
tracked in version control:

* **accuracy** — the leave-one-GPU-out (LOGO) heavy-op MAPE per holdout
  GPU: each fold fits the pooled transfer model on the other GPUs only
  and scores it on the holdout, against the in-sample MAPE of the
  paper's own per-GPU fits on the same rows;
* **latency** — warm full-catalog sweep time over a runtime-admitted,
  spec-only GPU (whose per-op models are synthesized by collapsing the
  pooled fit) vs the same sweep over the profiled V100, as a ratio so
  host speed cancels out;
* **sanity** — every spec-only prediction must be finite, positive, and
  carry a positive uncertainty band.

Headless usage::

    PYTHONPATH=src python tools/bench_transfer.py --json BENCH_transfer.json

The default fit uses reduced profiling iterations; LOGO MAPE is stable
well below the paper's 1,000 iterations, and this keeps the tool
runnable in CI in about a minute.
"""

from __future__ import annotations

# Benchmarks time wall-clock by design.
# staticcheck: ignore-file[determinism]

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path

from repro.cloud.catalog import admit_gpu, clear_admitted
from repro.cloud.pricing import ON_DEMAND
from repro.core.batch import (
    DEFAULT_SWEEP_BATCH_SIZES,
    SweepPlan,
    evaluate_sweep,
)
from repro.core.classify import classify_operations
from repro.core.estimator import CeerEstimator
from repro.core.fit import fit_ceer
from repro.core.transfer import logo_report
from repro.hardware.gpus import GPU_KEYS, GpuSpec
from repro.units import MS_PER_S
from repro.workloads.dataset import IMAGENET, TrainingJob

#: The spec-only GPU the latency section admits: a plausible mid-range
#: device between the T4 and the V100, never profiled.
BENCH_SPEC = GpuSpec(
    key="XBENCH", family="GXB", marketing_name="Bench Spec-Only GPU",
    cuda_cores=4096, tensor_cores=256, memory_gb=24,
    peak_gflops=12000.0, memory_bandwidth_gbps=600.0,
    launch_overhead_us=4.0, saturation_elements=1.0e6,
    comm_base_us=4000.0, comm_us_per_mparam=300.0,
)


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_logo(fitted) -> dict:
    """Leave-one-GPU-out accuracy of the pooled transfer fit."""
    classification = classify_operations(fitted.train_profiles)
    report = logo_report(fitted.train_profiles, classification)
    folds = {
        fold.gpu_key: {
            "transfer_mape": fold.transfer_mape,
            "per_gpu_mape": fold.per_gpu_mape,
            "n_rows": fold.n_rows,
            "n_op_types": fold.n_op_types,
        }
        for fold in report.folds
    }
    mapes = [f["transfer_mape"] for f in folds.values()]
    return {
        "reference_gpu": report.reference_gpu,
        "folds": folds,
        "gpus": sorted(folds),
        "covers_all_gpus": sorted(folds) == sorted(GPU_KEYS),
        "max_transfer_mape": max(mapes),
        "mean_transfer_mape": sum(mapes) / len(mapes),
        "all_finite": all(math.isfinite(m) and m > 0 for m in mapes),
    }


def bench_spec_only(fitted, model: str, repeats: int) -> dict:
    """Warm sweep latency over an admitted GPU vs the profiled V100.

    Same plan shape (one GPU, same counts/batches, on-demand pricing)
    either side; the ratio isolates what synthesizing per-op models from
    the pooled fit adds over reading the paper's per-GPU tables.
    """
    estimator = CeerEstimator(
        fitted.estimator.compute_models, fitted.estimator.comm_model
    )
    job = TrainingJob(IMAGENET, batch_size=32)
    admit_gpu(BENCH_SPEC, usd_per_hr=2.0, max_gpus=4)
    try:
        profiled_plan = SweepPlan.full_catalog(
            batch_sizes=DEFAULT_SWEEP_BATCH_SIZES, pricings=(ON_DEMAND,),
            gpu_keys=("V100",),
        )
        admitted_plan = SweepPlan.full_catalog(
            batch_sizes=DEFAULT_SWEEP_BATCH_SIZES, pricings=(ON_DEMAND,),
            gpu_keys=(BENCH_SPEC.key,),
        )
        evaluate_sweep(estimator, model, job, profiled_plan)  # prime
        profiled_s = best_of(
            lambda: evaluate_sweep(estimator, model, job, profiled_plan),
            repeats,
        )
        evaluate_sweep(estimator, model, job, admitted_plan)  # prime
        admitted_s = best_of(
            lambda: evaluate_sweep(estimator, model, job, admitted_plan),
            repeats,
        )

        result = evaluate_sweep(estimator, model, job, admitted_plan)
        points = list(result.predictions())
        all_finite = bool(points) and all(
            math.isfinite(p.total_us) and p.total_us > 0
            and math.isfinite(p.cost_dollars) and p.cost_dollars > 0
            for p in points
        )
        prediction = estimator.predict_training(model, BENCH_SPEC.key, 2, job)
        return {
            "gpu_key": BENCH_SPEC.key,
            "model": model,
            "candidates": len(points),
            "profiled_warm_ms": profiled_s * MS_PER_S,
            "admitted_warm_ms": admitted_s * MS_PER_S,
            "overhead_ratio": admitted_s / profiled_s,
            "all_finite": all_finite,
            "uncertainty_positive": prediction.compute_std_us > 0
            and prediction.total_std_hours > 0,
        }
    finally:
        clear_admitted(BENCH_SPEC.key)


def run(args: argparse.Namespace) -> dict:
    t0 = time.perf_counter()
    fitted = fit_ceer(n_iterations=args.iterations, backend="transfer")
    fit_s = time.perf_counter() - t0
    return {
        "benchmark": "transfer",
        "config": {
            "model": args.model,
            "fit_iterations": args.iterations,
            "repeats": args.repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "fit_seconds": fit_s,
        "logo": bench_logo(fitted),
        "spec_only": bench_spec_only(fitted, args.model, args.repeats),
    }


def render(report: dict) -> str:
    logo = report["logo"]
    spec = report["spec_only"]
    lines = [
        f"transfer benchmark (LOGO over {len(logo['gpus'])} GPUs, "
        f"reference {logo['reference_gpu']})",
    ]
    for gpu in logo["gpus"]:
        fold = logo["folds"][gpu]
        lines.append(
            f"  holdout {gpu:<5s} transfer MAPE {fold['transfer_mape']:7.1%} "
            f"| per-GPU in-sample {fold['per_gpu_mape']:6.1%} "
            f"({fold['n_rows']} rows, {fold['n_op_types']} op types)"
        )
    lines.append(
        f"  spec-only sweep ({spec['gpu_key']}, {spec['candidates']} "
        f"candidates): warm {spec['admitted_warm_ms']:.3f} ms vs profiled "
        f"V100 {spec['profiled_warm_ms']:.3f} ms "
        f"({spec['overhead_ratio']:.2f}x)"
    )
    lines.append(
        f"  finite predictions: {'OK' if spec['all_finite'] else 'FAIL'} | "
        f"uncertainty bands: "
        f"{'OK' if spec['uncertainty_positive'] else 'FAIL'}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--model", default="resnet_50",
                        help="zoo model for the spec-only sweep")
    parser.add_argument("--iterations", type=int, default=60,
                        help="profiling iterations for the fit")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats (best-of)")
    parser.add_argument("--max-overhead", type=float, default=3.0,
                        help="fail if the spec-only warm sweep is more than "
                             "this many times slower than the profiled one")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    report = run(args)
    print(render(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.json}")
    if not report["logo"]["covers_all_gpus"]:
        print("WARNING: LOGO report does not cover every profiled GPU",
              file=sys.stderr)
        return 1
    if not report["logo"]["all_finite"]:
        print("WARNING: non-finite LOGO MAPE", file=sys.stderr)
        return 1
    if not report["spec_only"]["all_finite"]:
        print("WARNING: non-finite spec-only sweep prediction",
              file=sys.stderr)
        return 1
    if not report["spec_only"]["uncertainty_positive"]:
        print("WARNING: spec-only prediction lacks uncertainty bands",
              file=sys.stderr)
        return 1
    if report["spec_only"]["overhead_ratio"] > args.max_overhead:
        print(f"WARNING: spec-only sweep overhead "
              f"{report['spec_only']['overhead_ratio']:.2f}x exceeds the "
              f"{args.max_overhead:.1f}x budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
