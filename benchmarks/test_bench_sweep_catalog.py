"""Benchmark: batched catalog sweep vs one ``predict_training`` per candidate.

Times a full-catalog sweep (every priceable (GPU, count) x 12 batch sizes
x 3 pricing tiers = 1296 candidates) both ways and asserts the batched
path's contract: >= 10x faster warm than the per-candidate loop, with
every candidate matching the scalar per-op oracle within 1e-9 relative
tolerance. Runs at the canonical experiment configuration like every
other benchmark; the assertions make catalog-sweep regressions fail here
rather than slowing the tier-1 test suite.
"""

import time

from repro.core.batch import SweepPlan, evaluate_sweep
from repro.core.estimator import CeerEstimator
from repro.experiments.common import IMAGENET_JOB, fitted_ceer
from repro.units import us_to_hr
from repro.workloads.dataset import TrainingJob
from tests.oracle import REL_TOL, oracle_sweep

MODEL = "inception_v3"


def test_bench_sweep_catalog(benchmark, emit):
    fitted = fitted_ceer()
    estimator = CeerEstimator(
        fitted.estimator.compute_models, fitted.estimator.comm_model
    )
    plan = SweepPlan.full_catalog()

    cells = list(evaluate_sweep(estimator, MODEL, IMAGENET_JOB, plan).iter_candidates())

    def per_candidate():
        return [
            estimator.predict_training(
                MODEL, plan.gpu_keys[g], plan.gpu_counts[k],
                TrainingJob(IMAGENET_JOB.dataset, batch_size=plan.batch_sizes[b],
                            epochs=IMAGENET_JOB.epochs),
                pricing=plan.pricings[p],
            )
            for p, g, k, b in cells
        ]

    # Prime the graph, compile and totals caches so the loop timing
    # measures its per-candidate dispatch, not one-off compilation.
    per_candidate()
    t0 = time.perf_counter()
    per_candidate()
    loop_s = time.perf_counter() - t0

    result = benchmark.pedantic(
        lambda: evaluate_sweep(estimator, MODEL, IMAGENET_JOB, plan),
        rounds=5, iterations=1,
    )
    warm_s = benchmark.stats.stats.min

    assert result.n_candidates >= 1000
    speedup = loop_s / warm_s
    assert speedup >= 10.0, f"catalog speedup {speedup:.1f}x below 10x target"

    # Every priceable candidate matches the scalar oracle.
    reference = oracle_sweep(estimator, MODEL, IMAGENET_JOB, plan)
    assert len(cells) == len(reference)
    worst = 0.0
    for cell, ref in zip(cells, reference):
        got = result.prediction(*cell)
        assert got.instance_name == ref.instance_name
        worst = max(worst, abs(got.total_us - ref.total_us) / ref.total_us)
        worst = max(
            worst, abs(got.cost_dollars - ref.cost_dollars) / ref.cost_dollars
        )
    assert worst <= REL_TOL

    frontier = result.frontier()
    lines = [
        f"candidates: {result.n_candidates} "
        f"({len(plan.batch_sizes)} batches x {len(plan.pricings)} pricings)",
        f"loop (warm): {loop_s * 1e3:.2f} ms | "
        f"batched (warm): {warm_s * 1e3:.3f} ms | {speedup:.0f}x",
        f"max rel diff: {worst:.2e}",
        f"frontier ({len(frontier)} points, fastest-first):",
    ]
    lines += [
        f"  {p.instance_name:<24s} {p.num_gpus}x{p.gpu_key:<5s} "
        f"batch {p.batch_size:<4d} {us_to_hr(p.total_us):.2f} h  "
        f"${p.cost_dollars:.2f}"
        for p in frontier
    ]
    emit("sweep_catalog", "\n".join(lines))
