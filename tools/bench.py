#!/usr/bin/env python
"""One benchmark tool for Ceer's speed and correctness contracts.

Four sections, each written as one report, ``BENCH_<name>.json``:

* ``catalog`` (``BENCH_sweep_catalog.json``) — a per-candidate
  ``predict_training`` loop against the batched sweep
  (:func:`repro.core.batch.evaluate_sweep`) on the full AWS catalog plan,
  cold and warm, one warm single prediction, and every zoo model's
  batched sweep checked against the scalar Eq. (2) oracle
  (``tests/oracle.py``);
* ``transfer`` (``BENCH_transfer.json``) — leave-one-GPU-out (LOGO)
  accuracy of the pooled transfer fit, and the warm sweep over a
  spec-only admitted GPU against the profiled V100;
* ``spot`` (``BENCH_spot_rerank.json``) — the incremental spot re-rank
  against a warmed full re-sweep, their bit-identical rankings over
  several ticks, and the mask-not-raise contract for an admitted GPU
  without a spot ratio;
* ``serve`` (``BENCH_serve.json``) — endpoint sanity, mixed load,
  warm-vs-cold first query, coalescing and hot swap under live traffic,
  in process over ASGI; with ``--url``, endpoints and load only, over
  real HTTP/1.1 against a running ``repro serve``.

Estimators come from the artifact workspace (``fitted_ceer`` at
:data:`FIT_ITERATIONS`, per-GPU and, where a section needs it, the
transfer backend), so a full run fits at most twice and a warm workspace
not at all. Latency does not depend on the profiling iterations.

The tool measures; ``tools/perf_gate.py`` judges the reports by the
gates their committed baselines carry. Writing a report over a committed
baseline refreshes its values and keeps its gates; every report written
also appends one line (commit, host, Python, numpy, every numeric value)
to ``BENCH_history.jsonl`` in the same directory, which no gate reads.

Usage::

    PYTHONPATH=src python tools/bench.py --out perf-fresh     # all four sections
    python tools/perf_gate.py perf-fresh/BENCH_*.json
    PYTHONPATH=src python tools/bench.py serve --url http://127.0.0.1:8123 --out serve-smoke
    PYTHONPATH=src python tools/bench.py --out .         # refresh the baselines
"""

from __future__ import annotations

# Benchmarks time wall-clock by design.
# staticcheck: ignore-file[determinism]

import argparse
import asyncio
import json
import math
import platform
import random
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import urlparse

import numpy as np

from perf_gate import ROOT, write_report
from repro.artifacts.workspace import active_workspace
from repro.cloud.catalog import admit_gpu, clear_admitted
from repro.cloud.pricing import MARKET_RATIO, ON_DEMAND, SPOT, PricingScheme
from repro.cloud.spotsim import SpotMarket
from repro.core.batch import (
    DEFAULT_SWEEP_BATCH_SIZES,
    DEFAULT_SWEEP_PRICINGS,
    SweepPlan,
    evaluate_sweep,
)
from repro.core.classify import classify_operations
from repro.core.estimator import CeerEstimator
from repro.core.persistence import save_estimator
from repro.core.preempt import DEFAULT_PREEMPTION
from repro.core.recommend import SpotRiskObjective
from repro.core.rerank import SpotRerankSession
from repro.core.transfer import logo_report
from repro.errors import CatalogError
from repro.hardware.gpus import GPU_KEYS, GpuSpec
from repro.models.zoo import build_model, model_names
from repro.obs.export import write_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import disable_tracing, enable_tracing
from repro.serve.app import ServeApp, ServeState
from repro.units import MS_PER_S, s_to_us
from repro.workloads.dataset import IMAGENET, TrainingJob

#: Profiling iterations of the workspace fits.
FIT_ITERATIONS = 60
#: Every timer runs at least REPEATS times and for at least MIN_TIMED_S,
#: keeping the best: a sub-millisecond side needs hundreds of runs for its
#: best to get clear of a burst of host noise.
REPEATS = 5
MIN_TIMED_S = 0.2
#: The training job every sweep prices.
JOB = TrainingJob(IMAGENET, batch_size=32)

CATALOG_MODEL = "inception_v3"
#: Warm single predictions per timed repeat (the mean is reported).
SINGLE_PREDICT_CALLS = 1000

TRANSFER_MODEL = "resnet_50"
#: The spec-only GPU the transfer section admits: a plausible mid-range
#: device between the T4 and the V100, never profiled.
TRANSFER_SPEC = GpuSpec(
    key="XBENCH", family="GXB", marketing_name="Bench Spec-Only GPU",
    cuda_cores=4096, tensor_cores=256, memory_gb=24,
    peak_gflops=12000.0, memory_bandwidth_gbps=600.0,
    launch_overhead_us=4.0, saturation_elements=1.0e6,
    comm_base_us=4000.0, comm_us_per_mparam=300.0,
)

SPOT_MODEL = "inception_v3"
#: 32 batch sizes x the priceable (GPU, count) grid -> 1000+ candidates.
SPOT_BATCH_SIZES = tuple(range(8, 264, 8))
SPOT_SEED = 2020
SPOT_TICKS = 4
SPOT_RISK_AVERSION_USD_PER_HR = 0.5
#: An admitted GPU with an on-demand price but no spot ratio.
SPOT_ADMITTED_SPEC = GpuSpec(
    key="BENCHX", family="PX", marketing_name="Bench X",
    cuda_cores=4608, tensor_cores=576, memory_gb=24.0,
    peak_gflops=16300.0, memory_bandwidth_gbps=672.0,
    launch_overhead_us=3.4, saturation_elements=2.0e7,
    comm_base_us=190.0, comm_us_per_mparam=4.1,
)

#: The mixed query pool is drawn with this seed: every run replays the
#: same request sequence, so reports are comparable across commits.
POOL_SEED = 20200827  # IISWC 2020 paper id, arbitrary but fixed
POOL_SIZE = 64
#: Consecutive pool entries that collapse to one (a hotter cache, like
#: real clients asking popular questions).
POOL_DUPLICATION = 4
SERVE_MODELS = ("alexnet", "resnet_50", "vgg_16", "inception_v3")
SERVE_GPUS = ("V100", "K80", "T4", "M60")
#: (workers, requests per worker) of the load section, in process and
#: against a live server over HTTP.
LOAD_SHAPE = {"in-process": (8, 400), "url": (4, 40)}
#: Cold-start trials the warm-vs-cold numbers are the medians of.
COLD_TRIALS = 5
COALESCE_BURST = 16
#: (distinct, identical) burst pairs the coalesce ratio is the median of.
COALESCE_PAIRS = 7
HOTSWAP_WORKERS = 8
HOTSWAP_RELOADS = 4
#: Each hot-swap client pauses this long after every request.
HOTSWAP_PAUSE_S = 0.001
#: Hot-swap clients stop after this long even if a reload is unfinished;
#: the reload then completes uncontended. Runs take ~0.1 s.
HOTSWAP_DEADLINE_S = 10.0


def best_of(fn: Callable[[], Any]) -> float:
    """Minimum wall-clock seconds of ``fn()`` over at least :data:`REPEATS`
    runs and :data:`MIN_TIMED_S` of timed work."""
    best, runs, spent_s = float("inf"), 0, 0.0
    while runs < REPEATS or spent_s < MIN_TIMED_S:
        t0 = time.perf_counter()
        fn()
        elapsed_s = time.perf_counter() - t0
        best, runs, spent_s = min(best, elapsed_s), runs + 1, spent_s + elapsed_s
    return best


def fitted(backend: str = "per_gpu") -> CeerEstimator:
    """The workspace fit's estimator (fits on a cold workspace)."""
    return active_workspace().fitted_ceer(FIT_ITERATIONS, backend=backend).estimator


def cold(estimator: CeerEstimator) -> CeerEstimator:
    """A new estimator over the same fit: every engine cache cold."""
    return CeerEstimator(estimator.compute_models, estimator.comm_model)


# -- catalog ---------------------------------------------------------------
def predict_each(estimator: CeerEstimator, model: str, plan: SweepPlan) -> list:
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
                    cell_job = TrainingJob(JOB.dataset, batch_size=batch_size,
                                           epochs=JOB.epochs)
                    predictions.append(estimator.predict_training(
                        model, gpu_key, num_gpus, cell_job,
                        pricing=pricing, instance=instance,
                    ))
    return predictions


def catalog_plan() -> SweepPlan:
    return SweepPlan.full_catalog(batch_sizes=DEFAULT_SWEEP_BATCH_SIZES,
                                  pricings=DEFAULT_SWEEP_PRICINGS)


def bench_catalog_sweep() -> Dict[str, Any]:
    """The per-candidate loop vs the batched path on one shared plan.

    Both paths are primed before timing so the engine's graph caches are
    hot for each: the measured gap is the per-candidate Python dispatch
    the batched path removes, not one-off graph compilation. The cold
    sweep rebuilds the estimator and the plan, so stacking, compiling
    and the price grid are all paid again.
    """
    model, plan, fit = CATALOG_MODEL, catalog_plan(), fitted()
    estimator = cold(fit)
    predict_each(estimator, model, plan)
    loop_s = best_of(lambda: predict_each(estimator, model, plan))

    def single_predicts() -> None:
        for _ in range(SINGLE_PREDICT_CALLS):
            estimator.predict_training(model, "V100", 1, JOB)

    single_s = best_of(single_predicts) / SINGLE_PREDICT_CALLS
    cold_s = best_of(lambda: evaluate_sweep(cold(fit), model, JOB, catalog_plan()))
    evaluate_sweep(estimator, model, JOB, plan)
    warm_s = best_of(lambda: evaluate_sweep(estimator, model, JOB, plan))
    return {
        "model": model,
        "candidates": evaluate_sweep(estimator, model, JOB, plan).n_candidates,
        "n_cells": plan.n_cells,
        "loop_warm_ms": loop_s * MS_PER_S,
        "batched_cold_ms": cold_s * MS_PER_S,
        "batched_warm_ms": warm_s * MS_PER_S,
        "single_predict_warm_us": s_to_us(single_s),
        "speedup_cold": loop_s / cold_s,
        "speedup_warm": loop_s / warm_s,
    }


def check_catalog_oracle() -> Dict[str, Any]:
    """Max relative difference between every zoo model's batched sweep and
    the scalar oracle, over each priced candidate's time and cost."""
    sys.path.insert(0, str(ROOT))
    from tests.oracle import oracle_sweep

    estimator, plan = cold(fitted()), catalog_plan()
    worst, checked = 0.0, 0
    for name in model_names():
        result = evaluate_sweep(estimator, name, JOB, plan)
        cells = list(result.iter_candidates())
        reference = oracle_sweep(estimator, name, JOB, plan)
        if len(cells) != len(reference):
            raise SystemExit(f"candidate sets disagree for {name!r}: batched has "
                             f"{len(cells)}, the oracle has {len(reference)}")
        for cell, ref in zip(cells, reference):
            got = result.prediction(*cell)
            for field in ("total_us", "cost_dollars"):
                ref_v = getattr(ref, field)
                worst = max(worst, abs(getattr(got, field) - ref_v) / ref_v)
                checked += 1
    return {"max_rel_diff": worst, "checked": checked,
            "models": len(model_names()), "candidates_per_model": len(reference)}


def run_catalog(trace_out: Optional[Path]) -> Dict[str, Any]:
    if trace_out is not None:
        # Traced demo pass, separate from the timed runs so the span
        # instrumentation never skews the reported numbers.
        estimator, plan = cold(fitted()), catalog_plan()
        tracer = enable_tracing()
        try:
            evaluate_sweep(estimator, CATALOG_MODEL, JOB, plan)  # cold
            evaluate_sweep(estimator, CATALOG_MODEL, JOB, plan)  # warm
        finally:
            disable_tracing()
        write_trace(trace_out, tracer)
        print(f"wrote trace of cold+warm catalog sweep to {trace_out}")
    plan = catalog_plan()
    return {
        "config": {"model": CATALOG_MODEL, "batch_sizes": list(plan.batch_sizes),
                   "pricings": [p.name for p in plan.pricings]},
        "sweep": bench_catalog_sweep(),
        "equivalence": check_catalog_oracle(),
    }


# -- transfer --------------------------------------------------------------
def bench_logo() -> Dict[str, Any]:
    """Leave-one-GPU-out accuracy of the pooled transfer fit."""
    profiles = active_workspace().training_profiles(FIT_ITERATIONS)
    report = logo_report(profiles, classify_operations(profiles))
    folds = {
        fold.gpu_key: {"transfer_mape": fold.transfer_mape,
                       "per_gpu_mape": fold.per_gpu_mape,
                       "n_rows": fold.n_rows, "n_op_types": fold.n_op_types}
        for fold in report.folds
    }
    mapes = [f["transfer_mape"] for f in folds.values()]
    return {
        "reference_gpu": report.reference_gpu,
        "folds": folds,
        "gpus": sorted(folds),
        "max_transfer_mape": max(mapes),
        "mean_transfer_mape": sum(mapes) / len(mapes),
        "all_finite": all(math.isfinite(m) and m > 0 for m in mapes),
    }


def bench_spec_only() -> Dict[str, Any]:
    """Warm sweep latency over an admitted GPU vs the profiled V100.

    Same plan shape either side (one GPU, on-demand pricing); the ratio
    isolates what synthesizing per-op models from the pooled fit adds
    over reading the paper's per-GPU tables.
    """
    model, spec = TRANSFER_MODEL, TRANSFER_SPEC
    estimator = cold(fitted("transfer"))

    def plan_for(gpu_key: str) -> SweepPlan:
        return SweepPlan.full_catalog(batch_sizes=DEFAULT_SWEEP_BATCH_SIZES,
                                      pricings=(ON_DEMAND,), gpu_keys=(gpu_key,))

    admit_gpu(spec, usd_per_hr=2.0, max_gpus=4)
    try:
        profiled, admitted = plan_for("V100"), plan_for(spec.key)
        evaluate_sweep(estimator, model, JOB, profiled)
        profiled_s = best_of(lambda: evaluate_sweep(estimator, model, JOB, profiled))
        evaluate_sweep(estimator, model, JOB, admitted)
        admitted_s = best_of(lambda: evaluate_sweep(estimator, model, JOB, admitted))
        points = list(evaluate_sweep(estimator, model, JOB, admitted).predictions())
        prediction = estimator.predict_training(model, spec.key, 2, JOB)
    finally:
        clear_admitted(spec.key)
    return {
        "gpu_key": spec.key,
        "model": model,
        "candidates": len(points),
        "profiled_warm_ms": profiled_s * MS_PER_S,
        "admitted_warm_ms": admitted_s * MS_PER_S,
        "overhead_ratio": admitted_s / profiled_s,
        "all_finite": bool(points) and all(
            math.isfinite(p.total_us) and p.total_us > 0
            and math.isfinite(p.cost_dollars) and p.cost_dollars > 0
            for p in points),
        "uncertainty_positive": prediction.compute_std_us > 0
        and prediction.total_std_hours > 0,
    }


def run_transfer() -> Dict[str, Any]:
    return {"config": {"model": TRANSFER_MODEL},
            "logo": bench_logo(), "spec_only": bench_spec_only()}


# -- spot ------------------------------------------------------------------
def spot_session(estimator: CeerEstimator) -> SpotRerankSession:
    return SpotRerankSession.from_estimator(estimator, SPOT_MODEL, JOB,
                                            batch_sizes=SPOT_BATCH_SIZES)


def spot_resweep(estimator: CeerEstimator, pricing: PricingScheme):
    """A full re-sweep at a tick's prices, on a new plan: what every tick
    would cost without the re-rank layer."""
    plan = SweepPlan.full_catalog(batch_sizes=SPOT_BATCH_SIZES, pricings=(pricing,))
    return plan, evaluate_sweep(estimator, SPOT_MODEL, JOB, plan)


def bench_rerank() -> Dict[str, Any]:
    """Warmed full re-sweep vs incremental re-rank at one tick."""
    estimator = cold(fitted())
    session = spot_session(estimator)
    market = SpotMarket(seed=SPOT_SEED)
    market.tick()
    pricing, ratios, hazards = market.pricing(), market.ratios(), market.hazards_per_hr()
    spot_resweep(estimator, pricing)
    resweep_s = best_of(lambda: spot_resweep(estimator, pricing))
    rerank_s = best_of(lambda: session.rerank(ratios, hazards))
    return {
        "candidates": session.rerank(ratios, hazards).n_candidates,
        "resweep_warm_ms": resweep_s * MS_PER_S,
        "rerank_ms": rerank_s * MS_PER_S,
        "speedup": resweep_s / rerank_s,
    }


def check_rerank_equivalence() -> Dict[str, Any]:
    """Re-rank vs the full re-sweep's predictions scored through
    :class:`SpotRiskObjective` under a stable sort, tick by tick."""
    estimator = cold(fitted())
    session = spot_session(estimator)
    market = SpotMarket(seed=SPOT_SEED)
    objective = SpotRiskObjective(risk_aversion_usd_per_hr=SPOT_RISK_AVERSION_USD_PER_HR)
    mismatches, checked, scores_equal = 0, 0, True
    for tick in range(SPOT_TICKS):
        if tick > 0:
            market.tick()
        ranking = session.rerank(market.ratios(), market.hazards_per_hr(),
                                 risk_aversion_usd_per_hr=SPOT_RISK_AVERSION_USD_PER_HR)
        plan, result = spot_resweep(estimator, market.pricing())
        hazards = market.hazards_per_hr()
        oracle = sorted((
            replace(result.prediction(p, g, k, b),
                    hazard_per_hr=hazards[plan.gpu_keys[g]],
                    preempt_overhead_iterations=DEFAULT_PREEMPTION.overhead_iterations)
            for p, g, k, b in result.iter_candidates()
        ), key=objective.score)
        if len(oracle) != ranking.n_candidates:
            raise SystemExit(f"candidate sets disagree at tick {tick}: rerank has "
                             f"{ranking.n_candidates}, full re-sweep has {len(oracle)}")
        for got, ref in zip(ranking.predictions(), oracle):
            checked += 1
            mismatches += (got.instance_name, got.batch_size) != (
                ref.instance_name, ref.batch_size)
        scores_equal &= np.array_equal(
            ranking.scores, np.array([objective.score(p) for p in oracle]))
    return {"ticks_checked": SPOT_TICKS, "candidates": checked // SPOT_TICKS,
            "ranking_mismatches": mismatches, "scores_bitwise_equal": bool(scores_equal)}


def check_admitted_masking() -> Dict[str, Any]:
    """A sweep over the catalog plus a ratio-less admitted GPU masks the
    admitted GPU's spot and market cells (no quote -> NaN cost) instead of
    raising, and prices its on-demand cells. Needs the transfer backend
    to synthesize the admitted GPU's compute model."""
    spec = SPOT_ADMITTED_SPEC
    admit_gpu(spec, usd_per_hr=2.0, replace=True)  # no spot_ratio
    try:
        plan = SweepPlan.full_catalog(
            batch_sizes=(32,), pricings=(ON_DEMAND, SPOT, MARKET_RATIO),
            gpu_keys=tuple(GPU_KEYS) + (spec.key,),
        )
        result = evaluate_sweep(cold(fitted("transfer")), SPOT_MODEL, JOB, plan)
    finally:
        clear_admitted()
    priced = np.isfinite(result.cost_usd[:, plan.gpu_keys.index(spec.key)])
    flags = {"admitted_on_demand_priced": bool(priced[0].any()),
             "admitted_spot_masked": not priced[1].any(),
             "admitted_market_masked": not priced[2].any()}
    return dict(flags, spot_admitted_sweep_ok=all(flags.values()))


def run_spot() -> Dict[str, Any]:
    return {
        "config": {"model": SPOT_MODEL, "seed": SPOT_SEED, "ticks": SPOT_TICKS,
                   "risk_aversion_usd_per_hr": SPOT_RISK_AVERSION_USD_PER_HR,
                   "batch_sizes": list(SPOT_BATCH_SIZES)},
        "rerank": bench_rerank(),
        "equivalence": check_rerank_equivalence(),
        "admitted": check_admitted_masking(),
    }


# -- serve -----------------------------------------------------------------
Body = Optional[Dict[str, Any]]


def build_query_pool() -> List[Tuple[str, Dict[str, Any]]]:
    """Distinct (endpoint, body) pairs: ~60% predict, ~30% recommend,
    ~10% pareto, drawn deterministically."""
    rng = random.Random(POOL_SEED)
    pool: List[Tuple[str, Dict[str, Any]]] = []
    for i in range(POOL_SIZE):
        roll = rng.random()
        model = SERVE_MODELS[i % len(SERVE_MODELS)]
        if roll < 0.6:
            pool.append(("/predict", {
                "model": model, "gpu": SERVE_GPUS[rng.randrange(len(SERVE_GPUS))],
                "gpus": rng.randrange(1, 5), "batch": rng.choice((16, 32, 64)),
            }))
        elif roll < 0.9:
            pool.append(("/recommend", {
                "model": model, "objective": rng.choice(("min-cost", "min-time")),
                "batch": rng.choice((16, 32)),
            }))
        else:
            pool.append(("/pareto", {"model": model, "batches": [rng.choice((16, 32))]}))
    return pool


class AsgiTransport:
    """Awaits the app object directly: no sockets, no serialization skew."""

    def __init__(self, app: ServeApp) -> None:
        self.app = app

    async def request(self, method: str, path: str, body: Body = None) -> Tuple[int, Any]:
        raw = json.dumps(body).encode() if body is not None else b""
        status_box: Dict[str, int] = {}
        chunks: List[bytes] = []

        async def receive() -> Dict[str, Any]:
            return {"type": "http.request", "body": raw, "more_body": False}

        async def send(message: Dict[str, Any]) -> None:
            if message["type"] == "http.response.start":
                status_box["status"] = message["status"]
            else:
                chunks.append(message.get("body", b""))

        scope = {"type": "http", "method": method, "path": path, "query_string": b""}
        await self.app(scope, receive, send)
        return status_box.get("status", 0), _decode(b"".join(chunks))

    async def close(self) -> None:
        pass


class HttpTransport:
    """One keep-alive HTTP/1.1 connection per client to a live server."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: Body = None) -> Tuple[int, Any]:
        if self._reader is None or self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        raw = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nhost: {self.host}:{self.port}\r\n"
                f"content-type: application/json\r\ncontent-length: {len(raw)}\r\n\r\n")
        self._writer.write(head.encode("ascii") + raw)
        await self._writer.drain()
        status = int((await self._reader.readuntil(b"\r\n")).split(b" ")[1])
        content_length, close_after = 0, False
        while True:
            line = await self._reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.strip().partition(b":")
            name, value = name.strip().lower(), value.strip().lower()
            if name == b"content-length":
                content_length = int(value)
            close_after |= name == b"connection" and value == b"close"
        payload = await self._reader.readexactly(content_length)
        if close_after:
            await self.close()
        return status, _decode(payload)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


def _decode(payload: bytes) -> Any:
    text = payload.decode("utf-8", "replace")
    try:
        return json.loads(text)
    except ValueError:
        return text


def parse_url(url: str) -> Tuple[str, int]:
    parsed = urlparse(url)
    if parsed.scheme not in ("http", "") or parsed.hostname is None:
        raise ValueError(f"--url must be http://host:port, got {url!r}")
    return parsed.hostname, parsed.port or 80


async def bench_endpoints(make_transport: Callable[[], Any]) -> Dict[str, Any]:
    """One request per endpoint."""
    transport = make_transport()
    results: Dict[str, Any] = {}
    try:
        status, doc = await transport.request("GET", "/healthz")
        results["healthz"] = {"status": status, "generation": doc.get("generation")}
        for path, body in (("/predict", {"model": "alexnet", "gpu": "V100"}),
                           ("/recommend", {"model": "resnet_50"}),
                           ("/pareto", {"model": "alexnet"})):
            status, _ = await transport.request("POST", path, body)
            results[path.lstrip("/")] = {"status": status}
        status, _ = await transport.request("GET", "/metrics")
        results["metrics"] = {"status": status}
    finally:
        await transport.close()
    results["all_ok"] = all(r["status"] == 200 for r in results.values())
    return results


async def bench_load(make_transport: Callable[[], Any], workers: int,
                     requests_per_worker: int) -> Dict[str, Any]:
    """Mixed sustained load: each client walks a deterministic schedule
    over the query pool and yields after every request (a cache hit
    completes without suspending, so a client that never yields would
    keep the others, and the lane's answers, waiting)."""
    pool = build_query_pool()
    latencies_ms: List[float] = []
    errors: List[Any] = []

    async def client(wid: int) -> None:
        transport = make_transport()
        rng = random.Random(POOL_SEED + wid)
        try:
            for _ in range(requests_per_worker):
                path, body = pool[rng.randrange(len(pool) // POOL_DUPLICATION)
                                  * POOL_DUPLICATION % len(pool)]
                t0 = time.perf_counter()
                status, doc = await transport.request("POST", path, body)
                latencies_ms.append((time.perf_counter() - t0) * MS_PER_S)
                if status != 200:
                    errors.append((path, status, doc))
                await asyncio.sleep(0)
        finally:
            await transport.close()

    t0 = time.perf_counter()
    await asyncio.gather(*[client(w) for w in range(workers)])
    wall_s = time.perf_counter() - t0
    latencies_ms.sort()
    total = workers * requests_per_worker
    return {
        "workers": workers,
        "requests": total,
        "errors": len(errors),
        "error_sample": errors[:3],
        "wall_s": wall_s,
        "qps": total / wall_s,
        "p50_ms": statistics.median(latencies_ms),
        "p99_ms": latencies_ms[min(len(latencies_ms) - 1, int(len(latencies_ms) * 0.99))],
        "max_ms": latencies_ms[-1],
    }


async def bench_warm_vs_cold(estimator_path: str) -> Dict[str, Any]:
    """First-query latency on an unwarmed snapshot (graph build + compile +
    coefficient stacking) vs a fresh evaluation through warm caches.

    Each of :data:`COLD_TRIALS` trials starts a new ``ServeState(warm=False)``
    after emptying the process-wide graph cache (what earlier sections or
    trials left in it would otherwise decide whether the cold side builds a
    graph), times its first query, then the best of 5 fresh evaluations
    and one cache hit. Every number reported is the median over the
    trials: one cold request spreads too widely to gate on."""
    body = {"model": "resnet_101", "gpu": "V100", "gpus": 2}

    async def timed(transport: AsgiTransport, request_body: Dict[str, Any]) -> float:
        t0 = time.perf_counter()
        status, doc = await transport.request("POST", "/predict", request_body)
        elapsed_s = time.perf_counter() - t0
        if status != 200:
            raise SystemExit(f"warm-vs-cold request failed: {status} {doc}")
        return elapsed_s

    async def trial() -> Tuple[float, float, float]:
        build_model.cache_clear()
        state = ServeState(estimator_path, warm=False)
        transport = AsgiTransport(ServeApp(state))
        try:
            cold_s = await timed(transport, body)
            # A new `samples` value forces a fresh evaluation, not an LRU hit.
            warm_s = min([await timed(transport, dict(body, samples=1_200_001 + i))
                          for i in range(5)])
            return cold_s, warm_s, await timed(transport, body)
        finally:
            state.close()

    trials = [await trial() for _ in range(COLD_TRIALS)]
    cold_s, warm_s, hit_s = (statistics.median(column) for column in zip(*trials))
    return {"trials": COLD_TRIALS, "cold_ms": cold_s * MS_PER_S,
            "warm_eval_ms": warm_s * MS_PER_S, "cache_hit_ms": hit_s * MS_PER_S,
            "warm_vs_cold_ratio": cold_s / warm_s}


async def bench_coalesce(estimator_path: str) -> Dict[str, Any]:
    """Bursts of distinct concurrent ``/recommend`` queries vs bursts of
    identical ones, each identical burst collapsing to one evaluation
    (counted by the registry). :data:`COALESCE_PAIRS` (distinct,
    identical) pairs, each on ``samples`` values no earlier burst sent, so
    every burst starts with a miss; the ratio is the median of the pairs'
    ratios. A full-catalog recommendation costs several times a cache
    hit; a warm ``/predict`` costs about as much as one, so its steady
    ratio (about 1.6 on a 2-vCPU host) would mostly measure the request
    overhead."""
    registry = MetricsRegistry()
    state = ServeState(estimator_path, warm=True, models=("resnet_50",), registry=registry)
    transport = AsgiTransport(ServeApp(state))

    def evaluations() -> int:
        return sum(r["value"] for r in registry.snapshot() if r["name"] == "serve.evaluations")

    async def burst(bodies: List[Dict[str, Any]]) -> float:
        t0 = time.perf_counter()
        results = await asyncio.gather(*[transport.request("POST", "/recommend", b)
                                         for b in bodies])
        elapsed_s = time.perf_counter() - t0
        if any(status != 200 for status, _ in results):
            raise SystemExit(f"coalesce burst failed: {results[0]}")
        return elapsed_s

    distinct_s: List[float] = []
    identical_s: List[float] = []
    identical_evaluations: List[int] = []
    try:
        for pair in range(COALESCE_PAIRS):
            samples = 1_200_000 + pair * (COALESCE_BURST + 1)
            distinct_s.append(await burst([
                {"model": "resnet_50", "samples": samples + i}
                for i in range(COALESCE_BURST)
            ]))
            before = evaluations()
            identical_s.append(await burst(
                [{"model": "resnet_50", "samples": samples + COALESCE_BURST}]
                * COALESCE_BURST))
            identical_evaluations.append(evaluations() - before)
    finally:
        state.close()
    return {"burst": COALESCE_BURST, "pairs": COALESCE_PAIRS,
            "distinct_wall_ms": statistics.median(distinct_s) * MS_PER_S,
            "identical_wall_ms": statistics.median(identical_s) * MS_PER_S,
            "coalesce_ratio": statistics.median(
                [d / i for d, i in zip(distinct_s, identical_s)]),
            "identical_evaluations": max(identical_evaluations)}


async def bench_hotswap(estimator_path: str) -> Dict[str, Any]:
    """A client fleet across live reloads: nothing drops, nothing mixes.

    Clients run until every swap has completed, so traffic overlaps each
    reload, and every successful response carries a generation stamp.
    Each pauses :data:`HOTSWAP_PAUSE_S` after a request: clients that only
    yield keep the event loop busy, and in a process whose earlier work
    had started OpenBLAS's threads, a reload on the lane then stalled for
    seconds. The clients stop at :data:`HOTSWAP_DEADLINE_S` regardless.
    """
    state = ServeState(estimator_path, warm=True, models=("alexnet",))
    app = ServeApp(state)
    pool = [("/predict", {"model": "alexnet", "gpu": SERVE_GPUS[i % len(SERVE_GPUS)],
                          "gpus": 1 + i % 4}) for i in range(16)]
    dropped: List[Any] = []
    generations: set = set()
    reload_ms: List[float] = []
    done = 0
    stop = asyncio.Event()
    deadline = time.perf_counter() + HOTSWAP_DEADLINE_S

    async def client(wid: int) -> None:
        nonlocal done
        transport = AsgiTransport(app)
        rng = random.Random(POOL_SEED + wid)
        while not stop.is_set() and time.perf_counter() < deadline:
            path, body = pool[rng.randrange(len(pool))]
            status, doc = await transport.request("POST", path, body)
            if status != 200:
                dropped.append((path, status, doc))
            else:
                generations.add(doc["generation"])
            done += 1
            await asyncio.sleep(HOTSWAP_PAUSE_S)

    async def swapper() -> None:
        try:
            for _ in range(HOTSWAP_RELOADS):
                await asyncio.sleep(0.02)  # traffic on the current generation
                t0 = time.perf_counter()
                await state.reload()
                reload_ms.append((time.perf_counter() - t0) * MS_PER_S)
            await asyncio.sleep(0.02)  # traffic on the final generation
        finally:
            stop.set()

    try:
        t0 = time.perf_counter()
        await asyncio.gather(*[client(w) for w in range(HOTSWAP_WORKERS)], swapper())
        wall_s = time.perf_counter() - t0
    finally:
        state.close()
    return {
        "workers": HOTSWAP_WORKERS,
        "requests": done,
        "reloads_requested": HOTSWAP_RELOADS,
        "dropped": len(dropped),
        "dropped_sample": dropped[:3],
        "generations_seen": sorted(generations),
        "final_generation": state.holder.generation,
        "overlapped_swaps": len(generations) > 1,
        "reload_ms": reload_ms,
        "deadline_hit": wall_s >= HOTSWAP_DEADLINE_S,
        "wall_s": wall_s,
    }


async def run_serve(url: Optional[str]) -> Dict[str, Any]:
    mode = "url" if url else "in-process"
    workers, requests = LOAD_SHAPE[mode]
    report: Dict[str, Any] = {"config": {
        "mode": mode, "workers": workers, "requests_per_worker": requests,
        "pool_size": POOL_SIZE, "duplication": POOL_DUPLICATION}}
    if url:
        host, port = parse_url(url)
        report["endpoints"] = await bench_endpoints(lambda: HttpTransport(host, port))
        report["load"] = await bench_load(lambda: HttpTransport(host, port),
                                          workers, requests)
        return report
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        estimator_path = str(Path(tmp) / "estimator.json")
        save_estimator(fitted(), estimator_path)
        state = ServeState(estimator_path, warm=True, models=SERVE_MODELS)
        app = ServeApp(state)
        try:
            report["endpoints"] = await bench_endpoints(lambda: AsgiTransport(app))
            report["load"] = await bench_load(lambda: AsgiTransport(app), workers, requests)
        finally:
            state.close()
        report["warm_vs_cold"] = await bench_warm_vs_cold(estimator_path)
        report["coalesce"] = await bench_coalesce(estimator_path)
        report["hotswap"] = await bench_hotswap(estimator_path)
    return report


# -- reports ---------------------------------------------------------------
#: Section name -> (report file, benchmark name).
SECTIONS = {
    "catalog": ("BENCH_sweep_catalog.json", "sweep_catalog"),
    "transfer": ("BENCH_transfer.json", "transfer"),
    "spot": ("BENCH_spot_rerank.json", "spot_rerank"),
    "serve": ("BENCH_serve.json", "serve"),
}


def run_section(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """One section's report: benchmark name, config, then its sections."""
    if name == "catalog":
        body = run_catalog(args.trace_out)
    elif name == "transfer":
        body = run_transfer()
    elif name == "spot":
        body = run_spot()
    else:
        body = asyncio.run(run_serve(args.url))
    config = dict(body.pop("config"), python=platform.python_version(),
                  machine=platform.machine())
    if name != "serve" or not args.url:
        config.update(fit_iterations=FIT_ITERATIONS, repeats=REPEATS,
                      min_timed_s=MIN_TIMED_S)
    return {"benchmark": SECTIONS[name][1], "config": config,
            "sections": list(body), **body}


def render(report: Dict[str, Any]) -> str:
    """Every measured value of a report, one per line."""
    lines = [f"{report['benchmark']} benchmark"]

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}", item)
        elif isinstance(value, float):
            lines.append(f"  {prefix:<44s} {value:.4g}")
        else:
            lines.append(f"  {prefix:<44s} {value}")

    for section in report["sections"]:
        walk(section, report[section])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sections", nargs="*",
                        help=f"sections to run, of {', '.join(SECTIONS)} (default: all)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory to write BENCH_<name>.json reports into "
                             "(gates of a report already there are kept) and "
                             "to append BENCH_history.jsonl lines to")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="write a Chrome trace-event JSON of one untimed "
                             "cold+warm catalog sweep")
    parser.add_argument("--url", default=None,
                        help="bench the serve section against a running server at "
                             "http://host:port (endpoints and load only)")
    args = parser.parse_args(argv)
    sections = args.sections or list(SECTIONS)
    unknown = sorted(set(sections) - set(SECTIONS))
    if unknown:
        parser.error(f"unknown sections {unknown}; choose from {list(SECTIONS)}")
    if args.url is not None:
        if sections != ["serve"]:
            parser.error("--url runs only the serve section: pass `serve --url URL`")
        try:
            parse_url(args.url)
        except ValueError as exc:
            parser.error(str(exc))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    for name in sections:
        report = run_section(name, args)
        print(render(report))
        if args.out is not None:
            path = args.out / SECTIONS[name][0]
            write_report(path, report)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
