"""``offline``: the fit-once workflow, from an empty workspace.

Untraced, every step is a fresh ``python -m repro`` process: three
``repro models`` processes (``setup_s``: interpreter, imports, CLI
parse), then the pipeline of :mod:`perfbench.pipeline` with ``figures
all`` and five warm refits. The Fig. 11 anchor query runs in this
process through ``repro.cli.main``. Then the fitted estimator answers
seeded, distinct "which instance?" queries through direct library
calls, one caller, one query at a time (``p50_ms``, ``p90_ms``,
``throughput_rps``): the fit once, query many pattern, with no serving
layer in between. Every time is scaled to the reference host speed
(``common.HostSpeed``).

Traced, the same commands run in this process through
``repro.cli.main`` so the layer wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import common, pipeline
from perfbench.layers import Tracer, layer_metrics
from perfbench.queries import LibraryAnswers, QuerySource

#: ``repro models`` processes timed for ``setup_s``.
SETUP_PROBES = 3
#: Warm refits timed for ``refit_s``.
REFITS = 5
#: Share of ``--seconds`` spent answering library queries, in slices
#: that each get their own host-speed scale.
QUERY_SHARE = 0.5
QUERY_SLICE_S = 0.5

#: The paper's Fig. 11 answer: cheapest instance for Inception-v3.
ANCHOR_ARGV = ("--model", "inception_v3", "--objective", "min-cost")
ANCHOR_INSTANCE = "g4dn.2xlarge"


def _setup_probes() -> List[Any]:
    """The span of each ``repro models`` process."""
    spans = []
    for _ in range(SETUP_PROBES):
        result = common.run_child(common.repro_cmd("models"), cwd=common.WORK)
        if result["returncode"] != 0:
            raise RuntimeError(f"repro models failed: {result['stderr']}")
        spans.append(result["span"])
    return spans


def _traced_pipeline(run_dir: Path) -> Dict[str, Any]:
    from repro import cli

    spans: Dict[str, Any] = {}
    succeeded: Dict[str, bool] = {}
    for name, argv in pipeline.steps(run_dir, "all", REFITS):
        sink = io.StringIO()
        started_s = time.monotonic()
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv, out=sink)
        spans[name] = (started_s, time.monotonic())
        succeeded[name] = code == 0
    return pipeline.summarize(run_dir, "all", spans, succeeded, {})


def _anchor(estimator: Path) -> Dict[str, Any]:
    from repro import cli

    sink = io.StringIO()
    code = cli.main(["recommend", "--estimator", str(estimator), *ANCHOR_ARGV],
                    out=sink)
    return {"ok": code == 0 and ANCHOR_INSTANCE in sink.getvalue(),
            "returncode": code}


def _query_phase(estimator_path: Path, seed: int,
                 duration_s: float) -> Dict[str, Any]:
    from repro.core.persistence import load_estimator

    answers = LibraryAnswers(load_estimator(estimator_path))
    source = QuerySource(hot=False, seed=seed, stream="offline")
    # Latencies at the reference host speed, each slice scaled by the
    # probe samples taken during it.
    scaled_ms: List[float] = []
    bad = 0
    wall_s = scaled_s = 0.0
    deadline_s = time.monotonic() + duration_s
    while time.monotonic() < deadline_s:
        latencies_ms: List[float] = []
        started_s = time.monotonic()
        slice_end_s = min(started_s + QUERY_SLICE_S, deadline_s)
        while time.monotonic() < slice_end_s:
            query = source.next()
            t0 = time.perf_counter()
            try:
                doc = answers.answer(query)
            except Exception:  # counted as a failed query
                bad += 1
                latencies_ms.append(math.inf)
                continue
            latencies_ms.append((time.perf_counter() - t0) * 1e3)
            if not doc:
                bad += 1
        ended_s = time.monotonic()
        scale = common.SPEED.scale(started_s, ended_s)
        scaled_ms.extend(latency * scale for latency in latencies_ms)
        wall_s += ended_s - started_s
        scaled_s += (ended_s - started_s) * scale
    ordered = sorted(scaled_ms)
    tail = common.tail_percentile(len(ordered))
    return {
        "queries": len(ordered), "failed": bad, "wall_s": wall_s,
        "scaled_s": scaled_s,
        "p50_ms": min(common.percentile(ordered, 50), scaled_s * 1e3),
        "p90_ms": min(common.percentile(ordered, 90), scaled_s * 1e3),
        "p99_ms": min(common.percentile(ordered, 99), scaled_s * 1e3),
        f"p{tail:g}_ms": min(common.percentile(ordered, tail), scaled_s * 1e3),
        "throughput_rps": (len(ordered) - bad) / scaled_s,
    }


def _store_counters(tracer: Optional[Tracer]) -> Dict[str, float]:
    totals = {"hits": 0.0, "misses": 0.0, "compute_s": 0.0, "lock_wait_s": 0.0}
    seen = set()
    for workspace in (tracer.workspaces if tracer is not None else []):
        if id(workspace) in seen:
            continue
        seen.add(id(workspace))
        for counters in workspace.counters_to_json().values():
            for key in totals:
                totals[key] += counters[key]
    requests = totals["hits"] + totals["misses"]
    return {
        "artifacts.hits": totals["hits"],
        "artifacts.misses": totals["misses"],
        "artifacts.hit_ratio": totals["hits"] / requests if requests else 0.0,
        "artifacts.compute_s": totals["compute_s"],
        "artifacts.lock_wait_s": totals["lock_wait_s"],
    }


def run(seed: int, seconds: int, traced: bool, units: Dict[str, str],
        end_to_end_units: Dict[str, str]) -> None:
    run_dir = common.WORK / f"offline-{seed}-{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer: Optional[Tracer] = None
    try:
        setup_spans = _setup_probes()
        if traced:
            tracer = Tracer()
            tracer.install(figure_drivers=True)
            stages = _traced_pipeline(run_dir)
        else:
            stages = pipeline.run(run_dir, "all", REFITS)
        anchor = _anchor(run_dir / "fit.json") if stages["ok"] else {"ok": False}
        queries = (_query_phase(run_dir / "fit.json", seed, seconds * QUERY_SHARE)
                   if stages["hashes"] else {"queries": 0, "failed": 1})
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak_rss_mb = (common.self_peak_rss_mb() if traced
                   else common.children_peak_rss_mb())
    end_to_end = {
        "setup_s": common.median(
            [common.SPEED.scaled(span) for span in setup_spans]),
        "fit_s": stages["fit_s"],
        "refit_s": stages["refit_s"],
        "figures_s": stages["figures_s"],
        "p50_ms": queries.get("p50_ms", 0.0),
        "p90_ms": queries.get("p90_ms", 0.0),
        "throughput_rps": queries.get("throughput_rps", 0.0),
        "peak_rss_mb": peak_rss_mb,
    }
    phases = {
        "setup": {"ops": {"models": {"attempted": SETUP_PROBES,
                                     "succeeded": SETUP_PROBES, "failed": 0}},
                  "wall_s": [end - start for start, end in setup_spans]},
        "pipeline": {"ops": stages["ops"]},
        "anchor": {"ops": {"recommend": {"attempted": 1,
                                         "succeeded": int(anchor["ok"]),
                                         "failed": int(not anchor["ok"])}}},
        "queries": {"ops": {"query": {
            "attempted": queries["queries"],
            "succeeded": queries["queries"] - queries["failed"],
            "failed": queries["failed"]}}, **queries},
    }
    attempted = sum(op["attempted"] for phase in phases.values()
                    for op in phase["ops"].values())
    failed = sum(op["failed"] for phase in phases.values()
                 for op in phase["ops"].values())
    report: Dict[str, Any] = {
        "workload": "offline", "seed": seed, "seconds": seconds,
        "trace": int(traced), "host": common.host_info(),
        "end_to_end": end_to_end, "phases": phases,
        "checks": {**stages["checks"], "anchor_g4dn_2xlarge": anchor["ok"]},
        "pipeline": {k: stages[k] for k in ("scaled_s", "wall_s")},
        "hashes": stages["hashes"], "errors": stages["errors"],
    }
    metrics: Dict[str, float] = {}
    if traced:
        metrics.update(layer_metrics(tracer.snapshot()))
        metrics.update(_store_counters(tracer))
        for key, value in end_to_end.items():
            metrics[f"traced.{key}"] = value
        previous = common.previous_untraced("offline")
        if previous is not None:
            report["tracing_overhead"] = {
                key: value - previous["end_to_end"][key]
                for key, value in end_to_end.items()}
    else:
        metrics.update(end_to_end)
    common.emit(report, stages["ok"] and anchor["ok"] and failed == 0,
                attempted, failed, metrics, units if traced else end_to_end_units)
