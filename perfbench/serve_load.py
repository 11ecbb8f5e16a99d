"""``serve-hot`` and ``serve-miss``: fit an estimator, then serve it.

Each run first fits the estimator it serves with the offline pipeline of
:mod:`perfbench.pipeline` (``fit_s`` and ``refit_s`` with
``--no-warm-test-profiles``, and ``figures fig11`` for ``figures_s``),
before any serving. ``setup_s`` is a ``ServeState`` load and warm until
the first 200 on ``/healthz``, timed in fresh processes.

Then one asyncio process drives an in-process ``ServeApp`` (the ASGI
app; no sockets) through three rounds. Each round is an open-loop
Poisson window, one task per request, each timed from its due time,
then a closed-loop window that completes a fixed number of requests at
fixed in-flight concurrency. ``p50_ms`` and ``p90_ms`` are the medians
over the open windows of each window's percentile, scaled to the
reference host speed (``common.HostSpeed``), and ``throughput_rps`` is
the median of the closed windows' scaled completion rates: one window
that a host stall or the reload hits does not set a run's figure. The
report adds the pooled p99 and the highest percentile with 10 samples
beyond it.

``serve-hot`` sends a fixed, skewed pool of 64 queries and, beside the
reads, a spot tick every ``TICK_PERIOD_S`` and one ``/admin/reload`` (to
the refit estimator) in the middle of the middle open window.
``serve-miss`` makes every request distinct (a unique ``samples`` value)
and sends no writes.

The event loop uses ``select()``, whose timeout has microsecond
resolution, so the generator releases requests on time at rates where
epoll's millisecond timeout would release them in bursts.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import math
import random
import selectors
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench import common, pipeline
from perfbench.layers import Tracer, layer_metrics
from perfbench.queries import (
    BATCHES, MODELS, SPOT_SEED, LibraryAnswers, Query, QuerySource,
)

#: A batch size the server does not warm, for the cold-shape diagnostic.
COLD_BATCH = 128
#: The figure set each serve run renders for ``figures_s``: the Fig. 11
#: recommendation the service answers.
FIGURE_SET = "fig11"
#: A serving deployment needs only the training profiles.
FIT_FLAGS = ("--no-warm-test-profiles",)
#: Warm refits timed for ``refit_s``.
REFITS = 3

#: Offered open-loop rates in requests/s, below the knee of each mix on
#: one CPU of a 2-vCPU host. Closed loops reach 7k-14k/s (hot) and
#: 2.2k-3.5k/s (miss) unscaled, but an open-loop request also costs a
#: task and a timer on the same loop: hot latency diverges from about
#: 4.5k/s, and at 3k/s (hot)
#: or 1k/s (miss) p99 swings several-fold with the shared host's speed,
#: because a request that meets the lane busy waits a GIL switch
#: interval (5 ms) and at higher load some wait two.
OPEN_RATE_RPS = {"serve-hot": 1500.0, "serve-miss": 550.0}
#: In-flight requests during the closed-loop windows.
CONCURRENCY = 8
#: Requests per closed-loop window: about 1.5 s of work for each mix on
#: one CPU of the reference host, long enough for the host-speed probe
#: to take 30 samples. Fixed work, so what a window allocates does not
#: depend on how fast the host happens to be.
CLOSED_REQUESTS = {"serve-hot": 20000, "serve-miss": 4000}
#: Rounds of (open window, closed window) in one run. The open windows
#: share ``--seconds``; at ``--seconds 6`` each holds about 3000 (hot)
#: or 1100 (miss) requests. The fixed-work closed windows come on top.
ROUNDS = {"serve-hot": 3, "serve-miss": 3}
#: serve-hot writes: one spot tick per period in every window, and one
#: reload in the middle of the middle open window. The reload's warm
#: holds the GIL for 100-300 ms, which slows every request meanwhile;
#: one per run keeps that under 5% of the timed requests, so it shows in
#: the report's p99 but does not decide ``p90_ms``.
TICK_PERIOD_S = 0.25
#: Setup is measured this many times, each in a fresh process.
SETUP_PROBES = 3
#: Responses compared against direct library calls per run.
SAMPLE_CHECKS = 48


# -- in-process ASGI transport -------------------------------------------------
class RequestRecord:
    """Per request task in traced runs: when its lane work finished."""

    __slots__ = ("lane_done_s",)

    def __init__(self) -> None:
        self.lane_done_s: Optional[float] = None


CURRENT_REQUEST: "contextvars.ContextVar[Optional[RequestRecord]]" = \
    contextvars.ContextVar("perfbench_request", default=None)


class Transport:
    """Awaits the ASGI app directly; traced, it also times lane -> response."""

    def __init__(self, app: Any, traced: bool) -> None:
        self.app = app
        self.traced = traced
        self.respond_busy_s = 0.0

    async def request(self, method: str, path: str,
                      raw: bytes = b"") -> Tuple[int, bytes]:
        status = 0
        chunks: List[bytes] = []
        record = None
        if self.traced:
            record = RequestRecord()
            CURRENT_REQUEST.set(record)

        async def receive() -> Dict[str, Any]:
            return {"type": "http.request", "body": raw, "more_body": False}

        async def send(message: Dict[str, Any]) -> None:
            nonlocal status
            if message["type"] == "http.response.start":
                status = message["status"]
                if record is not None and record.lane_done_s is not None:
                    self.respond_busy_s += time.perf_counter() - record.lane_done_s
            else:
                chunks.append(message.get("body", b""))

        scope = {"type": "http", "method": method, "path": path,
                 "query_string": b""}
        await self.app(scope, receive, send)
        return status, b"".join(chunks)


class TracingExecutor(ThreadPoolExecutor):
    """The single evaluation lane, timing queue wait and busy time."""

    def __init__(self) -> None:
        super().__init__(max_workers=1, thread_name_prefix="serve-eval")
        self._stats_lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self.waits_s: List[float] = []
        self.busy_s = 0.0
        self.depth = 0
        self.max_depth = 0

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any):
        record = CURRENT_REQUEST.get()
        submitted_s = time.perf_counter()
        with self._stats_lock:
            self.depth += 1
            self.max_depth = max(self.max_depth, self.depth)

        def run() -> Any:
            started_s = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended_s = time.perf_counter()
                with self._stats_lock:
                    self.depth -= 1
                    self.waits_s.append(started_s - submitted_s)
                    self.busy_s += ended_s - started_s
                if record is not None:
                    record.lane_done_s = ended_s

        return super().submit(run)


# -- phases -------------------------------------------------------------------
class PhaseLog:
    """Per-phase operation counts and read latencies."""

    def __init__(self) -> None:
        self.ops: Dict[str, Dict[str, int]] = {}
        self.latencies_ms: List[float] = []
        self.kind_latencies_ms: Dict[str, List[float]] = {}
        self.late_ms: List[float] = []
        #: Time the generator itself spent releasing requests.
        self.loadgen_busy_s = 0.0
        self.wall_s = 0.0
        #: ``time.monotonic()`` start and end, for the host-speed scale.
        self.span = (0.0, 0.0)
        self.completed_reads = 0

    def count(self, kind: str, ok: bool) -> None:
        entry = self.ops.setdefault(
            kind, {"attempted": 0, "succeeded": 0, "failed": 0})
        entry["attempted"] += 1
        entry["succeeded" if ok else "failed"] += 1

    def start(self) -> None:
        self.span = (time.monotonic(), 0.0)

    def end(self, wall_s: float) -> None:
        self.wall_s = wall_s
        self.span = (self.span[0], time.monotonic())

    def scale(self) -> float:
        return common.SPEED.scale(*self.span)

    def scaled_rps(self) -> float:
        return self.completed_reads / (self.wall_s * self.scale())

    def scaled_percentile_ms(self, q: float) -> float:
        return self.percentile_ms(q) * self.scale()

    @classmethod
    def pooled(cls, logs: List["PhaseLog"]) -> "PhaseLog":
        """All windows' latencies, each at the reference host speed, and
        lateness as one sample (no ops, so totals are not counted twice)."""
        pooled = cls()
        for log in logs:
            scale = log.scale()
            pooled.latencies_ms.extend(ms * scale for ms in log.latencies_ms)
            for kind, values in log.kind_latencies_ms.items():
                pooled.kind_latencies_ms.setdefault(kind, []).extend(
                    ms * scale for ms in values)
            pooled.late_ms.extend(log.late_ms)
            pooled.loadgen_busy_s += log.loadgen_busy_s
            pooled.wall_s += log.wall_s
        return pooled

    def percentile_ms(self, q: float) -> float:
        # A failed request sorts as infinitely late; if a percentile
        # lands on one it reads as the whole phase.
        return min(common.percentile(sorted(self.latencies_ms), q),
                   self.wall_s * 1e3)

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"wall_s": self.wall_s, "ops": self.ops}
        if self.span[1]:
            doc["host_scale"] = self.scale()
        if self.latencies_ms:
            tail = common.tail_percentile(len(self.latencies_ms))
            doc.update({
                "reads_timed": len(self.latencies_ms),
                "p50_ms": self.percentile_ms(50),
                "p90_ms": self.percentile_ms(90),
                "p99_ms": self.percentile_ms(99),
                f"p{tail:g}_ms": self.percentile_ms(tail),
                "max_ms": self.percentile_ms(100),
                "by_kind": {kind: {
                    "reads_timed": len(values),
                    "p50_ms": common.percentile(sorted(values), 50),
                    "p99_ms": common.percentile(sorted(values), 99)}
                    for kind, values in sorted(self.kind_latencies_ms.items())},
            })
        if self.late_ms:
            late = sorted(self.late_ms)
            doc["loadgen_late_p50_ms"] = common.percentile(late, 50)
            doc["loadgen_late_p99_ms"] = common.percentile(late, 99)
            doc["loadgen_busy_share"] = self.loadgen_busy_s / self.wall_s
        if self.completed_reads and self.wall_s:
            doc["completed_rps"] = self.completed_reads / self.wall_s
        return doc


class Driver:
    """Runs the phases against one app and keeps what the checks need."""

    def __init__(self, workload: str, seed: int, state: Any, app: Any,
                 traced: bool, reload_path: str) -> None:
        self.hot = workload == "serve-hot"
        self.rate_rps = OPEN_RATE_RPS[workload]
        self.state = state
        self.transport = Transport(app, traced)
        self.source = QuerySource(self.hot, seed, workload)
        self.schedule_rng = random.Random(f"arrivals:{workload}:{seed}")
        self.check_rng = random.Random(f"checks:{workload}:{seed}")
        self.reload_body = json.dumps({"path": reload_path}).encode()
        self.closed_requests = CLOSED_REQUESTS[workload]
        self.rounds = ROUNDS[workload]
        self.samples: List[Tuple[Query, bytes]] = []
        #: (market generation at send, stamp in the response, at receipt)
        self.spot_seen: List[Tuple[int, int, int]] = []
        self.bad_status: List[Tuple[str, int, bytes]] = []
        self.sample_p = 0.0

    async def read(self, query: Query, log: PhaseLog,
                   due_s: Optional[float]) -> None:
        kind, path, _, raw = query
        market = self.state.spot
        generation_before = market.generation
        try:
            status, body = await self.transport.request("POST", path, raw)
        except Exception as exc:  # a failed request is counted, not fatal
            status, body = 0, repr(exc).encode()
        done_s = time.perf_counter()
        ok = status == 200
        log.count(kind, ok)
        if due_s is not None:
            latency_ms = (done_s - due_s) * 1e3 if ok else math.inf
            log.latencies_ms.append(latency_ms)
            log.kind_latencies_ms.setdefault(kind, []).append(latency_ms)
        if not ok:
            self.bad_status.append((path, status, body[:200]))
            return
        log.completed_reads += 1
        if kind == "spot":
            self.spot_seen.append(
                (generation_before, _spot_stamp(body), market.generation))
        if self.sample_p and self.check_rng.random() < self.sample_p:
            self.samples.append((query, body))

    async def write(self, kind: str, log: PhaseLog) -> None:
        path, raw = (("/spot/tick", b"{}") if kind == "tick"
                     else ("/admin/reload", self.reload_body))
        try:
            status, body = await self.transport.request("POST", path, raw)
        except Exception as exc:  # counted as a failed write
            status, body = 0, repr(exc).encode()
        log.count(kind, status == 200)
        if status != 200:
            self.bad_status.append((path, status, body[:200]))

    async def writer(self, log: PhaseLog, duration_s: float, reload: bool,
                     stop: Optional[asyncio.Event] = None) -> None:
        """Spot ticks on a fixed period; optionally one mid-window swap.
        Stops early once ``stop`` is set."""
        loop = asyncio.get_running_loop()
        started_s = time.perf_counter()
        events = [((i + 1) * TICK_PERIOD_S, "tick")
                  for i in range(int(duration_s / TICK_PERIOD_S))
                  if (i + 1) * TICK_PERIOD_S < duration_s]
        if reload:
            events.append((duration_s / 2, "reload"))
        pending = []
        for offset_s, kind in sorted(events):
            delay_s = started_s + offset_s - time.perf_counter()
            if delay_s > 0:
                await asyncio.sleep(delay_s)
            if stop is not None and stop.is_set():
                break
            pending.append(loop.create_task(self.write(kind, log)))
        await asyncio.gather(*pending)

    async def warmup(self) -> None:
        """Untimed: every hot query once, or a few distinct ones."""
        log = PhaseLog()
        queries = (list(self.source.pool) if self.hot
                   else [self.source.next() for _ in range(32)])
        for query in queries:
            await self.read(query, log, None)

    async def open_loop(self, duration_s: float, reload: bool) -> PhaseLog:
        log = PhaseLog()
        offsets: List[float] = []
        offset_s = self.schedule_rng.expovariate(self.rate_rps)
        while offset_s < duration_s:
            offsets.append(offset_s)
            offset_s += self.schedule_rng.expovariate(self.rate_rps)
        queries = [self.source.next() for _ in offsets]
        self.sample_p = SAMPLE_CHECKS / max(len(offsets) * self.rounds, 1)
        loop = asyncio.get_running_loop()
        writer = (loop.create_task(self.writer(log, duration_s, reload))
                  if self.hot else None)
        tasks = []
        log.start()
        started_s = time.perf_counter()
        for offset_s, query in zip(offsets, queries):
            due_s = started_s + offset_s
            delay_s = due_s - time.perf_counter()
            if delay_s > 0:
                await asyncio.sleep(delay_s)
            woke_s = time.perf_counter()
            log.late_ms.append((woke_s - due_s) * 1e3)
            tasks.append(loop.create_task(self.read(query, log, due_s)))
            log.loadgen_busy_s += time.perf_counter() - woke_s
        await asyncio.gather(*tasks)
        if writer is not None:
            await writer
        log.end(time.perf_counter() - started_s)
        self.sample_p = 0.0
        return log

    async def closed_loop(self, duration_s: float) -> PhaseLog:
        """``closed_requests`` reads at ``CONCURRENCY`` in flight; the
        spot ticks run on their period for ``duration_s``."""
        log = PhaseLog()
        loop = asyncio.get_running_loop()
        log.start()
        started_s = time.perf_counter()
        queries = [self.source.next() for _ in range(self.closed_requests)]
        queries.reverse()

        async def client() -> None:
            while queries:
                await self.read(queries.pop(), log, None)
                # A cache hit completes without suspending; yield so the
                # other clients and the writer get the loop.
                await asyncio.sleep(0)

        stop = asyncio.Event()
        writer = (loop.create_task(self.writer(log, duration_s, False, stop))
                  if self.hot else None)
        await asyncio.gather(*[client() for _ in range(CONCURRENCY)])
        log.end(time.perf_counter() - started_s)
        stop.set()
        if writer is not None:
            await writer
        return log

    async def cold_shape(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        """One untimed request at a batch size the server did not warm;
        traced, with the graph build and compile time it paid."""
        engine = self.state.holder.current.estimator.engine
        before = engine.cache_info()["compile_misses"]
        layers_before = tracer.snapshot() if tracer is not None else {}
        body = json.dumps({"model": "resnet_50", "gpu": "V100", "gpus": 1,
                           "batch": COLD_BATCH}).encode()
        started_s = time.perf_counter()
        status, _ = await self.transport.request("POST", "/predict", body)
        doc: Dict[str, Any] = {
            "batch": COLD_BATCH, "status": status,
            "latency_ms": (time.perf_counter() - started_s) * 1e3,
            "compiles": engine.cache_info()["compile_misses"] - before,
        }
        if tracer is not None:
            layers_after = tracer.snapshot()
            for layer in ("graph.build", "engine.compile"):
                doc[f"{layer}_ms"] = 1e3 * (
                    layers_after.get(layer, (0, 0.0))[1]
                    - layers_before.get(layer, (0, 0.0))[1])
        return doc


# -- set-up probes ----------------------------------------------------------------
def new_state(estimator: str) -> Any:
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.app import ServeState

    return ServeState(estimator, models=MODELS, batch_sizes=BATCHES,
                      registry=MetricsRegistry(), spot_seed=SPOT_SEED)


def probe_setup(estimator: str, traced: bool) -> Dict[str, Any]:
    """One ServeState load + warm, until the first 200 on /healthz.

    Runs in a fresh process (``setup_probe.py``), so no process-wide
    cache from an earlier probe shortens it.
    """
    from repro.serve.app import ServeApp

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    started_s = time.monotonic()
    state = new_state(estimator)
    try:
        status, _ = asyncio.run(
            Transport(ServeApp(state), False).request("GET", "/healthz"))
        ended_s = time.monotonic()
    finally:
        state.close()
    doc: Dict[str, Any] = {"span": (started_s, ended_s),
                           "wall_s": ended_s - started_s, "status": status}
    if tracer is not None:
        tracer.uninstall()
        snap = tracer.snapshot()
        doc["persistence.load_s"] = snap.get("persistence.load", (0, 0.0))[1]
        doc["view.warm_s"] = snap.get("view.warm", (0, 0.0))[1]
        doc["view.warm_compile_calls"] = snap.get(
            "engine.compile@warm", (0, 0.0))[0]
    return doc


def run_setup_probes(estimator: Path, traced: bool) -> List[Dict[str, Any]]:
    probes = []
    script = str(common.ROOT / "perfbench" / "setup_probe.py")
    for _ in range(SETUP_PROBES):
        result = common.run_child(
            [sys.executable, script, str(estimator), str(int(traced))],
            cwd=common.WORK)
        if result["returncode"] != 0:
            raise RuntimeError(f"setup probe failed: {result['stderr']}")
        probes.append(json.loads(result["stdout"].strip().splitlines()[-1]))
    return probes


# -- correctness ------------------------------------------------------------------
def check_outputs(driver: Driver, estimator_path: Path,
                  generations: int) -> Dict[str, Any]:
    """Sampled responses equal direct library calls; spot stamps hold."""
    from repro.core.persistence import load_estimator

    answers = LibraryAnswers(load_estimator(estimator_path))
    mismatches = []
    for query, body in driver.samples:
        doc = json.loads(body)
        generation = doc.pop("generation", None)
        expected = json.loads(json.dumps(
            answers.answer(query, doc.get("spot_generation", 0))))
        if doc != expected or not (isinstance(generation, int)
                                   and 1 <= generation <= generations):
            mismatches.append({"query": query[2], "generation": generation})
    spot_bad = sum(1 for before, stamp, after in driver.spot_seen
                   if not before <= stamp <= after)
    return {
        "sampled": len(driver.samples),
        "sample_mismatches": len(mismatches),
        "sample_mismatch_examples": mismatches[:3],
        "spot_responses": len(driver.spot_seen),
        "spot_generation_mismatches": spot_bad,
        "non_200": len(driver.bad_status),
        "non_200_examples": [(p, s, b.decode("utf-8", "replace"))
                             for p, s, b in driver.bad_status[:3]],
        "ok": (not mismatches and spot_bad == 0 and not driver.bad_status
               and len(driver.samples) > 0),
    }


def _spot_stamp(body: bytes) -> int:
    """The ``spot_generation`` a spot response carries (-1 if none),
    read without parsing the whole body on the request path."""
    key = b'"spot_generation": '
    start = body.find(key)
    if start < 0:
        return -1
    start += len(key)
    end = start
    while end < len(body) and body[end:end + 1].isdigit():
        end += 1
    return int(body[start:end]) if end > start else -1


def _coalesce_counts(registry: Any) -> Dict[str, float]:
    counts = {"hits": 0.0, "misses": 0.0, "coalesced": 0.0}
    outcomes = {"hit": "hits", "miss": "misses"}
    for record in registry.snapshot():
        if record["name"] == "serve.cache":
            key = outcomes.get(record["labels"].get("outcome"))
            if key is not None:
                counts[key] += record["value"]
        elif record["name"] == "serve.coalesced":
            counts["coalesced"] += record["value"]
    return counts


# -- the workload -------------------------------------------------------------------
async def _drive(workload: str, seed: int, seconds: int, estimator: Path,
                 reload_path: Path, traced: bool) -> Dict[str, Any]:
    from repro.serve.app import ServeApp

    state = new_state(str(estimator))
    lane: Optional[TracingExecutor] = None
    if traced:
        state.executor.shutdown(wait=True)
        lane = TracingExecutor()
        state.executor = lane
    driver = Driver(workload, seed, state, ServeApp(state), traced,
                    str(reload_path))
    tracer: Optional[Tracer] = None
    rounds: List[Tuple[PhaseLog, PhaseLog]] = []
    try:
        status, _ = await driver.transport.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        await driver.warmup()
        if traced:
            tracer = Tracer()
            tracer.install()
            assert lane is not None
            lane.reset()
            driver.transport.respond_busy_s = 0.0
        before = _coalesce_counts(state.registry)
        open_s = seconds / driver.rounds
        steady_started_s = time.perf_counter()
        for _ in range(driver.rounds):
            open_log = await driver.open_loop(
                open_s, reload=len(rounds) == driver.rounds // 2)
            rounds.append((open_log, await driver.closed_loop(open_s)))
        steady_wall_s = time.perf_counter() - steady_started_s
        after = _coalesce_counts(state.registry)
        steady_layers = tracer.snapshot() if tracer is not None else {}
        cold = await driver.cold_shape(tracer)
        if tracer is not None:
            tracer.uninstall()
        generations = state.holder.generation
    finally:
        state.close()
    coalesce = {k: after[k] - before[k] for k in after}
    reads = sum(coalesce.values())
    coalesce["hit_ratio"] = (
        (coalesce["hits"] + coalesce["coalesced"]) / reads if reads else 0.0)
    return {
        "rounds": rounds, "coalesce": coalesce,
        "cold_shape": cold, "steady_wall_s": steady_wall_s,
        "checks": check_outputs(driver, estimator, generations),
        "final_generation": generations, "layers": steady_layers,
        "lane": lane,
        "respond_busy_s": driver.transport.respond_busy_s,
    }


def _loop_factory() -> asyncio.AbstractEventLoop:
    return asyncio.SelectorEventLoop(selectors.SelectSelector())


def run(workload: str, seed: int, seconds: int, traced: bool,
        units: Dict[str, str], end_to_end_units: Dict[str, str]) -> None:
    run_dir = common.WORK / f"{workload}-{seed}-{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        stages = pipeline.run(run_dir, FIGURE_SET, REFITS, FIT_FLAGS)
        if not stages["hashes"]:
            raise RuntimeError(f"pipeline failed: {stages['errors']}")
        estimator = run_dir / "fit.json"
        probes = run_setup_probes(estimator, traced)
        with asyncio.Runner(loop_factory=_loop_factory) as runner:
            result = runner.run(_drive(workload, seed, seconds, estimator,
                                       run_dir / "refit.json", traced))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rounds: List[Tuple[PhaseLog, PhaseLog]] = result.pop("rounds")
    steady_layers = result.pop("layers")
    lane: Optional[TracingExecutor] = result.pop("lane")
    opened = PhaseLog.pooled([open_log for open_log, _ in rounds])
    late = sorted(opened.late_ms)
    end_to_end = {
        "setup_s": common.median(
            [common.SPEED.scaled(p["span"]) for p in probes]),
        "fit_s": stages["fit_s"],
        "refit_s": stages["refit_s"],
        "figures_s": stages["figures_s"],
        "p50_ms": common.median(
            [o.scaled_percentile_ms(50) for o, _ in rounds]),
        "p90_ms": common.median(
            [o.scaled_percentile_ms(90) for o, _ in rounds]),
        "throughput_rps": common.median([c.scaled_rps() for _, c in rounds]),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    coalesce = result["coalesce"]
    late_p99_ms = common.percentile(late, 99)
    validity = {
        "loadgen_late_p50_ms": common.percentile(late, 50),
        "loadgen_late_p99_ms": late_p99_ms,
        "loadgen_late_p99_below_p50": late_p99_ms < end_to_end["p50_ms"],
        "loadgen_busy_share": opened.loadgen_busy_s / opened.wall_s,
        "hit_or_coalesced_ratio": coalesce["hit_ratio"],
    }
    phases: Dict[str, Any] = {"pipeline": {"ops": stages["ops"]},
                              "open_pooled": opened.to_json()}
    for i, (open_log, closed_log) in enumerate(rounds):
        phases[f"open{i}"] = open_log.to_json()
        phases[f"closed{i}"] = closed_log.to_json()
    attempted = sum(op["attempted"] for phase in phases.values()
                    for op in phase["ops"].values())
    failed = sum(op["failed"] for phase in phases.values()
                 for op in phase["ops"].values())
    report: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(traced), "host": common.host_info(),
        "offered_rate_rps": OPEN_RATE_RPS[workload],
        "concurrency": CONCURRENCY, "end_to_end": end_to_end,
        "phases": phases, "setup_probes": probes, "validity": validity,
        "pipeline": {k: stages[k] for k in ("scaled_s", "wall_s", "checks", "hashes")},
        **result,
    }
    metrics: Dict[str, float] = {}
    if traced:
        assert lane is not None
        metrics.update(layer_metrics(steady_layers))
        waits_ms = sorted(w * 1e3 for w in lane.waits_s)
        metrics.update({
            "persistence.load_s": common.median(
                [p["persistence.load_s"] for p in probes]),
            "view.warm_s": common.median([p["view.warm_s"] for p in probes]),
            "coalesce.hits": coalesce["hits"],
            "coalesce.coalesced": coalesce["coalesced"],
            "coalesce.misses": coalesce["misses"],
            "coalesce.hit_ratio": coalesce["hit_ratio"],
            "lane.queue_wait_p50_ms": common.percentile(waits_ms, 50) if waits_ms else 0.0,
            "lane.queue_wait_p99_ms": common.percentile(waits_ms, 99) if waits_ms else 0.0,
            "lane.busy_s": lane.busy_s,
            "lane.utilization": lane.busy_s / result["steady_wall_s"],
            "lane.max_depth": lane.max_depth,
            "respond.busy_s": result["respond_busy_s"],
            "loadgen.late_p99_ms": late_p99_ms,
            "diag.cold_shape_ms": result["cold_shape"]["latency_ms"],
            "diag.cold_shape_compiles": result["cold_shape"]["compiles"],
        })
        for key, value in end_to_end.items():
            metrics[f"traced.{key}"] = value
        # The pipeline runs untraced in child processes either way.
        previous = common.previous_untraced(workload)
        if previous is not None:
            report["tracing_overhead"] = {
                key: end_to_end[key] - previous["end_to_end"][key]
                for key in ("setup_s", "p50_ms", "p90_ms", "throughput_rps",
                            "peak_rss_mb")}
    else:
        metrics.update(end_to_end)
    correct = (stages["ok"] and result["checks"]["ok"] and failed == 0
               and all(p["status"] == 200 for p in probes)
               and result["cold_shape"]["status"] == 200)
    common.emit(report, correct, attempted, failed, metrics,
                units if traced else end_to_end_units)
