"""The recommendation service: an ASGI-compatible application object.

:class:`ServeApp` implements the ASGI 3.0 single-callable interface
(``await app(scope, receive, send)``) over plain stdlib machinery, so it
runs equally under the bundled :mod:`repro.serve.http` asyncio server,
any external ASGI server, or an in-process test harness that fabricates
scopes. Endpoints:

========================  =====================================================
``GET /healthz``          liveness + live snapshot generation
``GET /metrics``          the repro-metrics JSON schema (or Prometheus-ish
                          text with ``?format=prometheus``)
``POST /predict``         time/cost of one (model, GPU, count, batch) config
``POST /recommend``       objective-optimal instance for a model
``POST /pareto``          full-catalog time/cost frontier
``POST /spot/tick``       advance the streaming spot market one price tick
``POST /admin/reload``    zero-downtime estimator hot swap
========================  =====================================================

The ``/recommend`` endpoint additionally accepts ``scenario: "spot"``:
the request is re-ranked against the server's seeded spot-price trace at
its current generation (see :mod:`repro.cloud.spotsim`), with preemption
hazards and a ``risk_aversion`` λ folded into the score. Ticks only
re-rank cached sweep tensors — no graph is recompiled.

Concurrency model: the event loop owns every snapshot that requests can
see. Parsing, routing, the response LRU, every ``/predict``,
``/recommend`` and ``/pareto`` evaluation, and response writing run
inline on the loop, one request at a time between ``await`` points, so
the estimator's lazy caches (engine LRU, stacked coefficients, plan
price grids, spot re-rank sessions) are only ever touched from one
thread and need no locks. A warm evaluation is a fraction of a
millisecond, so a hand-off to a worker thread and back would cost more
than the work. The price is a stall: a shape the snapshot did not warm
compiles on the loop, holding every other request for about 7–17 ms
(perfbench's ``diag.cold_shape_ms``); warming the shapes clients send
(``repro serve --models/--warm-batches``) keeps that off the request
path. Because no evaluation suspends, the first request of an identical
burst caches its answer before the others resume: the burst costs one
evaluation.

Hot swap: each request captures ``state.holder.current`` exactly once;
everything it computes uses that snapshot object. ``/admin/reload``
builds and warms the next generation on ``ServeState.executor``, a
one-worker thread that no request reads from, then swaps the pointer and
clears the response cache on the loop — a request that captured the old
snapshot finishes on it, new requests see the new one, and nobody is
dropped.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Awaitable, Callable, Dict, Optional, Sequence, Tuple, cast
from urllib.parse import parse_qs

from repro.cloud.spotsim import SpotMarket
from repro.core.estimator import CeerEstimator
from repro.core.preempt import DEFAULT_PREEMPTION
from repro.core.recommend import Recommender, SpotRiskObjective
from repro.core.rerank import SpotRerankSession
from repro.errors import ReproError, RequestError
from repro.obs.export import metrics_to_json
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.spans import span
from repro.serve.coalesce import CoalescingCache
from repro.serve.protocol import (
    ParetoRequest,
    PredictRequest,
    RecommendRequest,
    parse_pareto,
    parse_predict,
    parse_recommend,
    prediction_to_json,
    recommendation_to_json,
)
from repro.serve.snapshot import ServingSnapshot, SnapshotHolder, load_snapshot

__all__ = ["ServeApp", "ServeState"]

#: Largest accepted request body; the API is small JSON objects.
MAX_BODY_BYTES = 1 << 20


class ServeState:
    """Everything the app shares across requests.

    Built synchronously (loads and warms the initial snapshot), then
    handed to :class:`ServeApp` on whatever event loop serves traffic.
    """

    def __init__(
        self,
        estimator_path: str,
        cache_size: int = 1024,
        warm: bool = True,
        models: Optional[Sequence[str]] = None,
        batch_sizes: Sequence[int] = (32,),
        registry: Optional[MetricsRegistry] = None,
        spot_seed: int = 2020,
    ) -> None:
        self.registry = registry if registry is not None else default_registry()
        self.default_path = estimator_path
        self.warm = warm
        self.models = tuple(models) if models is not None else None
        self.batch_sizes = tuple(batch_sizes)
        #: The streaming spot market. Ticked and read only on the event
        #: loop, so (generation, ratios, hazards) observations are
        #: atomic; survives snapshot hot swaps — prices are market
        #: state, not estimator state. Built first: a bad seed fails
        #: before the estimator loads.
        self.spot = SpotMarket(seed=spot_seed)
        with span("serve.load", source=estimator_path, generation=1):
            initial = load_snapshot(
                estimator_path, generation=1, warm=warm,
                models=self.models, batch_sizes=self.batch_sizes,
            )
        self.holder = SnapshotHolder(initial)
        self.cache = CoalescingCache(cache_size, registry=self.registry)
        #: The reload lane: builds the next snapshot off the event loop
        #: (see module docstring). No request evaluates here.
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-eval"
        )
        self.started_monotonic_s = time.monotonic()  # staticcheck: ignore[determinism] — serving uptime, not a model path
        self._reload_lock: Optional[asyncio.Lock] = None

    @property
    def reload_lock(self) -> asyncio.Lock:
        # Created lazily on the serving loop: on Python 3.9 an
        # asyncio.Lock binds the loop that exists at construction time,
        # and ServeState is built before the loop runs.
        if self._reload_lock is None:
            self._reload_lock = asyncio.Lock()
        return self._reload_lock

    def uptime_s(self) -> float:
        return time.monotonic() - self.started_monotonic_s  # staticcheck: ignore[determinism] — serving uptime, not a model path

    async def reload(self, path: Optional[str] = None) -> ServingSnapshot:
        """Load + warm the next generation, then atomically install it.

        Serialised by an asyncio lock so concurrent reloads cannot race
        each other to the swap; the load and warm happen on the reload
        lane, so the event loop keeps answering requests on the live
        generation while the next one warms.
        """
        async with self.reload_lock:
            source = path if path is not None else self.default_path
            generation = self.holder.generation + 1
            loop = asyncio.get_running_loop()
            with span("serve.reload", source=source, generation=generation):
                snapshot = await loop.run_in_executor(
                    self.executor,
                    partial(
                        load_snapshot, source, generation, warm=self.warm,
                        models=self.models, batch_sizes=self.batch_sizes,
                    ),
                )
                self.holder.swap(snapshot)
                dropped = self.cache.clear()
            self.registry.counter("serve.reloads").inc()
            self.registry.counter("serve.cache_dropped").inc(dropped)
            return snapshot

    def close(self) -> None:
        self.executor.shutdown(wait=True)


# -- evaluation thunks (run on the event loop, one snapshot each) --------
def _predict_thunk(snapshot: ServingSnapshot, req: PredictRequest) -> Dict[str, object]:
    estimator = cast(CeerEstimator, snapshot.estimator)
    prediction = estimator.predict_training(
        req.model, req.gpu, req.gpus, req.job(),
        pricing=req.pricing_scheme(),
    )
    return {"generation": snapshot.generation,
            "prediction": prediction_to_json(prediction)}


def _recommend_thunk(
    snapshot: ServingSnapshot, req: RecommendRequest
) -> Dict[str, object]:
    estimator = cast(CeerEstimator, snapshot.estimator)
    recommendation = Recommender(
        estimator, pricing=req.pricing_scheme()
    ).recommend(req.model, req.job(), req.objective_instance())
    doc = recommendation_to_json(recommendation)
    doc["generation"] = snapshot.generation
    return doc


def _spot_recommend_thunk(
    snapshot: ServingSnapshot,
    req: RecommendRequest,
    spot_generation: int,
    ratios: Dict[str, float],
    hazards: Dict[str, float],
) -> Dict[str, object]:
    """Spot-scenario recommendation: incremental re-rank, no re-sweep.

    The (generation, ratios, hazards) triple was captured atomically
    with the request; this thunk never touches the live market, so its
    ranking never mixes two generations' prices.
    """
    session = cast(
        SpotRerankSession, snapshot.spot_session_for(req.model, req.job())
    )
    objective = cast(SpotRiskObjective, req.objective_instance())
    ranking = session.rerank(
        ratios, hazards,
        risk_aversion_usd_per_hr=objective.risk_aversion_usd_per_hr,
        preempt=DEFAULT_PREEMPTION,
    )
    top = ranking.predictions(top=4)
    return {
        "generation": snapshot.generation,
        "scenario": "spot",
        "spot_generation": spot_generation,
        "objective": "spot-risk",
        "risk_aversion": objective.risk_aversion_usd_per_hr,
        "ratios": dict(sorted(ratios.items())),
        "n_candidates": ranking.n_candidates,
        "best": prediction_to_json(ranking.best()),
        "runners_up": [prediction_to_json(p) for p in top[1:]],
    }


def _pareto_thunk(snapshot: ServingSnapshot, req: ParetoRequest) -> Dict[str, object]:
    from repro.core.batch import SweepPlan, evaluate_sweep

    estimator = cast(CeerEstimator, snapshot.estimator)
    plan = cast(
        SweepPlan,
        snapshot.plan_for(req.batches, req.pricing, req.pricing_scheme()),
    )
    result = evaluate_sweep(estimator, req.model, req.job(), plan)
    frontier = result.frontier()
    return {
        "generation": snapshot.generation,
        "model": result.model_name,
        "n_candidates": result.n_candidates,
        "frontier": [prediction_to_json(p) for p in frontier],
    }


class ServeApp:
    """The ASGI 3.0 application over one :class:`ServeState`."""

    def __init__(self, state: ServeState) -> None:
        self.state = state
        self._routes: Dict[Tuple[str, str], Callable[..., Awaitable[Tuple[int, Dict[str, object]]]]] = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("POST", "/predict"): self._predict,
            ("POST", "/recommend"): self._recommend,
            ("POST", "/pareto"): self._pareto,
            ("POST", "/spot/tick"): self._spot_tick,
            ("POST", "/admin/reload"): self._reload,
        }

    # -- ASGI plumbing ---------------------------------------------------
    async def __call__(self, scope: Dict[str, Any], receive: Callable[[], Awaitable[Dict[str, Any]]],
                       send: Callable[[Dict[str, Any]], Awaitable[None]]) -> None:
        if scope.get("type") == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope.get("type") != "http":
            raise ServeAppError(f"unsupported ASGI scope {scope.get('type')!r}")
        method = str(scope.get("method", "GET")).upper()
        path = str(scope.get("path", "/"))
        query = scope.get("query_string", b"")
        started_us = time.perf_counter_ns() / 1e3  # staticcheck: ignore[determinism] — request latency observation
        status, document = await self._dispatch(method, path, query, receive)
        body = (json.dumps(document) + "\n").encode("utf-8")
        media = "application/json"
        if isinstance(document.get("_text"), str):
            body = str(document["_text"]).encode("utf-8")
            media = "text/plain; version=0.0.4"
        await send({
            "type": "http.response.start",
            "status": status,
            "headers": [
                (b"content-type", media.encode("ascii")),
                (b"content-length", str(len(body)).encode("ascii")),
            ],
        })
        await send({"type": "http.response.body", "body": body})
        elapsed_us = time.perf_counter_ns() / 1e3 - started_us  # staticcheck: ignore[determinism] — request latency observation
        registry = self.state.registry
        registry.counter(
            "serve.requests", endpoint=path, status=str(status)
        ).inc()
        registry.histogram("serve.request_us", endpoint=path).observe(elapsed_us)

    async def _lifespan(self, receive: Callable[[], Awaitable[Dict[str, Any]]],
                        send: Callable[[Dict[str, Any]], Awaitable[None]]) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    async def _read_body(self, receive: Callable[[], Awaitable[Dict[str, Any]]]) -> bytes:
        chunks = []
        total = 0
        while True:
            message = await receive()
            if message.get("type") == "http.disconnect":
                raise RequestError((), "client disconnected mid-request")
            chunk = message.get("body", b"")
            total += len(chunk)
            if total > MAX_BODY_BYTES:
                raise RequestError(
                    (), f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            chunks.append(chunk)
            if not message.get("more_body", False):
                return b"".join(chunks)

    async def _json_body(self, receive: Callable[[], Awaitable[Dict[str, Any]]]) -> Any:
        raw = await self._read_body(receive)
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise RequestError((), f"request body is not valid JSON: {exc}")

    async def _dispatch(
        self, method: str, path: str, query: bytes,
        receive: Callable[[], Awaitable[Dict[str, Any]]],
    ) -> Tuple[int, Dict[str, object]]:
        handler = self._routes.get((method, path))
        if handler is None:
            known_paths = {p for _, p in self._routes}
            if path in known_paths:
                return 405, {"error": f"method {method} not allowed for {path}"}
            return 404, {"error": f"no such endpoint {path!r}"}
        try:
            with span("serve.request", endpoint=path, method=method):
                return await handler(query=query, receive=receive)
        except RequestError as exc:
            return 400, {"error": str(exc)}
        except ReproError as exc:
            # A well-formed request the estimator/catalog cannot satisfy
            # (unknown model, unpriceable config, infeasible objective).
            return 422, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — the server must not die
            self.state.registry.counter("serve.errors").inc()
            return 500, {"error": f"internal error: {type(exc).__name__}: {exc}"}

    # -- endpoints -------------------------------------------------------
    async def _healthz(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        snapshot = self.state.holder.current
        doc: Dict[str, object] = {"status": "ok", "uptime_s": self.state.uptime_s()}
        doc.update(snapshot.to_json())
        doc["cache"] = self.state.cache.stats()
        doc["spot_generation"] = self.state.spot.generation
        return 200, doc

    async def _metrics(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        params = parse_qs(query.decode("ascii", "replace"))
        registries = [self.state.registry]
        if self.state.registry is not default_registry():
            registries.append(default_registry())
        document = metrics_to_json(*registries)
        if params.get("format", [""])[0] == "prometheus":
            return 200, {"_text": _prometheus_text(document)}
        return 200, cast(Dict[str, object], document)

    def _evaluate(
        self, endpoint: str, fingerprint: str,
        thunk: Callable[[], Dict[str, object]],
    ) -> Tuple[int, Dict[str, object]]:
        key = f"{self.state.holder.generation}:{fingerprint}"

        def compute() -> Dict[str, object]:
            self.state.registry.counter(
                "serve.evaluations", endpoint=endpoint
            ).inc()
            return thunk()

        return 200, self.state.cache.get_or_compute(key, compute)

    async def _predict(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        req = parse_predict(await self._json_body(receive))
        snapshot = self.state.holder.current
        return self._evaluate(
            "predict", req.fingerprint(), partial(_predict_thunk, snapshot, req)
        )

    async def _recommend(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        req = parse_recommend(await self._json_body(receive))
        snapshot = self.state.holder.current
        if req.scenario == "spot":
            # Capture the market observation here, on the event loop —
            # atomically with the generation stamp. The cache key carries
            # the spot generation, so a ranking computed at tick N can
            # never be served for a request that arrived at tick N+1.
            market = self.state.spot
            spot_generation = market.generation
            ratios = market.ratios()
            hazards = market.hazards_per_hr()
            return self._evaluate(
                "recommend",
                f"spot{spot_generation}:{req.fingerprint()}",
                partial(_spot_recommend_thunk, snapshot, req,
                        spot_generation, ratios, hazards),
            )
        return self._evaluate(
            "recommend", req.fingerprint(),
            partial(_recommend_thunk, snapshot, req),
        )

    async def _pareto(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        req = parse_pareto(await self._json_body(receive))
        snapshot = self.state.holder.current
        return self._evaluate(
            "pareto", req.fingerprint(), partial(_pareto_thunk, snapshot, req)
        )

    async def _spot_tick(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        """Advance the spot market one tick (the streaming price feed).

        Runs entirely on the event loop: the generation bump and the new
        quotes are one atomic step relative to request capture, and no
        estimator state is touched — compiled graphs, sweep caches, and
        the response LRU all survive (stale spot entries are unreachable
        because cache keys embed the generation).
        """
        body = await self._json_body(receive)
        if not isinstance(body, dict):
            raise RequestError((), "spot/tick: body must be a JSON object")
        if body:
            raise RequestError(
                sorted(body), "not accepted: the tick endpoint takes an empty body"
            )
        market = self.state.spot
        generation = market.tick()
        return 200, {
            "status": "ticked",
            "spot_generation": generation,
            "tick_index": market.tick_index,
            "ratios": dict(sorted(market.ratios().items())),
        }

    async def _reload(self, query: bytes, receive: Any) -> Tuple[int, Dict[str, object]]:
        body = await self._json_body(receive)
        if not isinstance(body, dict):
            raise RequestError((), "admin/reload: body must be a JSON object")
        unknown = sorted(set(body) - {"path"})
        if unknown:
            raise RequestError(
                unknown, "not accepted by /admin/reload; allowed: ['path']"
            )
        path = body.get("path")
        if path is not None and (not isinstance(path, str) or not path):
            raise RequestError(("path",), "must be a non-empty path string")
        snapshot = await self.state.reload(path)
        doc: Dict[str, object] = {"status": "reloaded"}
        doc.update(snapshot.to_json())
        return 200, doc


class ServeAppError(ReproError):
    """The ASGI layer was driven with an unsupported scope."""


def _prometheus_text(document: Dict[str, Any]) -> str:
    """Render the metrics JSON schema as Prometheus-ish exposition text."""
    lines = []
    for record in document.get("metrics", []):
        name = str(record["name"]).replace(".", "_")
        labels = record.get("labels", {})
        label_text = (
            "{" + ",".join(
                f'{k}="{v}"' for k, v in sorted(labels.items())
            ) + "}"
            if labels else ""
        )
        if record.get("type") == "histogram":
            for field in ("count", "sum", "min", "max", "mean"):
                lines.append(f"{name}_{field}{label_text} {record[field]}")
        else:
            lines.append(f"{name}{label_text} {record['value']}")
    return "\n".join(lines) + "\n"
