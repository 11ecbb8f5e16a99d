"""The ASGI application: endpoints, error mapping, coalescing, hot swap."""

import asyncio
import threading

import pytest

from tests.serve.conftest import (
    asgi_request,
    cache_outcomes,
    counter_total,
    request,
)


class TestEndpoints:
    def test_healthz_reports_generation_and_cache(self, serve_app):
        status, doc = request(serve_app, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["generation"] == 1
        assert doc["backend"] == "per_gpu"
        assert doc["cache"]["entries"] == 0
        assert doc["uptime_s"] >= 0

    def test_predict_returns_prediction_with_generation(self, serve_app):
        status, doc = request(serve_app, "POST", "/predict",
                              {"model": "alexnet", "gpu": "V100"})
        assert status == 200
        assert doc["generation"] == 1
        prediction = doc["prediction"]
        assert prediction["model"] == "alexnet"
        assert prediction["gpu"] == "V100"
        assert prediction["per_iteration_ms"] > 0
        assert prediction["cost_usd"] > 0

    def test_recommend_returns_best_and_runners_up(self, serve_app):
        status, doc = request(serve_app, "POST", "/recommend",
                              {"model": "resnet_50"})
        assert status == 200
        assert doc["objective"]
        assert doc["best"]["instance"]
        assert doc["best"]["cost_usd"] > 0
        assert len(doc["runners_up"]) <= 3
        assert doc["n_feasible"] >= 1

    def test_pareto_returns_frontier(self, serve_app):
        status, doc = request(serve_app, "POST", "/pareto",
                              {"model": "alexnet", "batches": [16, 32]})
        assert status == 200
        frontier = doc["frontier"]
        assert 0 < len(frontier) <= doc["n_candidates"]
        # frontier invariant: as time grows, cost must shrink
        hours = [p["total_hours"] for p in frontier]
        costs = [p["cost_usd"] for p in frontier]
        assert hours == sorted(hours)
        assert costs == sorted(costs, reverse=True)

    def test_metrics_json_and_prometheus(self, serve_app):
        request(serve_app, "POST", "/predict",
                {"model": "alexnet", "gpu": "V100"})
        status, doc = request(serve_app, "GET", "/metrics")
        assert status == 200
        names = {record["name"] for record in doc["metrics"]}
        assert "serve.requests" in names
        status, text = request(serve_app, "GET", "/metrics",
                               query=b"format=prometheus")
        assert status == 200
        assert isinstance(text, str)
        assert "serve_requests" in text


class TestErrorMapping:
    def test_unknown_route_is_404(self, serve_app):
        status, doc = request(serve_app, "GET", "/nope")
        assert status == 404
        assert "error" in doc

    def test_wrong_method_is_405(self, serve_app):
        status, doc = request(serve_app, "GET", "/predict")
        assert status == 405
        assert "error" in doc

    def test_malformed_json_is_400(self, serve_app):
        async def scenario():
            async def receive():
                return {"type": "http.request", "body": b"{nope",
                        "more_body": False}

            status_box = {}

            async def send(message):
                if message["type"] == "http.response.start":
                    status_box["status"] = message["status"]

            await serve_app({"type": "http", "method": "POST",
                             "path": "/predict", "query_string": b""},
                            receive, send)
            return status_box["status"]

        assert asyncio.run(scenario()) == 400

    def test_schema_violation_is_400(self, serve_app):
        status, doc = request(serve_app, "POST", "/predict",
                              {"model": "alexnet"})
        assert status == 400
        assert "gpu" in doc["error"]

    @pytest.mark.parametrize("field, body", [
        ("risk_aversion", {"scenario": "spot", "risk_aversion": float("nan")}),
        ("budget", {"objective": "total-budget", "budget": float("nan")}),
        ("budget", {"objective": "total-budget", "budget": float("inf")}),
        ("slack", {"objective": "hourly-budget", "budget": 3.0,
                   "slack": float("-inf")}),
    ])
    def test_non_finite_number_is_400_naming_field(self, serve_app, field, body):
        """Regression: json.loads accepts NaN/Infinity, which used to reach
        the recommender (a misleading 422, or a 200 for Infinity)."""
        status, doc = request(serve_app, "POST", "/recommend",
                              {"model": "alexnet", **body})
        assert status == 400
        assert repr(field) in doc["error"] and "finite" in doc["error"]

    def test_unknown_model_is_422(self, serve_app):
        status, doc = request(serve_app, "POST", "/predict",
                              {"model": "not_a_net", "gpu": "V100"})
        assert status == 422
        assert "error" in doc

    def test_statuses_are_counted_per_endpoint(self, serve_app):
        request(serve_app, "POST", "/predict", {"model": "alexnet"})
        request(serve_app, "GET", "/healthz")
        counted = {
            (r["labels"]["endpoint"], r["labels"]["status"])
            for r in serve_app.state.registry.snapshot()
            if r["name"] == "serve.requests"
        }
        assert ("/predict", "400") in counted
        assert ("/healthz", "200") in counted


class TestCoalescing:
    def test_identical_burst_computes_exactly_once(self, serve_app):
        body = {"model": "alexnet", "gpu": "V100", "batch": 48}

        async def scenario():
            return await asyncio.gather(*(
                asgi_request(serve_app, "POST", "/predict", body)
                for _ in range(20)
            ))

        results = asyncio.run(scenario())
        assert all(status == 200 for status, _ in results)
        docs = [doc for _, doc in results]
        assert all(doc == docs[0] for doc in docs)
        registry = serve_app.state.registry
        assert counter_total(registry, "serve.evaluations") == 1
        assert cache_outcomes(registry) == {"miss": 1, "hit": 19}

    def test_repeat_request_is_an_lru_hit(self, serve_app):
        body = {"model": "alexnet", "gpu": "K80"}
        request(serve_app, "POST", "/predict", body)
        request(serve_app, "POST", "/predict", body)
        registry = serve_app.state.registry
        assert counter_total(registry, "serve.evaluations") == 1
        hits = [r for r in registry.snapshot()
                if r["name"] == "serve.cache"
                and r["labels"].get("outcome") == "hit"]
        assert hits and hits[0]["value"] == 1

    def test_failed_evaluation_is_not_cached(self, serve_app):
        body = {"model": "not_a_net", "gpu": "V100"}
        first, _ = request(serve_app, "POST", "/predict", body)
        second, _ = request(serve_app, "POST", "/predict", body)
        assert first == second == 422
        registry = serve_app.state.registry
        assert counter_total(registry, "serve.evaluations") == 2
        assert cache_outcomes(registry) == {"miss": 2}


class TestThreads:
    def test_evaluations_run_on_the_loop_and_reloads_on_the_executor(
        self, serve_app, monkeypatch
    ):
        from repro.serve import app as app_module

        seen = {"predict": [], "load": []}

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                seen[name].append(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(app_module, "_predict_thunk",
                            recording("predict", app_module._predict_thunk))
        monkeypatch.setattr(app_module, "load_snapshot",
                            recording("load", app_module.load_snapshot))

        async def scenario():
            statuses = [
                (await asgi_request(serve_app, "POST", "/predict",
                                    {"model": "alexnet", "gpu": gpu}))[0]
                for gpu in ("V100", "K80")
            ]
            statuses.append((await asgi_request(
                serve_app, "POST", "/admin/reload", {}))[0])
            return threading.get_ident(), statuses

        loop_thread, statuses = asyncio.run(scenario())
        lane_thread = serve_app.state.executor.submit(
            threading.get_ident).result(timeout=10)
        assert statuses == [200, 200, 200]
        assert seen["predict"] == [loop_thread, loop_thread]
        assert seen["load"] == [lane_thread]
        assert lane_thread != loop_thread


class TestReload:
    def test_reload_bumps_generation_and_drops_cache(self, serve_app):
        async def scenario():
            await asgi_request(serve_app, "POST", "/predict",
                               {"model": "alexnet", "gpu": "V100"})
            status, doc = await asgi_request(serve_app, "POST",
                                             "/admin/reload", {})
            _, health = await asgi_request(serve_app, "GET", "/healthz")
            return status, doc, health

        status, doc, health = asyncio.run(scenario())
        assert status == 200
        assert doc["status"] == "reloaded"
        assert doc["generation"] == 2
        assert health["generation"] == 2
        assert health["cache"]["entries"] == 0
        registry = serve_app.state.registry
        assert counter_total(registry, "serve.reloads") == 1
        assert counter_total(registry, "serve.cache_dropped") == 1

    def test_reload_rejects_unknown_fields(self, serve_app):
        status, doc = request(serve_app, "POST", "/admin/reload",
                              {"path": "x.json", "force": True})
        assert status == 400
        assert "force" in doc["error"]

    def test_failed_reload_keeps_old_snapshot_live(self, serve_app):
        async def scenario():
            status, doc = await asgi_request(
                serve_app, "POST", "/admin/reload",
                {"path": "/nonexistent/estimator.json"},
            )
            _, health = await asgi_request(serve_app, "GET", "/healthz")
            ok, _ = await asgi_request(serve_app, "POST", "/predict",
                                       {"model": "alexnet", "gpu": "V100"})
            return status, doc, health, ok

        status, doc, health, ok = asyncio.run(scenario())
        assert status == 422
        assert "cannot load estimator" in doc["error"]
        assert health["generation"] == 1
        assert ok == 200


class TestHotSwapUnderLoad:
    def test_hammering_clients_see_only_consistent_responses(self, serve_app):
        """N concurrent /recommend clients across live reloads: every
        response is a 200 with a coherent generation stamp, nothing
        drops, and traffic demonstrably overlapped the swaps."""
        bodies = [{"model": m, "batch": b}
                  for m in ("alexnet", "resnet_50", "vgg_16")
                  for b in (16, 32)]

        async def scenario():
            stop = asyncio.Event()
            generations = set()
            completed = []
            failures = []

            async def client(idx):
                n = 0
                while not stop.is_set():
                    body = bodies[(idx + n) % len(bodies)]
                    status, doc = await asgi_request(
                        serve_app, "POST", "/recommend", body
                    )
                    if status != 200:
                        failures.append((status, doc))
                    else:
                        generations.add(doc["generation"])
                    n += 1
                    # LRU hits complete without suspending; yield so the
                    # swapper and the other clients get scheduled.
                    await asyncio.sleep(0)
                completed.append(n)

            async def swapper():
                for _ in range(3):
                    await asyncio.sleep(0.02)
                    await serve_app.state.reload()
                stop.set()

            await asyncio.gather(*(client(i) for i in range(8)), swapper())
            return generations, completed, failures

        generations, completed, failures = asyncio.run(scenario())
        assert failures == []
        assert sum(completed) > 0
        assert serve_app.state.holder.generation == 4
        assert len(generations) > 1
        assert generations <= {1, 2, 3, 4}
