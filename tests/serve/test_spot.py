"""Spot scenario over the serving app: ticks, re-ranking, consistency."""

from __future__ import annotations

import asyncio

import pytest

from tests.serve.conftest import (
    asgi_request,
    cache_outcomes,
    counter_total,
    request,
)

SPOT_BODY = {"model": "alexnet", "batch": 32, "scenario": "spot"}


class TestSpotRecommend:
    def test_spot_recommendation_shape(self, serve_app):
        status, doc = request(serve_app, "POST", "/recommend", SPOT_BODY)
        assert status == 200
        assert doc["scenario"] == "spot"
        assert doc["objective"] == "spot-risk"
        assert doc["spot_generation"] == 0
        assert doc["n_candidates"] > 0
        best = doc["best"]
        assert best["instance"].startswith("spot:")
        assert "expected_cost_usd" in best
        assert "expected_makespan_hours" in best
        assert "hazard_per_hr" in best
        assert len(doc["runners_up"]) > 0

    def test_risk_aversion_echoed_and_applied(self, serve_app):
        _, neutral = request(serve_app, "POST", "/recommend", SPOT_BODY)
        _, averse = request(
            serve_app, "POST", "/recommend",
            {**SPOT_BODY, "risk_aversion": 50.0},
        )
        assert neutral["risk_aversion"] == 0.0
        assert averse["risk_aversion"] == 50.0
        # A huge λ pushes the winner toward min-makespan.
        assert (averse["best"]["expected_makespan_hours"]
                <= neutral["best"]["expected_makespan_hours"])

    def test_static_requests_untouched(self, serve_app):
        status, doc = request(
            serve_app, "POST", "/recommend", {"model": "alexnet", "batch": 32}
        )
        assert status == 200
        assert "scenario" not in doc
        assert "hazard_per_hr" not in doc["best"]

    def test_identical_spot_burst_coalesces(self, serve_app):
        async def burst():
            return await asyncio.gather(*(
                asgi_request(serve_app, "POST", "/recommend", SPOT_BODY)
                for _ in range(6)
            ))

        results = asyncio.run(burst())
        assert all(status == 200 for status, _ in results)
        docs = [doc for _, doc in results]
        assert all(doc == docs[0] for doc in docs)
        # One evaluation served the whole burst; the rest hit its answer.
        registry = serve_app.state.registry
        assert counter_total(registry, "serve.evaluations") == 1
        assert cache_outcomes(registry) == {"miss": 1, "hit": 5}


class TestSpotTick:
    def test_tick_advances_generation(self, serve_app):
        status, before = request(serve_app, "GET", "/healthz")
        assert status == 200 and before["spot_generation"] == 0
        status, doc = request(serve_app, "POST", "/spot/tick")
        assert status == 200
        assert doc["status"] == "ticked"
        assert doc["spot_generation"] == 1
        assert doc["ratios"] == dict(sorted(
            serve_app.state.spot.trace.ratios_at(1).items()
        ))
        _, after = request(serve_app, "GET", "/healthz")
        assert after["spot_generation"] == 1

    def test_tick_changes_the_recommendation_prices(self, serve_app):
        _, first = request(serve_app, "POST", "/recommend", SPOT_BODY)
        request(serve_app, "POST", "/spot/tick")
        _, second = request(serve_app, "POST", "/recommend", SPOT_BODY)
        assert first["spot_generation"] == 0
        assert second["spot_generation"] == 1
        assert first["ratios"] != second["ratios"]

    def test_tick_rejects_payload(self, serve_app):
        status, doc = request(
            serve_app, "POST", "/spot/tick", {"generation": 3}
        )
        assert status == 400
        assert "empty body" in doc["error"]

    def test_ticks_counter_increments(self, serve_app):
        # spot.* counters are process-wide instruments on the default
        # registry (the market is not per-snapshot state), so assert on
        # the delta rather than an absolute count.
        from repro.obs.metrics import default_registry

        before = counter_total(default_registry(), "spot.ticks")
        request(serve_app, "POST", "/spot/tick")
        request(serve_app, "POST", "/spot/tick")
        assert counter_total(default_registry(), "spot.ticks") == before + 2


class TestSpotProtocolErrors:
    @pytest.mark.parametrize("extra", [
        {"pricing": "spot"},
        {"objective": "min-time"},
        {"budget": 3.0},
        {"slack": 0.1},
    ])
    def test_spot_conflicts_rejected(self, serve_app, extra):
        status, doc = request(
            serve_app, "POST", "/recommend", {**SPOT_BODY, **extra}
        )
        assert status == 400
        assert "conflict with scenario 'spot'" in doc["error"]

    def test_unknown_scenario_rejected(self, serve_app):
        status, doc = request(
            serve_app, "POST", "/recommend",
            {"model": "alexnet", "batch": 32, "scenario": "futures"},
        )
        assert status == 400
        assert "scenario" in doc["error"]

    def test_risk_aversion_requires_spot(self, serve_app):
        status, doc = request(
            serve_app, "POST", "/recommend",
            {"model": "alexnet", "batch": 32, "risk_aversion": 1.0},
        )
        assert status == 400
        assert "risk_aversion" in doc["error"]

    def test_negative_risk_aversion_rejected(self, serve_app):
        status, doc = request(
            serve_app, "POST", "/recommend",
            {**SPOT_BODY, "risk_aversion": -0.5},
        )
        assert status == 400
        assert "risk_aversion" in doc["error"]


class TestHotTickUnderLoad:
    def test_no_stale_generation_rankings(self, serve_app):
        """N concurrent spot clients across live ticks: every response is
        a 200 whose quoted ratios are exactly the trace row of its own
        spot_generation — a tick racing an evaluation never yields a
        ranking that mixes two generations' prices."""
        trace = serve_app.state.spot.trace

        async def scenario():
            stop = asyncio.Event()
            observed = set()
            completed = []
            failures = []

            async def client(idx):
                n = 0
                bodies = [SPOT_BODY, {**SPOT_BODY, "risk_aversion": 1.0}]
                while not stop.is_set():
                    status, doc = await asgi_request(
                        serve_app, "POST", "/recommend",
                        bodies[(idx + n) % len(bodies)],
                    )
                    if status != 200:
                        failures.append((status, doc))
                    else:
                        generation = doc["spot_generation"]
                        observed.add(generation)
                        expected = dict(sorted(trace.ratios_at(
                            generation % trace.n_ticks
                        ).items()))
                        if doc["ratios"] != expected:
                            failures.append(("stale", generation, doc))
                    n += 1
                    await asyncio.sleep(0)
                completed.append(n)

            async def ticker():
                for _ in range(5):
                    await asyncio.sleep(0.01)
                    status, _ = await asgi_request(
                        serve_app, "POST", "/spot/tick"
                    )
                    assert status == 200
                stop.set()

            await asyncio.gather(*(client(i) for i in range(6)), ticker())
            return observed, completed, failures

        observed, completed, failures = asyncio.run(scenario())
        assert not failures
        assert all(n > 0 for n in completed)
        # Traffic demonstrably spanned multiple price generations.
        assert len(observed) >= 2
        assert serve_app.state.spot.generation == 5
