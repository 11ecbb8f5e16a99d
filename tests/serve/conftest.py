"""Fixtures for the serving-layer tests.

The estimator snapshot is fitted once per session (shared ``ceer_small``)
and saved to disk once per test package; each test builds its own
``ServeState`` with a private metrics registry so counter assertions
never see another test's traffic.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.core.persistence import save_estimator
from repro.obs.metrics import MetricsRegistry
from repro.serve.app import ServeApp, ServeState

#: Small warm list — enough to exercise the warm path without paying for
#: the full zoo on every ServeState construction.
WARM_MODELS = ("alexnet",)


@pytest.fixture(scope="package")
def serve_estimator_path(ceer_small, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "ceer.json"
    save_estimator(ceer_small, path)
    return str(path)


@pytest.fixture
def serve_state(serve_estimator_path):
    state = ServeState(
        serve_estimator_path, cache_size=64, warm=True, models=WARM_MODELS,
        registry=MetricsRegistry(),
    )
    yield state
    state.close()


@pytest.fixture
def serve_app(serve_state):
    return ServeApp(serve_state)


async def asgi_request(
    app: ServeApp, method: str, path: str,
    body: Optional[Dict[str, Any]] = None, query: bytes = b"",
) -> Tuple[int, Any]:
    """Drive the ASGI callable directly; returns (status, parsed body)."""
    raw = json.dumps(body).encode() if body is not None else b""
    status_box: Dict[str, int] = {}
    chunks = []

    async def receive() -> Dict[str, Any]:
        return {"type": "http.request", "body": raw, "more_body": False}

    async def send(message: Dict[str, Any]) -> None:
        if message["type"] == "http.response.start":
            status_box["status"] = message["status"]
        else:
            chunks.append(message.get("body", b""))

    scope = {"type": "http", "method": method, "path": path,
             "query_string": query}
    await app(scope, receive, send)
    text = b"".join(chunks).decode("utf-8", "replace")
    try:
        return status_box.get("status", 0), json.loads(text)
    except ValueError:
        return status_box.get("status", 0), text


def request(app: ServeApp, method: str, path: str,
            body: Optional[Dict[str, Any]] = None,
            query: bytes = b"") -> Tuple[int, Any]:
    """Synchronous wrapper for single-request tests."""
    return asyncio.run(asgi_request(app, method, path, body, query))


def counter_total(registry: MetricsRegistry, name: str) -> float:
    """Sum of a counter across all label sets (0.0 when never touched)."""
    return sum(
        float(record["value"])
        for record in registry.snapshot()
        if record["name"] == name and record["type"] == "counter"
    )


def cache_outcomes(registry: MetricsRegistry) -> Dict[str, float]:
    """``serve.cache`` lookups counted by outcome (``hit``/``miss``)."""
    return {
        str(record["labels"]["outcome"]): float(record["value"])
        for record in registry.snapshot()
        if record["name"] == "serve.cache"
    }
