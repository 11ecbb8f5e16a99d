"""Recommendation-as-a-service: a long-lived server over the engine.

The package turns the fitted-estimator → recommendation pipeline into a
zero-dependency network service (paper, Section V: the point of the
model is answering "which instance should I rent?" *without* re-running
profiling — this layer answers it in milliseconds over HTTP):

* :mod:`repro.serve.protocol` — JSON adapters onto the request types
  of :mod:`repro.requests`, and the response encoders.
* :mod:`repro.serve.snapshot` — immutable per-generation serving state
  and the atomic hot-swap holder.
* :mod:`repro.serve.coalesce` — the bounded, generation-keyed response
  LRU.
* :mod:`repro.serve.app` — the ASGI-compatible application object and
  its endpoint handlers.
* :mod:`repro.serve.http` — a stdlib asyncio HTTP/1.1 server with
  keep-alive and signal-driven reload/shutdown.

``repro serve`` (the CLI) wires these together; the ``serve`` section of
``tools/bench.py`` load-tests the result, and ``tools/perf_gate.py``
judges its report by the gates kept in ``BENCH_serve.json``: the
machine-independent ratios and correctness flags, in CI.
"""

from repro.serve.app import ServeApp, ServeState
from repro.serve.coalesce import CoalescingCache
from repro.serve.http import HttpServer, serve_forever
from repro.serve.protocol import (
    ParetoRequest,
    PredictRequest,
    RecommendRequest,
)
from repro.serve.snapshot import ServingSnapshot, SnapshotHolder, load_snapshot

__all__ = [
    "ServeApp",
    "ServeState",
    "CoalescingCache",
    "HttpServer",
    "serve_forever",
    "PredictRequest",
    "RecommendRequest",
    "ParetoRequest",
    "ServingSnapshot",
    "SnapshotHolder",
    "load_snapshot",
]
