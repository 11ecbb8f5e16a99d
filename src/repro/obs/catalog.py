"""The registered span/metric name catalogue: one ``subsystem.verb`` namespace.

Span and metric names are an API: traces are diffed across runs, CI
asserts on specific counters, and dashboards key on exact strings. A typo
(``engine.comple``) or an unregistered ad-hoc name silently forks the
namespace — the trace still renders, nothing fails, and the data is
quietly unfindable. This module is the single source of truth for which
names exist; ``repro.staticcheck``'s obs-contract rule checks every
``span(...)`` / ``@traced(...)`` / ``registry.counter(...)`` literal in
the tree against it.

Conventions:

* Names are ``subsystem.verb`` (or ``subsystem.sub.verb``): lowercase,
  ``snake_case`` segments joined by dots, at least two segments.
* A handful of sites build names dynamically (``f"cli.{command}"``,
  ``f"store.{field}"``); those register a *prefix* here instead.
* Adding an instrument means adding its name here first — the static
  check fails otherwise, which is the point.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Mapping

__all__ = [
    "DYNAMIC_METRIC_PREFIXES",
    "DYNAMIC_SPAN_PREFIXES",
    "METRIC_CATALOG",
    "SPAN_CATALOG",
    "is_registered_metric",
    "is_registered_span",
    "well_formed",
]

#: ``subsystem.verb`` shape: >= 2 lowercase snake_case segments.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Every registered span name -> one-line description.
SPAN_CATALOG: Mapping[str, str] = {
    "batch.sweep": "one batched (P,G,K,B) sweep evaluation",
    "check.file": "static analysis of one source file",
    "check.run": "one repro.staticcheck run over a path set",
    "engine.build_graph": "zoo model -> OpGraph construction (miss path)",
    "engine.compile": "OpGraph -> CompiledGraph feature matrices (miss path)",
    "experiments.ablations": "ablation study driver",
    "experiments.ext.batch_size": "batch-size sensitivity extension",
    "experiments.ext.estimator_choice": "estimator-choice extension",
    "experiments.ext.multihost": "multi-host placement extension",
    "experiments.ext.rnn": "RNN workload extension",
    "experiments.ext.sensitivity": "pricing sensitivity extension",
    "experiments.ext.spot_dynamics": "spot-market dynamics extension",
    "experiments.ext.transfer_logo": "leave-one-GPU-out transfer extension",
    "experiments.ext.transformer": "transformer workload extension",
    "experiments.fig2": "Fig. 2 driver", "experiments.fig3": "Fig. 3 driver",
    "experiments.fig4": "Fig. 4 driver", "experiments.fig5": "Fig. 5 driver",
    "experiments.fig6": "Fig. 6 driver", "experiments.fig7": "Fig. 7 driver",
    "experiments.fig8": "Fig. 8 driver", "experiments.fig9": "Fig. 9 driver",
    "experiments.fig10": "Fig. 10 driver", "experiments.fig11": "Fig. 11 driver",
    "experiments.fig12": "Fig. 12 driver",
    "fit.ceer": "full offline fit (profiles -> estimator)",
    "fit.compute_models": "per-(GPU, op type) regression fits",
    "fit.comm_model": "communication-overhead model fit",
    "profile.run": "one (model, GPU) profiling cell",
    "profile.sweep": "a profiling sweep over (models x GPUs)",
    "recommend.sweep": "recommender candidate sweep",
    "serve.load": "initial serving-snapshot load + warm at startup",
    "serve.reload": "zero-downtime snapshot hot swap (admin/reload or SIGHUP)",
    "serve.request": "one HTTP request through the serving app",
    "serve.warm": "pre-compiling graphs / pre-touching caches for a snapshot",
    "spot.tick": "one spot-market price tick (generation advance)",
    "store.compute": "artifact store miss-path compute",
    "store.disk_read": "artifact store disk-tier read",
    "store.lock_wait": "artifact store cross-process lock wait",
    "store.write": "artifact store atomic write",
    "transfer.fit": "pooled cross-GPU transfer-model fit",
    "transfer.logo": "leave-one-GPU-out transfer evaluation",
}

#: Span-name prefixes whose suffix is dynamic (f-string call sites).
DYNAMIC_SPAN_PREFIXES: FrozenSet[str] = frozenset({
    "cli.",  # cli.<command>, one per subcommand
})

#: Every registered metric (counter/gauge/histogram) name.
METRIC_CATALOG: Mapping[str, str] = {
    "batch.candidates": "priceable candidates evaluated by batched sweeps",
    "batch.sweeps": "batched sweep evaluations",
    "check.files": "files analysed per staticcheck run {source=analyzed|cache}",
    "check.findings": "findings emitted per staticcheck run",
    "fit.proportional_fallbacks": "heavy-op cells that fell back to a proportional fit",
    "profiling.records": "profile records produced",
    "profiling.runs": "profiling cells run {gpu=...}",
    "serve.cache": "response LRU lookups {outcome=hit|miss}",
    "serve.cache_dropped": "cached responses dropped by hot swaps",
    "serve.errors": "requests that hit an unexpected internal error",
    "serve.evaluations": "estimator evaluations run inline on the event loop {endpoint=...}",
    "serve.reloads": "successful snapshot hot swaps",
    "serve.request_us": "request wall-clock latency in microseconds {endpoint=...}",
    "serve.requests": "HTTP requests served {endpoint=...,status=...}",
    "sim.cells": "simulated-cell lookups in the per-process memo {result=hit|miss}",
    "spot.reranks": "incremental spot re-rankings over a cached base sweep",
    "spot.ticks": "spot-market price ticks",
    "transfer.fits": "pooled transfer-model fits",
    "transfer.folds": "leave-one-GPU-out folds evaluated",
    "transfer.synthesized": "per-device models synthesized from transfer fits",
}

#: Metric-name prefixes whose suffix is dynamic (f-string call sites).
DYNAMIC_METRIC_PREFIXES: FrozenSet[str] = frozenset({
    "store.",  # store.<field>{kind=...}, one per KindCounters field
})


def well_formed(name: str) -> bool:
    """Whether ``name`` has the ``subsystem.verb`` shape."""
    return _NAME_RE.match(name) is not None


def is_registered_span(name: str) -> bool:
    """Whether a literal span name is in the catalogue."""
    return name in SPAN_CATALOG


def is_registered_metric(name: str) -> bool:
    """Whether a literal metric name is in the catalogue."""
    return name in METRIC_CATALOG
