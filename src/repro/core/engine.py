"""Compile-once feature extraction: walk a graph once, predict many times.

Eq. (2)'s per-op sum

    sum_i t_GPU,op_i(input_i)

factorises by op type: every heavy op type contributes
``sum(clip(X @ w + b))`` for a feature matrix ``X`` that depends only on
the graph, while light/CPU/unseen ops contribute ``count * median``. So a
graph is *compiled* once into per-type feature matrices plus a handful of
counts (:class:`CompiledGraph`), and every evaluation after that is a few
dozen matrix ops in :func:`~repro.core.batch.evaluate_compiled_batch_us`
— the same amortisation Habitat and PROFET use to make runtime
prediction cheap enough to sit in a serving loop.

:class:`PredictionEngine` holds the two caches in front of that kernel:

* built graphs, keyed by ``(model_name, batch_size)`` (LRU);
* compiled feature matrices, keyed by graph identity (LRU, holds a strong
  reference to the graph so the identity key cannot dangle).

Compiling keeps the paper's per-op semantics (Section IV-B): the
heavy/light/CPU partition of the fitted classification, unseen GPU op
types counted apart (``strict_unseen`` raises on them, otherwise they
cost the light median), features exactly as :func:`features_for`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.graph.graph import OpGraph
from repro.graph.ops import Device
from repro.obs.spans import span
from repro.profiling.features import features_for
from repro.core.classify import CPU, HEAVY
from repro.core.op_models import ComputeTimeModels

#: Default LRU capacities. Graph entries are whole op graphs (the zoo has
#: 12 models; 32 leaves room for several batch sizes per model); compiled
#: entries are a few hundred KB of float64 each.
GRAPH_CACHE_SIZE = 32
COMPILED_CACHE_SIZE = 32


@dataclass(frozen=True)
class CompiledGraph:
    """A graph reduced to the arrays Eq. (2) needs — no ops, no shapes.

    Attributes:
        graph_name / batch_size: identity of the source graph.
        num_ops: total operation count of the source graph.
        num_parameters: trainable parameters (input to the comm model).
        heavy_features: op type -> (n_instances, n_features) matrix, rows
            in graph order, features exactly as :func:`features_for`.
        n_light: known light GPU op instances.
        n_cpu: host-device ops plus GPU ops whose type classifies as CPU
            (both priced at the CPU median).
        n_unseen: GPU ops whose type never appeared in training profiles.
        unseen_types: those types, first-encounter order (for error
            messages under ``strict_unseen``).
    """

    graph_name: str
    batch_size: int
    num_ops: int
    num_parameters: int
    heavy_features: Dict[str, np.ndarray]
    n_light: int
    n_cpu: int
    n_unseen: int
    unseen_types: Tuple[str, ...]

    @property
    def n_heavy(self) -> int:
        return sum(x.shape[0] for x in self.heavy_features.values())


def compile_graph(graph: OpGraph, models: ComputeTimeModels) -> CompiledGraph:
    """Walk ``graph`` once and extract everything prediction needs.

    The result is classification-specific (it bakes in ``models``'
    heavy/light/CPU partition) but GPU-oblivious: the same compiled graph
    serves every GPU model, with or without ``heavy_only``.
    """
    classification = models.classification
    rows: Dict[str, list] = {}
    n_light = n_cpu = n_unseen = 0
    unseen: "OrderedDict[str, None]" = OrderedDict()
    for op in graph:
        if op.device is Device.CPU:
            n_cpu += 1
            continue
        if not classification.knows(op.op_type):
            n_unseen += 1
            unseen.setdefault(op.op_type)
            continue
        kind = classification.kind(op.op_type)
        if kind == HEAVY:
            rows.setdefault(op.op_type, []).append(features_for(op))
        elif kind == CPU:
            n_cpu += 1
        else:
            n_light += 1
    return CompiledGraph(
        graph_name=graph.name,
        batch_size=graph.batch_size,
        num_ops=len(graph),
        num_parameters=graph.num_parameters,
        heavy_features={
            op_type: np.asarray(feats, dtype=float)
            for op_type, feats in rows.items()
        },
        n_light=n_light,
        n_cpu=n_cpu,
        n_unseen=n_unseen,
        unseen_types=tuple(unseen),
    )


class _LRU(OrderedDict):
    """A minimal LRU mapping: get refreshes recency, put evicts oldest."""

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity

    # obs: warm
    def lookup(self, key: object) -> Optional[object]:
        if key not in self:
            return None
        self.move_to_end(key)
        return self[key]

    def insert(self, key: object, value: object) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.capacity:
            self.popitem(last=False)


class PredictionEngine:
    """Graph and compile caches over one fitted :class:`ComputeTimeModels`.

    One engine wraps one fitted model set (its classification is baked
    into compiled graphs). :class:`~repro.core.estimator.CeerEstimator`
    constructs one automatically; single predictions, the recommender and
    the experiment drivers share it through the estimator, so every
    evaluation of a graph reuses one compilation. Evaluating Eq. (2) on a
    compiled graph is :func:`~repro.core.batch.evaluate_compiled_batch_us`.
    """

    def __init__(
        self,
        compute_models: ComputeTimeModels,
        graph_cache_size: int = GRAPH_CACHE_SIZE,
        compiled_cache_size: int = COMPILED_CACHE_SIZE,
    ) -> None:
        self.compute_models = compute_models
        self._graphs: _LRU = _LRU(graph_cache_size)
        # Values are (graph, compiled): holding the source graph keeps its
        # id() alive, so the identity key can never alias a new graph.
        self._compiled: _LRU = _LRU(compiled_cache_size)
        self.stats: Dict[str, int] = {
            "graph_hits": 0, "graph_misses": 0,
            "compile_hits": 0, "compile_misses": 0,
        }

    # ------------------------------------------------------------------
    def resolve_graph(
        self, model: Union[str, OpGraph], batch_size: int = 32
    ) -> OpGraph:
        """Return the op graph for a zoo name (memoized) or pass one through."""
        if isinstance(model, OpGraph):
            return model
        key = (model, batch_size)
        graph = self._graphs.lookup(key)
        if graph is not None:
            self.stats["graph_hits"] += 1
            return graph
        from repro.models.zoo import build_model

        self.stats["graph_misses"] += 1
        with span("engine.build_graph", model=model, batch_size=batch_size):
            graph = build_model(model, batch_size=batch_size)
        self._graphs.insert(key, graph)
        return graph

    def compile(self, model: Union[str, OpGraph], batch_size: int = 32) -> CompiledGraph:
        """Compile a graph (memoized on graph identity)."""
        graph = self.resolve_graph(model, batch_size)
        entry = self._compiled.lookup(id(graph))
        if entry is not None:
            self.stats["compile_hits"] += 1
            return entry[1]
        self.stats["compile_misses"] += 1
        with span("engine.compile", graph=graph.name, ops=len(graph)):
            compiled = compile_graph(graph, self.compute_models)
        self._compiled.insert(id(graph), (graph, compiled))
        return compiled

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all cached graphs and compilations."""
        self._graphs.clear()
        self._compiled.clear()
        for k in self.stats:
            self.stats[k] = 0

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss counters plus current cache sizes (diagnostics/bench)."""
        return {
            **self.stats,
            "graphs_cached": len(self._graphs),
            "compiled_cached": len(self._compiled),
        }
