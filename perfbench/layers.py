"""Per-layer tracing from outside the program.

The traced run wraps the public entry point of each layer (a module
function or a class method) with a timer and a call counter. Nothing in
``src/`` changes: wrappers are installed by rebinding the attribute on
its owner and on every ``repro.*`` module that imported the same object
by name, and are removed again by :meth:`Tracer.uninstall`.

Counting rules:

* a layer counts only its outermost call on a thread.
  ``Profiler.profile_many`` calling ``Profiler.profile`` is one layer, so
  the inner calls add neither calls nor busy time twice;
* calls made while a serving snapshot warms (inside
  ``ReadOnlyEstimator.warm`` on the same thread) are counted under
  ``<layer>@warm``, apart from the request path, so warm compiles during
  a reload do not read as request-path compiles.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: (module, attribute path, layer). An attribute path ``Cls.meth`` wraps a
#: method on the class; a bare name wraps a module-level function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.profiling.profiler", "Profiler.profile", "profiling"),
    ("repro.profiling.profiler", "Profiler.profile_many", "profiling"),
    ("repro.core.comm_model", "collect_comm_observations", "comm_model.collect"),
    ("repro.core.comm_model", "fit_comm_model", "comm_model.fit"),
    ("repro.core.op_models", "fit_compute_models", "op_models.fit"),
    ("repro.sim.trainer", "measure_training", "sim.measure"),
    ("repro.models.zoo", "build_model", "graph.build"),
    ("repro.core.engine", "compile_graph", "engine.compile"),
    ("repro.core.batch", "evaluate_sweep", "batch.sweep"),
    ("repro.core.estimator", "CeerEstimator.predict_training", "estimator.predict"),
    ("repro.core.recommend", "Recommender.recommend", "recommend"),
    ("repro.core.batch", "SweepResult.frontier", "pareto"),
    ("repro.cloud.pricing", "OnDemandPricing.instance", "pricing.instance"),
    ("repro.cloud.pricing", "MarketRatioPricing.instance", "pricing.instance"),
    ("repro.cloud.pricing", "SpotPricing.instance", "pricing.instance"),
    ("repro.core.rerank", "SpotRerankSession.rerank", "rerank"),
    ("repro.core.rerank", "SpotRerankSession.from_estimator", "rerank.session_build"),
    ("repro.cloud.spotsim", "SpotMarket.tick", "spotsim.tick"),
    ("repro.core.persistence", "load_estimator", "persistence.load"),
    ("repro.core.view", "ReadOnlyEstimator.warm", "view.warm"),
    ("repro.serve.app", "ServeState.reload", "snapshot.reload"),
    ("repro.serve.protocol", "parse_predict", "protocol.parse"),
    ("repro.serve.protocol", "parse_recommend", "protocol.parse"),
    ("repro.serve.protocol", "parse_pareto", "protocol.parse"),
    ("repro.serve.protocol", "PredictRequest.fingerprint", "protocol.fingerprint"),
    ("repro.serve.protocol", "RecommendRequest.fingerprint", "protocol.fingerprint"),
    ("repro.serve.protocol", "ParetoRequest.fingerprint", "protocol.fingerprint"),
)

#: Layer whose nested calls are counted apart (see the module docstring).
WARM_LAYER = "view.warm"

#: The figure drivers the ``figures all`` command dispatches to.
FIGURE_DRIVERS: Tuple[str, ...] = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "ablations", "spot_dynamics",
)


class LayerStats:
    """Calls and busy seconds of one layer."""

    __slots__ = ("calls", "busy_s")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0


class Tracer:
    """Installs timing wrappers and accumulates :class:`LayerStats`."""

    def __init__(self) -> None:
        self._stats: Dict[str, LayerStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Workspaces constructed while installed (for store counters).
        self.workspaces: List[Any] = []

    # -- accounting -------------------------------------------------------
    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        with self._lock:
            return {k: (v.calls, v.busy_s) for k, v in self._stats.items()}

    def _depths(self) -> Dict[str, int]:
        depths = getattr(self._local, "depths", None)
        if depths is None:
            depths = self._local.depths = {}
        return depths

    def _record(self, layer: str, started_s: float) -> None:
        elapsed_s = time.perf_counter() - started_s
        with self._lock:
            entry = self._stats.setdefault(layer, LayerStats())
            entry.calls += 1
            entry.busy_s += elapsed_s

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                started_s = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._record(layer, started_s)
            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            depths = self._depths()
            if depths.get(layer, 0):
                return fn(*args, **kwargs)
            key = (f"{layer}@warm"
                   if layer != WARM_LAYER and depths.get(WARM_LAYER, 0)
                   else layer)
            depths[layer] = 1
            started_s = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depths[layer] = 0
                self._record(key, started_s)
        return traced

    # -- installation -----------------------------------------------------
    def _rebind(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _install_function(self, module_name: str, name: str, layer: str) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, name)
        wrapper = self.wrap(layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, wrapper)

    def _install_method(self, module_name: str, cls_name: str, name: str,
                        layer: str) -> None:
        cls = getattr(importlib.import_module(module_name), cls_name)
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(layer, raw.__func__))
        else:
            wrapped = self.wrap(layer, raw)
        self._rebind(cls, name, wrapped)

    def install(self, figure_drivers: bool = False) -> None:
        """Wrap every layer entry point (idempotent per instance)."""
        if self._undo:
            return
        # Import every module whose names get rebound first, so the
        # identity scan sees their by-name imports.
        for module_name in ("repro.cli", "repro.serve.app", "repro.experiments"):
            importlib.import_module(module_name)
        for module_name, path, layer in TARGETS:
            if "." in path:
                cls_name, name = path.split(".", 1)
                self._install_method(module_name, cls_name, name, layer)
            else:
                self._install_function(module_name, path, layer)
        if figure_drivers:
            experiments = importlib.import_module("repro.experiments")
            for figure in FIGURE_DRIVERS:
                name = f"run_{figure}"
                self._rebind(experiments, name,
                             self.wrap(f"experiments.{figure}",
                                       getattr(experiments, name)))
        self._collect_workspaces()

    def _collect_workspaces(self) -> None:
        from repro.artifacts.workspace import Workspace

        original_init = Workspace.__dict__["__init__"]
        tracer = self

        @functools.wraps(original_init)
        def init(ws: Any, *args: Any, **kwargs: Any) -> None:
            original_init(ws, *args, **kwargs)
            tracer.workspaces.append(ws)

        self._rebind(Workspace, "__init__", init)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def layer_metrics(snap: Dict[str, Tuple[int, float]]) -> Dict[str, float]:
    """The per-layer counters of a :meth:`Tracer.snapshot` that every
    workload reports (0 where unused)."""

    def calls(layer: str) -> int:
        return snap.get(layer, (0, 0.0))[0]

    def busy(layer: str) -> float:
        return snap.get(layer, (0, 0.0))[1]

    metrics: Dict[str, float] = {
        "profiling.calls": calls("profiling"),
        "profiling.busy_s": busy("profiling"),
        "comm_model.collect_busy_s": busy("comm_model.collect"),
        "comm_model.fit_busy_s": busy("comm_model.fit"),
        "op_models.fit_busy_s": busy("op_models.fit"),
        "sim.measure_calls": calls("sim.measure"),
        "sim.measure_busy_s": busy("sim.measure"),
        "graph.build_calls": calls("graph.build"),
        "graph.build_busy_s": busy("graph.build"),
        "engine.compile_calls": calls("engine.compile"),
        "engine.compile_busy_s": busy("engine.compile"),
        "view.warm_compile_calls": calls("engine.compile@warm"),
        "batch.sweep_calls": calls("batch.sweep"),
        "batch.sweep_busy_s": busy("batch.sweep"),
        "estimator.predict_busy_s": busy("estimator.predict"),
        "recommend.busy_s": busy("recommend"),
        "pareto.busy_s": busy("pareto"),
        "pricing.instance_calls": calls("pricing.instance"),
        "rerank.calls": calls("rerank"),
        "rerank.busy_s": busy("rerank") + busy("rerank.session_build"),
        "rerank.session_builds": calls("rerank.session_build"),
        "spotsim.tick_busy_s": busy("spotsim.tick"),
        "snapshot.reload_s": busy("snapshot.reload"),
        "protocol.parse_busy_s": busy("protocol.parse"),
        "protocol.fingerprint_busy_s": busy("protocol.fingerprint"),
    }
    for figure in FIGURE_DRIVERS:
        metrics[f"experiments.{figure}_s"] = busy(f"experiments.{figure}")
    return metrics
