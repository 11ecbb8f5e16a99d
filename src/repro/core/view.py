"""Read-only estimator view: the serving layer's window onto a fit.

A long-lived server (:mod:`repro.serve`) keeps one fitted
:class:`~repro.core.estimator.CeerEstimator` alive across thousands of
requests. Two properties matter there that the batch CLI never needed:

* **immutability** — nothing in a request handler may flip ablation
  flags (``heavy_only``, ``include_communication``) or
  rebind the fitted models mid-flight: a request that starts under one
  configuration must finish under it. :class:`ReadOnlyEstimator` wraps
  the estimator and raises on any attribute assignment while delegating
  every read, so the whole prediction surface (``predict_training``,
  :class:`~repro.core.recommend.Recommender`,
  :func:`~repro.core.batch.evaluate_sweep`) works unchanged.
* **warmth** — the first query for a model pays graph construction,
  compilation, and coefficient stacking. :meth:`ReadOnlyEstimator.warm`
  pre-pays all of it at load time by driving one batched sweep per
  (model, batch size) through the exact caches the live queries will
  hit: the engine's compiled graphs, the stacked per-GPU coefficient
  matrices, the communication grid, and the plan's price grid.

The view is intentionally *not* a deep freeze: the underlying lazy
caches (engine LRU, stacked-model memos) still fill in on miss — that is
the point of them — but they are internal, append-only state that never
changes an answer, only how fast it arrives.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.errors import ModelingError
from repro.core.estimator import CeerEstimator

__all__ = ["ReadOnlyEstimator", "WarmReport"]


class WarmReport:
    """What one :meth:`ReadOnlyEstimator.warm` pass touched."""

    __slots__ = ("models", "batch_sizes", "graphs_compiled", "candidates")

    def __init__(
        self,
        models: Tuple[str, ...],
        batch_sizes: Tuple[int, ...],
        graphs_compiled: int,
        candidates: int,
    ) -> None:
        self.models = models
        self.batch_sizes = batch_sizes
        self.graphs_compiled = graphs_compiled
        self.candidates = candidates

    def to_json(self) -> dict:
        return {
            "models": list(self.models),
            "batch_sizes": list(self.batch_sizes),
            "graphs_compiled": self.graphs_compiled,
            "candidates": self.candidates,
        }


class ReadOnlyEstimator:
    """An immutable delegating facade over a fitted estimator.

    Every attribute *read* (methods, fitted models, lazy caches) passes
    through to the wrapped estimator, so the view is a drop-in argument
    anywhere a :class:`CeerEstimator` duck-types — the recommender, the
    batched sweep, persistence diagnostics. Attribute *writes* raise
    :class:`~repro.errors.ModelingError`: a server holding this view
    cannot accidentally reconfigure the estimator under its clients.
    """

    __slots__ = ("_estimator",)

    def __init__(self, estimator: CeerEstimator) -> None:
        object.__setattr__(self, "_estimator", estimator)

    @property
    def wrapped(self) -> CeerEstimator:
        """The underlying estimator (for tests and diagnostics)."""
        return object.__getattribute__(self, "_estimator")

    def __getattr__(self, name: str) -> Any:
        return getattr(object.__getattribute__(self, "_estimator"), name)

    def __setattr__(self, name: str, value: Any) -> None:
        raise ModelingError(
            f"estimator view is read-only: cannot set {name!r} on a "
            f"serving snapshot (reload a new snapshot instead)"
        )

    def __delattr__(self, name: str) -> None:
        raise ModelingError(
            f"estimator view is read-only: cannot delete {name!r}"
        )

    def __repr__(self) -> str:
        backend = getattr(self.wrapped.compute_models, "backend", "per_gpu")
        return f"ReadOnlyEstimator(backend={backend!r})"

    # ------------------------------------------------------------------
    def warm(
        self,
        models: Optional[Sequence[str]] = None,
        batch_sizes: Sequence[int] = (32,),
        gpu_keys: Optional[Sequence[str]] = None,
    ) -> WarmReport:
        """Pre-compile every (model, batch size) the server will answer for.

        Runs one full-catalog batched sweep per (model, batch) pair,
        which fills — in one pass — the engine's graph/compile caches,
        the stacked coefficient matrices, the totals and comm-grid
        memos, and the shared plan's price grid. After this, a live
        ``predict``/``recommend``/``pareto`` query for any warmed pair
        runs with zero compilation work.
        """
        from repro.core.batch import SweepPlan, evaluate_sweep
        from repro.models.zoo import model_names
        from repro.workloads.dataset import IMAGENET, TrainingJob

        names = tuple(models) if models is not None else model_names()
        batches = tuple(batch_sizes)
        plan = SweepPlan.full_catalog(
            batch_sizes=batches,
            gpu_keys=tuple(gpu_keys) if gpu_keys is not None else None,
        )
        estimator = self.wrapped
        candidates = 0
        for name in names:
            job = TrainingJob(IMAGENET, batch_size=batches[0], epochs=1)
            result = evaluate_sweep(estimator, name, job, plan)
            candidates += result.n_candidates
        return WarmReport(
            models=names,
            batch_sizes=batches,
            graphs_compiled=len(names) * len(batches),
            candidates=candidates,
        )
