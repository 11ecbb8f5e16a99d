"""Immutable serving snapshots and the atomic hot-swap holder.

A :class:`ServingSnapshot` is everything one generation of the service
needs to answer queries: a read-only view of a fitted estimator
(:class:`~repro.core.view.ReadOnlyEstimator`), warmed caches, and a memo
of :class:`~repro.core.batch.SweepPlan` objects so repeated ``pareto``
queries reuse one resolved price grid. Snapshots are never mutated after
construction — a new fit becomes a *new* snapshot.

:class:`SnapshotHolder` is the swap point. ``current`` is a single
attribute read (atomic under the GIL), ``swap()`` a single attribute
write plus a generation bump: a request that captured the old snapshot
finishes entirely on the old estimator, a request arriving after the
write runs entirely on the new one, and no request ever sees a mix —
the zero-downtime reload contract ``POST /admin/reload`` and ``SIGHUP``
rely on.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Sequence, Tuple

from repro.core.persistence import load_estimator
from repro.core.view import ReadOnlyEstimator, WarmReport
from repro.errors import ServeError
from repro.obs.spans import span
from repro.workloads.dataset import TrainingJob

__all__ = ["ServingSnapshot", "SnapshotHolder", "load_snapshot"]


class ServingSnapshot:
    """One immutable generation of the service's prediction state."""

    __slots__ = (
        "generation", "source", "backend", "estimator", "warm_report",
        "loaded_at_s", "_plans", "_spot_sessions",
    )

    def __init__(
        self,
        generation: int,
        source: str,
        estimator: ReadOnlyEstimator,
        warm_report: Optional[WarmReport],
        loaded_at_s: float,
    ) -> None:
        self.generation = generation
        self.source = source
        self.backend = getattr(
            estimator.compute_models, "backend", "per_gpu"
        )
        self.estimator = estimator
        self.warm_report = warm_report
        self.loaded_at_s = loaded_at_s
        #: (batches, pricing name) -> SweepPlan; reusing a plan reuses its
        #: memoized (P, G, K) price grid across pareto queries.
        self._plans: Dict[Tuple[Tuple[int, ...], str], object] = {}
        #: (model, batch, samples, epochs) -> SpotRerankSession; the
        #: expensive base sweep runs once per workload, then every price
        #: tick re-ranks it in O(candidates). Only ever touched from the
        #: single evaluation lane, like ``_plans``.
        self._spot_sessions: Dict[Tuple[str, TrainingJob], object] = {}

    def plan_for(self, batches: Tuple[int, ...], pricing_name: str,
                 pricing: object) -> object:
        """A shared full-catalog plan for one (batches, pricing) shape."""
        key = (batches, pricing_name)
        plan = self._plans.get(key)
        if plan is None:
            from repro.core.batch import SweepPlan

            plan = SweepPlan.full_catalog(
                batch_sizes=batches, pricings=(pricing,)
            )
            self._plans[key] = plan
        return plan

    def spot_session_for(self, model: str, job: TrainingJob) -> object:
        """A shared spot re-rank session for one workload shape.

        The base On-Demand sweep (graph compile + stacked matmuls +
        catalog resolution) is the tick-independent part; caching it on
        the snapshot makes every subsequent tick a pure tensor re-scale.
        A hot swap naturally drops the memo with the snapshot.
        """
        key = (model, job)
        session = self._spot_sessions.get(key)
        if session is None:
            from repro.core.rerank import SpotRerankSession

            session = SpotRerankSession.from_estimator(
                self.estimator, model, job, batch_sizes=(job.batch_size,)
            )
            self._spot_sessions[key] = session
        return session

    def to_json(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "generation": self.generation,
            "source": self.source,
            "backend": self.backend,
        }
        if self.warm_report is not None:
            doc["warmed"] = self.warm_report.to_json()
        return doc


def load_snapshot(
    path: str,
    generation: int,
    warm: bool = True,
    models: Optional[Sequence[str]] = None,
    batch_sizes: Sequence[int] = (32,),
) -> ServingSnapshot:
    """Load a fitted estimator from disk and (optionally) warm it.

    Raises :class:`~repro.errors.ServeError` when the file is missing or
    unreadable — the caller (startup, or a reload handler that must keep
    the old snapshot live) turns that into a clean failure.
    """
    try:
        estimator = load_estimator(path)
    except Exception as exc:
        raise ServeError(
            f"cannot load estimator snapshot from {path!r}: {exc}"
        ) from exc
    view = ReadOnlyEstimator(estimator)
    warm_report = None
    if warm:
        with span("serve.warm", generation=generation):
            warm_report = view.warm(models=models, batch_sizes=batch_sizes)
    loaded_at_s = time.time()  # staticcheck: ignore[determinism] — serving metadata, not a model path
    return ServingSnapshot(
        generation=generation,
        source=path,
        estimator=view,
        warm_report=warm_report,
        loaded_at_s=loaded_at_s,
    )


class SnapshotHolder:
    """The atomic pointer the request path reads its snapshot through."""

    def __init__(self, initial: ServingSnapshot) -> None:
        self._lock = threading.Lock()
        self._current = initial

    @property
    def current(self) -> ServingSnapshot:
        """The live snapshot; one attribute read, safe from any thread."""
        return self._current

    @property
    def generation(self) -> int:
        return self._current.generation

    def swap(self, snapshot: ServingSnapshot) -> ServingSnapshot:
        """Install ``snapshot`` as the live generation; returns the old one.

        The lock only serialises concurrent *swappers* (two admin reloads
        racing); readers never take it — they see either the old or the
        new pointer, which is exactly the consistency the service
        promises.
        """
        with self._lock:
            if snapshot.generation <= self._current.generation:
                raise ServeError(
                    f"stale snapshot swap: generation {snapshot.generation} "
                    f"is not newer than live generation "
                    f"{self._current.generation}"
                )
            old = self._current
            self._current = snapshot
            return old
