"""The bounded response LRU the serving app answers repeated requests from.

Responses are keyed on the request's canonical fingerprint, prefixed
with the live snapshot generation, so answers from different estimator
generations can never alias. A hit costs a dict move-to-end.

Identical concurrent requests still cost exactly one evaluation, with no
in-flight map: evaluations run inline on the event loop and never
suspend, so the first request of a burst inserts its answer before any
other request of the burst resumes, and those read it as hits.

Failures are never cached: an evaluation that raises leaves no entry
behind, so the next request evaluates again.

The cache is single-loop state — every touch happens on the event-loop
thread — so it needs no lock (see :mod:`repro.serve.app`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["CoalescingCache"]


class CoalescingCache:
    """Bounded response LRU (event-loop local)."""

    def __init__(
        self,
        maxsize: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lru: "OrderedDict[str, Any]" = OrderedDict()
        self._registry = registry if registry is not None else default_registry()

    def __len__(self) -> int:
        return len(self._lru)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._lru), "maxsize": self.maxsize}

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """The response for ``key``: cached, or computed and inserted.

        Inserting evicts the least-recently-used entry past ``maxsize``.
        An exception from ``compute`` propagates and inserts nothing.
        """
        if key in self._lru:
            self._lru.move_to_end(key)
            self._registry.counter("serve.cache", outcome="hit").inc()
            return self._lru[key]
        self._registry.counter("serve.cache", outcome="miss").inc()
        value = compute()
        self._lru[key] = value
        if len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)
        return value

    def clear(self) -> int:
        """Drop every cached response (hot swap); returns how many."""
        dropped = len(self._lru)
        self._lru.clear()
        return dropped
