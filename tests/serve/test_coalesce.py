"""The response LRU, in isolation."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.coalesce import CoalescingCache

from tests.serve.conftest import counter_total


def _cache(maxsize=4):
    return CoalescingCache(maxsize, registry=MetricsRegistry())


class TestLru:
    def test_miss_then_hit(self):
        cache = _cache()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        first = cache.get_or_compute("k", compute)
        second = cache.get_or_compute("k", compute)
        assert first == second == "value"
        assert calls == [1]
        assert counter_total(cache._registry, "serve.cache") == 2  # miss + hit

    def test_eviction_is_least_recently_used(self):
        cache = _cache(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 1)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        recomputed = []

        def recompute():
            recomputed.append(1)
            return 2

        cache.get_or_compute("b", recompute)
        assert recomputed == [1]

    def test_clear_drops_lru_and_reports_count(self):
        cache = _cache()
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 1)
        assert (cache.clear(), len(cache)) == (2, 0)

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            CoalescingCache(0, registry=MetricsRegistry())

    def test_failures_propagate_and_are_not_cached(self):
        cache = _cache()
        attempts = []

        def boom():
            attempts.append(1)
            raise RuntimeError("evaluation failure")

        def fine():
            attempts.append(2)
            return "ok"

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", boom)
        # the failure must not poison the key: next caller recomputes
        assert cache.get_or_compute("k", fine) == "ok"
        assert attempts == [1, 2]
        assert len(cache) == 1
