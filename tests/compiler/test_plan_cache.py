"""Plan cache: LRU behaviour, counters, keying by (query text, rewrite
config, stats fingerprint), thread safety.

``JsonProcessor`` and ``QueryService`` compile through this one class;
``tests/test_processor_and_compiler.py`` covers the processor's use.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.algebra.rules import RewriteConfig
from repro.compiler import PlanCache
from repro.service import PlanCache as ServicePlanCache


ALL = RewriteConfig.all()


class TestPlanCache:
    def test_one_class_for_processor_and_service(self):
        assert ServicePlanCache is PlanCache

    def test_hit_returns_same_compiled_object(self):
        cache = PlanCache(capacity=4)
        first, hit1 = cache.get_or_compile("1 + 1", ALL)
        second, hit2 = cache.get_or_compile("1 + 1", ALL)
        assert (hit1, hit2) == (False, True)
        assert second is first
        assert cache.stats() == {
            "capacity": 4,
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }

    def test_config_is_part_of_the_key(self):
        cache = PlanCache(capacity=4)
        baseline = RewriteConfig.none()
        a, _ = cache.get_or_compile("1 + 1", ALL)
        b, hit = cache.get_or_compile("1 + 1", baseline)
        assert not hit  # different toggle config, different plan
        assert b is not a
        assert len(cache) == 2

    def test_lru_evicts_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.get_or_compile("1 + 1", ALL)
        cache.get_or_compile("2 + 2", ALL)
        cache.get_or_compile("1 + 1", ALL)  # refresh 1+1
        cache.get_or_compile("3 + 3", ALL)  # evicts 2+2
        assert cache.evictions == 1
        _, hit = cache.get_or_compile("1 + 1", ALL)
        assert hit
        _, hit = cache.get_or_compile("2 + 2", ALL)
        assert not hit  # was evicted

    def test_zero_capacity_compiles_every_time(self):
        cache = PlanCache(capacity=0)
        _, hit1 = cache.get_or_compile("1 + 1", ALL)
        _, hit2 = cache.get_or_compile("1 + 1", ALL)
        assert (hit1, hit2) == (False, False)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)

    def test_clear(self):
        cache = PlanCache(capacity=4)
        cache.get_or_compile("1 + 1", ALL)
        cache.clear()
        assert len(cache) == 0
        _, hit = cache.get_or_compile("1 + 1", ALL)
        assert not hit

    def test_concurrent_access_converges_to_one_entry(self):
        cache = PlanCache(capacity=8)
        queries = ["1 + 1", "2 + 2"] * 8

        with ThreadPoolExecutor(max_workers=8) as pool:
            compiled = list(
                pool.map(lambda q: cache.get_or_compile(q, ALL)[0], queries)
            )
        assert len(cache) == 2
        # every thread that asked for the same text got a usable plan
        assert all(c is not None for c in compiled)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == len(queries)
