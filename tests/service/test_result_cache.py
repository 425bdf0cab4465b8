"""Result cache: LRU behaviour plus the source-fingerprint key."""

import json
import os

import pytest

from repro.algebra.rules import RewriteConfig
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.service import (
    CachedResult,
    QueryService,
    ResultCache,
    source_fingerprints,
)


def entry(tag: str) -> CachedResult:
    return CachedResult(items=[tag], stats=None, degradation=None, strategy="s")


class TestResultCache:
    def test_get_put_counters(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", entry("v"))
        hit = cache.get("k")
        assert hit.items == ["v"]
        assert cache.stats() == {
            "capacity": 4,
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
        }

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", entry("a"))
        cache.put("b", entry("b"))
        cache.get("a")  # refresh a
        cache.put("c", entry("c"))  # evicts b
        assert cache.evictions == 1
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.get("c") is not None

    def test_zero_capacity_never_stores(self):
        cache = ResultCache(capacity=0)
        cache.put("k", entry("v"))
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)

    def test_clear(self):
        cache = ResultCache(capacity=4)
        cache.put("k", entry("v"))
        cache.clear()
        assert cache.get("k") is None


class TestSourceFingerprints:
    def collection_dir(self, tmp_path, text='{"root": [{"results": []}]}'):
        directory = tmp_path / "data" / "c"
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "part.json").write_text(text)
        return str(tmp_path / "data")

    def test_in_memory_sources_are_content_keyed(self):
        source = InMemorySource(collections={"/c": [['{"a": 1}']]})
        before = source_fingerprints(source, ["/c"], "stat")
        assert before is not None and len(before) == 1
        # identical texts fingerprint identically, regardless of mode
        assert source_fingerprints(source, ["/c"], "content") == before

    def test_file_change_changes_content_fingerprint(self, tmp_path):
        base = self.collection_dir(tmp_path, '{"a": 1}')
        catalog = CollectionCatalog(base)
        before = source_fingerprints(catalog, ["/c"], "content")
        path = os.path.join(base, "c", "part.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"a": 2}')  # same byte length
        after = source_fingerprints(catalog, ["/c"], "content")
        assert before != after

    def test_touch_does_not_change_content_fingerprint(self, tmp_path):
        base = self.collection_dir(tmp_path)
        catalog = CollectionCatalog(base)
        before = source_fingerprints(catalog, ["/c"], "content")
        path = os.path.join(base, "c", "part.json")
        os.utime(path, (1, 1))
        assert source_fingerprints(catalog, ["/c"], "content") == before

    def test_touch_changes_stat_fingerprint(self, tmp_path):
        base = self.collection_dir(tmp_path)
        catalog = CollectionCatalog(base)
        before = source_fingerprints(catalog, ["/c"], "stat")
        path = os.path.join(base, "c", "part.json")
        os.utime(path, (1, 1))
        assert source_fingerprints(catalog, ["/c"], "stat") != before

    def test_modes_never_cross_match(self, tmp_path):
        base = self.collection_dir(tmp_path)
        catalog = CollectionCatalog(base)
        stat = source_fingerprints(catalog, ["/c"], "stat")
        content = source_fingerprints(catalog, ["/c"], "content")
        assert stat != content  # the mode tag is part of the fingerprint

    def test_vanished_file_returns_none(self, tmp_path):
        base = self.collection_dir(tmp_path)
        catalog = CollectionCatalog(base)
        os.unlink(os.path.join(base, "c", "part.json"))
        assert source_fingerprints(catalog, ["/c"], "content") is None

    def test_unknown_source_type_returns_none(self):
        class Opaque:
            pass

        assert source_fingerprints(Opaque(), ["/c"], "content") is None

    def test_invalid_mode_rejected(self, tmp_path):
        from repro.errors import ReproError

        base = self.collection_dir(tmp_path)
        with pytest.raises(ReproError):
            source_fingerprints(CollectionCatalog(base), ["/c"], "mtime")

    def test_order_is_deterministic(self, tmp_path):
        directory = tmp_path / "data" / "c"
        directory.mkdir(parents=True)
        for i in range(3):
            (directory / f"p{i}.json").write_text(json.dumps({"i": i}))
        catalog = CollectionCatalog(str(tmp_path / "data"))
        first = source_fingerprints(catalog, ["/c"], "content")
        second = source_fingerprints(catalog, ["/c"], "content")
        assert first == second
        assert [label for label, _ in first] == sorted(
            label for label, _ in first
        )


def write_rows(base, name: str, count: int) -> None:
    directory = base / name
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "part.json").write_text(
        "\n".join(json.dumps({"n": i}) for i in range(count))
    )


class TestServiceKeysEveryInput:
    """The service's cache key covers every input the plan reads, not
    only the collections a DATASCAN streams."""

    @pytest.mark.parametrize(
        "query,before,after",
        [
            # ASSIGN over EMPTY-TUPLE-SOURCE: no DATASCAN at all
            ('count(collection("/d"))', [3], [5]),
            (
                'for $r in collection("/c") return count(collection("/d"))',
                [3, 3],
                [5, 5],
            ),
        ],
        ids=["no-scan", "read-in-return"],
    )
    @pytest.mark.parametrize(
        "config", [RewriteConfig(), RewriteConfig.none()], ids=["all", "none"]
    )
    def test_collection_read_in_an_expression(
        self, tmp_path, config, query, before, after
    ):
        write_rows(tmp_path, "c", 2)
        write_rows(tmp_path, "d", 3)
        with QueryService(
            CollectionCatalog(str(tmp_path)),
            rewrite=config,
            result_cache_size=16,
        ) as service:
            assert service.execute(query).items == before
            assert service.execute(query).result_cache_hit
            write_rows(tmp_path, "d", 5)
            rerun = service.execute(query)
            assert rerun.items == after
            assert not rerun.result_cache_hit

    def test_json_doc_is_never_served_from_the_cache(self, tmp_path):
        write_rows(tmp_path, "c", 2)
        document = tmp_path / "doc.json"
        document.write_text('{"n": 1}')
        query = f'json-doc("{document}")("n")'
        with QueryService(
            CollectionCatalog(str(tmp_path)), result_cache_size=16
        ) as service:
            assert service.execute(query).items == [1]
            document.write_text('{"n": 22}')
            rerun = service.execute(query)
            assert rerun.items == [22]
            assert not rerun.result_cache_hit

