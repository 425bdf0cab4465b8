"""Tests for the sampled statistics catalog.

Covers sample-limit resolution, sampling determinism (same
data, same fingerprint), invalidation on registration, extrapolation
from a partial prefix, per-key statistics (distinct counts, top values,
array fanout), tolerance of malformed texts, and pickling (stats travel
into process-backend work units with their owning source).
"""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.errors import ReproError
from repro.stats.sampling import (
    DEFAULT_SAMPLE_LIMIT,
    resolve_stats_sample,
)


def rows_source(collections, stats_sample=None, partitions=1):
    """In-memory source storing each partition as one JSON array document."""
    data = {}
    for name, rows in collections.items():
        parts = [[] for _ in range(partitions)]
        for index, row in enumerate(rows):
            parts[index % partitions].append(row)
        data[name] = [[json.dumps(part)] for part in parts]
    return InMemorySource(data, stats_sample=stats_sample)


class TestResolveStatsSample:
    def test_explicit_wins_over_env(self, monkeypatch):
        # The limit is the source's own setting: the environment is not read.
        monkeypatch.setenv("REPRO_STATS_SAMPLE", "5")
        assert resolve_stats_sample(17) == 17
        assert resolve_stats_sample() == DEFAULT_SAMPLE_LIMIT

    def test_explicit_zero_disables(self):
        assert resolve_stats_sample(0) == 0

    def test_explicit_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_stats_sample(-1)

    def test_unset_env_means_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_STATS_SAMPLE", raising=False)
        assert resolve_stats_sample() == DEFAULT_SAMPLE_LIMIT


class TestDeterminism:
    ROWS = [{"k": i % 7, "name": f"n{i}"} for i in range(50)]

    def test_same_data_same_fingerprint(self):
        first = rows_source({"/x": self.ROWS}, partitions=2)
        second = rows_source({"/x": self.ROWS}, partitions=2)
        assert (
            first.stats_snapshot().fingerprint()
            == second.stats_snapshot().fingerprint()
        )

    def test_resampling_is_memoized(self):
        source = rows_source({"/x": self.ROWS})
        assert source.collection_stats("/x") is source.collection_stats("/x")

    def test_different_data_different_fingerprint(self):
        first = rows_source({"/x": self.ROWS})
        second = rows_source({"/x": self.ROWS + [{"k": 99, "name": "zz"}]})
        assert (
            first.stats_snapshot().fingerprint()
            != second.stats_snapshot().fingerprint()
        )

    def test_registration_invalidates(self):
        source = rows_source({"/x": self.ROWS})
        before = source.stats_snapshot().fingerprint()
        source.add_collection("/x", [[json.dumps([{"k": 1}])]])
        after = source.stats_snapshot().fingerprint()
        assert before != after

    def test_refresh_stats_resamples(self):
        source = rows_source({"/x": self.ROWS})
        first = source.collection_stats("/x")
        source.refresh_stats()
        second = source.collection_stats("/x")
        assert first is not second
        assert first.fingerprint() == second.fingerprint()


class TestPinnedFingerprint:
    """The sampler's decoder is an implementation detail: this corpus
    fingerprinted the same when every text went through a separate
    event parser as it does through the on-demand scanner, which is now
    what ``parse_many`` is too."""

    TEXTS = [
        # several records in one text, nested containers, duplicate key
        '{"id": 1, "tags": ["a", "b"], "geo": {"lat": 1.5, "lon": -2e1}}\n'
        '{"id": 2, "tags": [], "geo": {"lat": 0.25, "lon": 3}, "id": 7}',
        # a root array, escapes, a surrogate pair, every literal
        '[{"s": "q\\"\\u00e9\\ud83d\\ude00", "ok": true, "no": false, "nil": null},'
        ' {"s": "plain", "ok": false}, 17, "bare", [1, [2, {"deep": 3}]]]',
        # a good record followed by a malformed one: contributes nothing
        '{"id": 3, "tags": ["lost"]}\n{"id": 4, "tags": [1 2]}',
        '{"id": 5, "big": 12345678901234567890, "neg": -0.0, "exp": 1E3}',
    ]

    def test_fixed_corpus_fingerprint(self):
        source = InMemorySource({"/x": [self.TEXTS[:2], self.TEXTS[2:]]})
        stats = source.collection_stats("/x")
        assert [p.sampled_documents for p in stats.partitions] == [3, 1]
        assert stats.key("id").count == 3
        assert source.stats_snapshot().fingerprint() == (
            "9b1c2875eb38e651b96e9032559a1314e017452d"
        )


class TestSampling:
    def test_full_sample_counts_exactly(self):
        rows = [{"k": i % 3, "tags": ["a", "b"]} for i in range(30)]
        stats = rows_source({"/x": rows}).collection_stats("/x")
        assert stats.documents == 1  # one array document
        assert stats.root_fanout == 30.0
        key = stats.key("k")
        assert key.count == 30
        assert key.distinct == 3
        assert not key.distinct_saturated
        tags = stats.key("tags")
        assert tags.arrays == 30
        assert tags.avg_array_len == 2.0

    def test_extrapolation_from_prefix(self):
        texts = [json.dumps({"k": i}) for i in range(100)]
        source = InMemorySource({"/x": [texts]}, stats_sample=10)
        stats = source.collection_stats("/x")
        (part,) = stats.partitions
        assert part.sampled_documents == 10
        assert not part.exhausted
        # 100 equally-sized texts, 10 sampled -> ~10x byte scale.
        assert 80 <= stats.documents <= 120

    def test_malformed_texts_are_skipped(self):
        texts = ['{"k": 1}', "{nope", '{"k": 2}']
        source = InMemorySource(
            {"/x": [texts]}, on_malformed="skip_record", stats_sample=64
        )
        stats = source.collection_stats("/x")
        assert stats is not None
        assert stats.key("k").count == 2

    def test_unknown_collection_has_no_stats(self):
        source = rows_source({"/x": [{"k": 1}]})
        assert source.collection_stats("/missing") is None

    def test_disabled_sampling(self):
        source = rows_source({"/x": [{"k": 1}]}, stats_sample=0)
        assert source.collection_stats("/x") is None
        assert not source.stats_snapshot()

    def test_snapshot_lists_collections_sorted(self):
        source = rows_source({"/b": [{"k": 1}], "/a": [{"k": 2}]})
        assert source.stats_snapshot().collections() == ["/a", "/b"]


class TestCatalogSource:
    def test_directory_catalog_samples(self, tmp_path):
        part = tmp_path / "x" / "partition0"
        part.mkdir(parents=True)
        (part / "a.json").write_text(
            json.dumps([{"k": i} for i in range(10)]), encoding="utf-8"
        )
        catalog = CollectionCatalog(str(tmp_path))
        catalog.register_directory("/x", str(tmp_path / "x"))
        stats = catalog.collection_stats("/x")
        assert stats is not None
        assert stats.key("k").count == 10
        assert stats.root_fanout == 10.0


class TestPickling:
    def test_collection_stats_round_trip(self):
        rows = [{"k": i % 4} for i in range(12)]
        stats = rows_source({"/x": rows}).collection_stats("/x")
        clone = pickle.loads(pickle.dumps(stats))
        # _by_key is rebuilt by __setstate__, not shipped.
        assert clone.key("k").count == stats.key("k").count
        assert clone.fingerprint() == stats.fingerprint()

    def test_source_with_stats_round_trips(self):
        source = rows_source({"/x": [{"k": 1}]})
        source.collection_stats("/x")  # memoize before pickling
        clone = pickle.loads(pickle.dumps(source))
        assert (
            clone.stats_snapshot().fingerprint()
            == source.stats_snapshot().fingerprint()
        )


class TestFingerprintMemo:
    """``CollectionStats`` hashes its statistics once, not per lookup."""

    ROWS = [{"k": i % 4, "name": f"n{i}"} for i in range(30)]

    def test_memo_equals_a_fresh_computation(self, monkeypatch):
        stats = rows_source({"/x": self.ROWS}).collection_stats("/x")
        memo = stats.fingerprint()
        fresh = dataclasses.replace(stats).fingerprint()
        calls = []
        real_sha1 = hashlib.sha1
        monkeypatch.setattr(
            hashlib, "sha1", lambda data: calls.append(data) or real_sha1(data)
        )
        assert stats.fingerprint() == memo == fresh
        assert calls == []  # the second call hashed nothing

    def test_memo_is_not_state(self):
        stats = rows_source({"/x": self.ROWS}).collection_stats("/x")
        unhashed = dataclasses.replace(stats)
        stats.fingerprint()
        assert stats == unhashed
        assert repr(stats) == repr(unhashed)
        assert "_fingerprint" not in stats.__getstate__()

    def test_memo_survives_a_pickle_round_trip(self):
        stats = rows_source({"/x": self.ROWS}).collection_stats("/x")
        memo = stats.fingerprint()
        clone = pickle.loads(pickle.dumps(stats))
        assert clone._fingerprint is None  # recomputed, never shipped
        assert clone.fingerprint() == memo

    def test_refresh_stats_changes_the_fingerprint(self, tmp_path):
        part = tmp_path / "x" / "partition0"
        part.mkdir(parents=True)
        data = part / "a.json"
        data.write_text(json.dumps(self.ROWS), encoding="utf-8")
        catalog = CollectionCatalog(str(tmp_path))
        before = catalog.collection_stats("/x").fingerprint()
        data.write_text(json.dumps(self.ROWS * 2), encoding="utf-8")
        assert catalog.collection_stats("/x").fingerprint() == before
        catalog.refresh_stats()
        assert catalog.collection_stats("/x").fingerprint() != before
