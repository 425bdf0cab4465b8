"""Tests for the public facade (JsonProcessor) and compilation pipeline."""

import dataclasses
import json

import pytest

from repro import JsonProcessor, RewriteConfig, compile_query
from repro.compiler import pipeline
from repro.data.catalog import CollectionCatalog, InMemorySource
from repro.errors import ParseError, ReproError
from repro.compiler.pipeline import PLAN_CACHE_CAPACITY, CompiledQuery

BOOKS = '{"bookstore": {"book": [{"t": "A", "p": 10}, {"t": "B", "p": 20}]}}'
TITLES = (
    'for $b in collection("/books")("bookstore")("book")() return $b("t")'
)

TINY = [{"k": i, "label": f"t{i}"} for i in range(5)]
BIG = [{"k": i % 5, "v": i} for i in range(120)]
JOIN = (
    'for $t in collection("/tiny")() for $b in collection("/big")() '
    'where $t("k") eq $b("k") return {"label": $t("label"), "v": $b("v")}'
)
GROUP = (
    'for $b in collection("/big")() group by $k := $b("k") '
    'return {"k": $k, "n": count($b)}'
)


def rows_source(collections, partitions=1, segment_cache_dir=None):
    """In-memory collections, each partition one JSON array of rows."""
    data = {}
    for name, rows in collections.items():
        parts = [rows[index::partitions] for index in range(partitions)]
        data[name] = [[json.dumps(part)] for part in parts]
    return InMemorySource(
        data, segment_cache_dir=segment_cache_dir, stats_sample=10_000
    )


@pytest.fixture
def processor():
    return JsonProcessor.in_memory(
        collections={"/books": [[BOOKS]]},
        documents={"books.json": BOOKS},
    )


class TestFacade:
    def test_evaluate_collection(self, processor):
        titles = processor.evaluate(
            'for $b in collection("/books")("bookstore")("book")() '
            'return $b("t")'
        )
        assert titles == ["A", "B"]

    def test_evaluate_document(self, processor):
        prices = processor.evaluate(
            'json-doc("books.json")("bookstore")("book")()("p")'
        )
        assert prices == [10, 20]

    def test_execute_returns_measurements(self, processor):
        result = processor.execute('count(for $b in collection("/books")("bookstore")("book")() return $b)')
        assert result.items == [2]
        assert result.wall_seconds >= 0

    def test_literal_query_without_source(self):
        processor = JsonProcessor()
        assert processor.evaluate("(1 + 2) * 3") == [9]

    def test_constructors(self):
        processor = JsonProcessor()
        assert processor.evaluate('{"a": [1, 2], "b": null}') == [
            {"a": [1, 2], "b": None}
        ]

    def test_from_directory(self, tmp_path):
        directory = tmp_path / "c" / "partition0"
        directory.mkdir(parents=True)
        (directory / "f.json").write_text('{"x": 5}', encoding="utf-8")
        processor = JsonProcessor.from_directory(str(tmp_path))
        assert processor.evaluate(
            'for $d in collection("/c")("x") return $d'
        ) == [5]

    def test_unknown_collection_surfaces(self, processor):
        with pytest.raises(ReproError):
            processor.evaluate('for $x in collection("/nope")("a")() return $x')

    def test_parse_error_surfaces(self, processor):
        with pytest.raises(ParseError):
            processor.evaluate("for for for")

    def test_rewrite_config_respected(self, processor):
        naive = JsonProcessor.in_memory(
            collections={"/books": [[BOOKS]]}, rewrite=RewriteConfig.none()
        )
        query = (
            'for $b in collection("/books")("bookstore")("book")() '
            'return $b("t")'
        )
        assert naive.evaluate(query) == processor.evaluate(query)
        assert "DATASCAN" not in naive.compile(query).plan.explain()
        assert "DATASCAN" in processor.compile(query).plan.explain()


class TestCompileQuery:
    def test_returns_all_stages(self):
        compiled = compile_query('1 + 1')
        assert isinstance(compiled, CompiledQuery)
        assert compiled.naive_plan is not None
        assert compiled.plan is not None

    def test_trace_populated_when_rules_fire(self):
        compiled = compile_query(
            'for $x in collection("/c")("a")() return $x'
        )
        assert compiled.trace
        names = [name for name, _ in compiled.trace]
        assert "introduce-datascan" in names

    def test_explain_sections(self):
        compiled = compile_query(
            'for $x in collection("/c")("a")() return $x'
        )
        text = compiled.explain(show_trace=True)
        assert "naive plan" in text
        assert "rewritten plan" in text
        assert "rewrite trace" in text

    def test_config_label_in_explain(self):
        compiled = compile_query("1", RewriteConfig.none())
        assert "built-ins only" in compiled.explain()

    def test_default_config_is_all(self):
        compiled = compile_query("1")
        assert compiled.config == RewriteConfig.all()


@pytest.fixture
def compiles(monkeypatch):
    """The texts ``compile_query`` is called on, in call order."""
    texts = []
    real = pipeline.compile_query

    def counting(text, config=None, stats=None):
        texts.append(text)
        return real(text, config, stats=stats)

    monkeypatch.setattr(pipeline, "compile_query", counting)
    return texts


def cache_stats(hits, misses, entries, evictions=0):
    return {
        "capacity": PLAN_CACHE_CAPACITY,
        "entries": entries,
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
    }


class TestPlanCache:
    """A processor compiles each text once (``JsonProcessor.plan_cache``)."""

    def test_repeated_execute_compiles_once(self, processor, compiles):
        first = processor.execute(TITLES)
        second = processor.execute(TITLES)
        assert compiles == [TITLES]
        assert processor.plan_cache.stats() == cache_stats(1, 1, 1)
        assert first.items == second.items == ["A", "B"]

    def test_every_entry_point_shares_the_entry(self, processor, compiles):
        processor.evaluate(TITLES)
        processor.profile(TITLES)
        processor.explain(TITLES)
        assert processor.compile(TITLES) is processor.compile(TITLES)
        assert compiles == [TITLES]
        assert processor.plan_cache.stats() == cache_stats(4, 1, 1)

    def test_explain_with_profile_compiles_once(self, processor, compiles):
        report = processor.explain(TITLES, profile=True)
        assert "== query profile" in report
        assert compiles == [TITLES]
        assert processor.plan_cache.stats() == cache_stats(1, 1, 1)

    def test_reregistered_collection_recompiles_against_fresh_stats(
        self, compiles
    ):
        source = rows_source({"/tiny": TINY, "/big": BIG})
        processor = JsonProcessor(source, cost=True)
        before = processor.compile(JOIN)
        assert processor.compile(JOIN) is before
        assert "build=left" in before.plan.explain()
        # /tiny becomes the larger side: the cost phase must see it
        source.add_collection("/tiny", [[json.dumps(TINY * 200)]])
        after = processor.compile(JOIN)
        assert compiles == [JOIN, JOIN]
        assert after.stats_fingerprint == source.stats_snapshot().fingerprint()
        assert after.stats_fingerprint != before.stats_fingerprint
        assert "build=left" not in after.plan.explain()

    def test_refresh_stats_recompiles_against_fresh_stats(
        self, tmp_path, compiles
    ):
        part = tmp_path / "big" / "partition0"
        part.mkdir(parents=True)
        (part / "a.json").write_text(json.dumps(BIG), encoding="utf-8")
        catalog = CollectionCatalog(
            str(tmp_path), segment_cache_dir="", stats_sample=10_000
        )
        processor = JsonProcessor(catalog, cost=True)
        assert processor.evaluate(GROUP)
        (part / "a.json").write_text(json.dumps(BIG * 2), encoding="utf-8")
        # sampled statistics are kept until refreshed: still a hit
        stale = processor.compile(GROUP)
        assert compiles == [GROUP]
        catalog.refresh_stats()
        fresh = processor.compile(GROUP)
        assert compiles == [GROUP, GROUP]
        assert fresh.stats_fingerprint == catalog.stats_snapshot().fingerprint()
        assert fresh.stats_fingerprint != stale.stats_fingerprint
        assert processor.plan_cache.stats() == cache_stats(1, 2, 2)

    def test_cost_off_keys_without_a_fingerprint(self, compiles):
        source = rows_source({"/tiny": TINY, "/big": BIG})
        processor = JsonProcessor(source, cost=False)
        processor.compile(JOIN)
        source.add_collection("/tiny", [[json.dumps(TINY * 200)]])
        assert processor.compile(JOIN).stats_fingerprint is None
        assert compiles == [JOIN]
        assert [key[2] for key in processor.plan_cache._entries] == [None]

    def test_parse_error_raises_alike_and_stores_nothing(
        self, processor, compiles
    ):
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as raised:
                processor.evaluate("for for for")
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert compiles == ["for for for"] * 2
        assert processor.plan_cache.stats() == cache_stats(0, 0, 0)

    def test_text_past_capacity_evicts_least_recently_used(self, compiles):
        processor = JsonProcessor()
        texts = [f"{index} + 1" for index in range(PLAN_CACHE_CAPACITY + 1)]
        for text in texts[:-1]:
            processor.compile(text)
        processor.compile(texts[0])  # texts[1] is now least recently used
        processor.compile(texts[-1])
        assert processor.plan_cache.stats() == cache_stats(
            1, PLAN_CACHE_CAPACITY + 1, PLAN_CACHE_CAPACITY, evictions=1
        )
        del compiles[:]
        processor.compile(texts[0])
        processor.compile(texts[-1])
        assert compiles == []
        assert processor.evaluate(texts[1]) == [2]
        assert compiles == [texts[1]]

    @pytest.mark.parametrize("query", [JOIN, GROUP], ids=["join", "group"])
    @pytest.mark.parametrize("backend", ["sequential", "process"])
    def test_a_hit_answers_like_a_miss(self, backend, query):
        source = rows_source(
            {"/tiny": TINY, "/big": BIG}, partitions=2, segment_cache_dir=""
        )

        def payload(result):
            return json.dumps(
                {
                    "items": result.items,
                    "strategy": result.strategy,
                    "stats": dataclasses.asdict(result.stats),
                    "degradation": result.degradation.to_dict(),
                    "profile": result.profile.to_dict(),
                },
                sort_keys=True,
            )

        with JsonProcessor(
            source,
            backend=backend,
            max_workers=2,
            cost=True,
        ) as processor:
            miss = processor.execute(query, profile="counter")
            hit = processor.execute(query, profile="counter")
            assert processor.plan_cache.stats() == cache_stats(1, 1, 1)
        assert miss.profile.rewrite.total_firings > 0
        assert payload(hit) == payload(miss)
