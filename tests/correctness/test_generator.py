"""Generator: deterministic, parseable, and anomaly-bearing output."""

from __future__ import annotations

from repro.correctness.generator import (
    GeneratedCase,
    generate_case,
    generate_cases,
)
from repro.errors import ItemTypeError, ReproError


def test_deterministic_for_a_seed():
    first = generate_cases(7, 30)
    second = generate_cases(7, 30)
    assert [c.name for c in first] == [c.name for c in second]
    assert [c.partitions for c in first] == [c.partitions for c in second]
    assert [c.query_text for c in first] == [c.query_text for c in second]


def test_seeds_differ():
    assert [c.partitions for c in generate_cases(1, 10)] != [
        c.partitions for c in generate_cases(2, 10)
    ]


def test_every_partition_text_parses():
    errors = 0
    for case in generate_cases(0, 60):
        documents = case.documents()
        assert isinstance(documents, list)
        # The oracle must accept whatever the generator produced —
        # either a value or a pinned semantics error (a join keyed on a
        # multi-item sequence raises the comparison's ItemTypeError, and
        # so does a null value under a grouped sum / avg / min / max).
        try:
            assert isinstance(case.expected(), list)
        except ReproError as error:
            if "-group-agg-" in case.name:
                function = case.name.split("-group-agg-")[1].split("-")[0]
                assert str(error) == f"{function}() expects a number, got null"
                continue
            assert "multi-item sequence" in str(error)
            errors += 1
    # The error oracle is part of the population, not a fluke.
    assert errors > 0


def test_join_seq_template_produces_both_oracles():
    """Across seeds the join-seq template yields both value cases
    (singleton/empty attribute sequences) and pinned-error cases."""
    kinds = set()
    for seed in range(20):
        for case in generate_cases(seed, 14):
            if "join-seq" not in case.name:
                continue
            try:
                case.expected()
                kinds.add("value")
            except ItemTypeError:
                kinds.add("error")
    assert kinds == {"value", "error"}


def test_covers_every_template():
    names = [c.name for c in generate_cases(0, 12)]
    for marker in ("path-", "keys", "select-", "let-month", "group-count-", "join-"):
        assert any(marker in name for name in names), marker


def test_let_month_template_selects_and_rejects():
    """The ASSIGN template is not vacuous: across a population some
    measurements pass both conjuncts, and some lack the date."""
    cases = [c for c in generate_cases(0, 200) if "let-month" in c.name]
    assert len(cases) == 25
    assert "let $d := dateTime(data($m(\"date\")))" in cases[0].query_text
    answers = [case.expected() for case in cases]
    assert sum(1 for answer in answers if answer) >= 5
    assert any(None in answer for answer in answers)  # a null station is an item


def test_anomalies_present_in_population():
    """Across a modest population the interesting shapes all occur:
    duplicate keys, nulls, missing keys, and both file shapes."""
    cases = generate_cases(3, 40)
    texts = "\n".join(
        text for c in cases for p in c.partitions for text in p
    )
    assert '"station": null' in texts or '"dataType": null' in texts
    assert '"root"' in texts  # wrapped shape
    assert any("-flat" in c.name for c in cases)
    assert any("-wrapped" in c.name for c in cases)
    # Duplicate keys survive serialization: some object repeats a key.
    import re

    duplicated = False
    for obj in re.findall(r"\{[^{}]*\}", texts):
        keys = re.findall(r'"(\w+)":', obj)
        if len(keys) != len(set(keys)):
            duplicated = True
            break
    assert duplicated


def test_with_partitions_rebuilds_case():
    case = generate_cases(0, 1)[0]
    reduced = case.with_partitions([["{}"]])
    assert isinstance(reduced, GeneratedCase)
    assert reduced.partitions == (("{}",),)
    assert reduced.query_text == case.query_text
    assert case.partitions != reduced.partitions  # original untouched


def test_generate_case_uses_index_for_template_rotation():
    import random

    a = generate_case(random.Random(0), 0)
    b = generate_case(random.Random(0), 1)
    assert a.name.split("-", 1)[1] != b.name.split("-", 1)[1]


def test_join_pair_template_takes_every_other_turn_of_the_join_slot():
    """The two-component join shares the join's place in the rotation
    (the other templates keep their counts) and is not vacuous: it
    joins on strings, on ints, on floats and on nulls."""
    cases = generate_cases(0, 200)
    names = [c.name.split("-", 1)[1] for c in cases]
    pairs = [c for c in cases if "-join-pair-" in c.name]
    assert len(pairs) == 12
    assert sum(n.startswith("join-") for n in names) == 50  # join, pair, seq
    assert '$a("value") eq $b("value")' in pairs[0].query_text
    answers = [value for case in pairs for value in case.expected()]
    assert any(value is None for value in answers)  # null equals null
    assert any(isinstance(value, float) for value in answers)
    assert any(isinstance(value, int) for value in answers)


def test_group_agg_template_takes_every_other_turn_of_the_group_slot():
    """The pushed-down aggregates share group-count's place in the
    rotation (the other templates keep their counts) and are not
    vacuous: every function turns up, some cases answer, and in others
    a null value pins the aggregate's type error."""
    cases = generate_cases(0, 200)
    names = [c.name.split("-", 1)[1] for c in cases]
    aggregated = [c for c in cases if "-group-agg-" in c.name]
    assert len(aggregated) == 12
    assert sum(n.startswith("group-") for n in names) == 25
    assert 'group by $s := $m("station")' in aggregated[0].query_text
    functions, kinds = set(), set()
    for seed in range(4):
        for case in generate_cases(seed, 200):
            if "-group-agg-" not in case.name:
                continue
            functions.add(case.name.split("-group-agg-")[1].split("-")[0])
            try:
                case.expected()
                kinds.add("value")
            except ItemTypeError:
                kinds.add("error")
    assert functions == {"count", "sum", "avg", "min", "max"}
    assert kinds == {"value", "error"}


def test_a_generated_join_meets_the_cost_phase():
    """The join template filters its left side on one more conjunct, so
    the two sides estimate apart and a costed plan builds on the left:
    the harness's cost-off cells then compare two different plans."""
    from repro import JsonProcessor
    from repro.correctness.generator import COLLECTION
    from repro.data.catalog import InMemorySource

    built_left = 0
    for case in generate_cases(0, 120):
        if "-join-" not in case.name or "-join-pair-" in case.name:
            continue
        source = InMemorySource({COLLECTION: [list(p) for p in case.partitions]})
        processor = JsonProcessor(source=source, cost=True)
        if "[build=left]" in processor.explain(case.query_text):
            built_left += 1
            answer = processor.evaluate(case.query_text)
            assert sorted(map(repr, answer)) == sorted(map(repr, case.expected()))
    assert built_left


def test_nested_templates_take_turns_of_the_keys_slot():
    """The correlated nested FLWORs share ``keys``'s place in the
    rotation and draw nothing from the case stream, so every other
    case keeps its data; neither is vacuous: some measurements answer
    an empty inner result and some a full one."""
    from repro import JsonProcessor
    from repro.algebra.rules import RewriteConfig
    from repro.correctness.generator import COLLECTION
    from repro.data.catalog import InMemorySource

    cases = generate_cases(0, 200)
    names = [c.name.split("-", 1)[1] for c in cases]
    assert sum(n.startswith("keys") for n in names) == 9
    literal = [c for c in cases if "-nested-literal-" in c.name]
    member = [c for c in cases if "-nested-member-" in c.name]
    assert len(literal) == len(member) == 8
    assert "for $t in (-100, 0, 100) where" in literal[0].query_text
    assert 'for $a in $m("attributes")()' in member[0].query_text
    for variant in (literal, member):
        answers = [inner for case in variant for inner in case.expected()]
        assert [] in answers
        assert any(answers)
    for case in literal[:2] + member[:2]:
        source = InMemorySource({COLLECTION: [list(p) for p in case.partitions]})
        expected = sorted(map(repr, case.expected()))
        for rewrite in (RewriteConfig(), RewriteConfig.none()):
            answer = JsonProcessor(source=source, rewrite=rewrite).evaluate(
                case.query_text
            )
            assert sorted(map(repr, answer)) == expected
