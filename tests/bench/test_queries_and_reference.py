"""Unit tests for the paper queries and the reference implementations."""

import pytest

from repro.bench import queries
from repro.correctness.oracle import (
    iter_measurements,
    reference_q0,
    reference_q0b,
    reference_q1,
    reference_q2,
)
from repro.jsoniq.parser import parse_query

WRAPPED_DOCS = [
    {
        "root": [
            {
                "metadata": {"count": 3},
                "results": [
                    {"date": "20031225T00:00", "dataType": "TMIN", "station": "S1", "value": 2},
                    {"date": "20031225T00:00", "dataType": "TMAX", "station": "S1", "value": 12},
                    {"date": "20020101T00:00", "dataType": "TMIN", "station": "S1", "value": 5},
                ],
            }
        ]
    }
]
UNWRAPPED_DOCS = WRAPPED_DOCS[0]["root"]


class TestQueryTexts:
    @pytest.mark.parametrize("name", list(queries.ALL_QUERIES))
    @pytest.mark.parametrize("wrapped", [True, False])
    def test_all_queries_parse(self, name, wrapped):
        parse_query(queries.ALL_QUERIES[name](wrapped=wrapped))

    def test_collection_name_substitution(self):
        text = queries.q0(collection="/other")
        assert 'collection("/other")' in text

    def test_wrapped_path_difference(self):
        assert '("root")()' in queries.q1(wrapped=True)
        assert '("root")()' not in queries.q1(wrapped=False)


class TestReference:
    def test_iter_measurements_wrapped(self):
        assert len(list(iter_measurements(WRAPPED_DOCS))) == 3

    def test_iter_measurements_unwrapped(self):
        assert len(list(iter_measurements(UNWRAPPED_DOCS))) == 3

    def test_q0_selects_dec25_from_2003(self):
        matched = reference_q0(WRAPPED_DOCS)
        assert len(matched) == 2
        assert all(m["date"].startswith("20031225") for m in matched)

    def test_q0b_projects_dates(self):
        assert reference_q0b(WRAPPED_DOCS) == [
            "20031225T00:00",
            "20031225T00:00",
        ]

    def test_q1_counts_tmin_per_date(self):
        assert reference_q1(WRAPPED_DOCS) == {
            "20031225T00:00": 1,
            "20020101T00:00": 1,
        }

    def test_q2_average_difference(self):
        assert reference_q2(WRAPPED_DOCS) == pytest.approx((12 - 2) / 10)

    def test_q2_empty_when_no_pairs(self):
        docs = [{"root": [{"metadata": {}, "results": [
            {"date": "d", "dataType": "TMIN", "station": "S", "value": 1}
        ]}]}]
        assert reference_q2(docs) is None

    def test_ignores_malformed_members(self):
        docs = [{"root": [42, {"no_results": True}]}, "stray"]
        assert list(iter_measurements(docs)) == []
