"""What projecting a path means, asked of both scanners at once.

These cases were written against the event projector that ISSUE 24
retired.  The semantics they pin (value steps, keys-or-members, wrong
types on the path, several top-level values, chunked files) are
DATASCAN's, so they now run on the two projectors that remain: every
call goes through the raw-text skipper *and* the on-demand navigator,
which must agree before the case looks at the answer.
"""

import pytest

from repro.correctness.oracle import reference_documents
from repro.errors import JsonSyntaxError
from repro.jsonlib import ondemand, textscan
from repro.jsonlib.path import Path, navigate, parse_path


def project_text(text, path):
    items = list(textscan.scan_text(text, path))
    assert list(ondemand.scan_text(text, path)) == items
    return items


def project_file(file_path, path, **options):
    items = list(textscan.scan_file(file_path, path, **options))
    assert list(ondemand.scan_file(file_path, path, **options)) == items
    return items

SENSOR_FILE = """
{
  "root": [
    {
      "metadata": {"count": 2},
      "results": [
        {"date": "20131225T00:00", "dataType": "TMIN", "station": "S1", "value": 4},
        {"date": "20131225T00:00", "dataType": "TMAX", "station": "S1", "value": 10}
      ]
    },
    {
      "metadata": {"count": 1},
      "results": [
        {"date": "20141225T00:00", "dataType": "WIND", "station": "S2", "value": 30}
      ]
    }
  ]
}
"""


class TestProjectText:
    def test_whole_value_with_empty_path(self):
        items = list(project_text("[1, 2]", Path()))
        assert items == [[1, 2]]

    def test_value_by_key(self):
        items = list(project_text('{"a": 1, "b": 2}', parse_path('("b")')))
        assert items == [2]

    def test_missing_key(self):
        assert list(project_text('{"a": 1}', parse_path('("z")'))) == []

    def test_members_of_array(self):
        assert list(project_text("[1, 2, 3]", parse_path("()"))) == [1, 2, 3]

    def test_keys_of_object(self):
        assert list(project_text('{"a": 1, "b": 2}', parse_path("()"))) == ["a", "b"]

    def test_keys_then_step_yields_nothing(self):
        # Keys are strings; a further value step over them is empty.
        assert list(project_text('{"a": {"b": 1}}', parse_path('()("b")'))) == []

    def test_index_step(self):
        assert list(project_text("[10, 20, 30]", parse_path("(2)"))) == [20]

    def test_index_out_of_range(self):
        assert list(project_text("[10]", parse_path("(5)"))) == []

    def test_nested_sensor_path(self):
        path = parse_path('("root")()("results")()')
        results = list(project_text(SENSOR_FILE, path))
        assert len(results) == 3
        assert results[0]["dataType"] == "TMIN"
        assert results[2]["station"] == "S2"

    def test_projection_to_leaf_field(self):
        path = parse_path('("root")()("results")()("date")')
        dates = list(project_text(SENSOR_FILE, path))
        assert dates == ["20131225T00:00", "20131225T00:00", "20141225T00:00"]

    def test_wrong_type_on_path_is_skipped(self):
        text = '[{"a": 1}, 5, {"a": 2}, [7]]'
        assert list(project_text(text, parse_path('()("a")'))) == [1, 2]

    def test_multiple_top_level_values(self):
        text = '{"x": 1} {"x": 2} {"y": 3}'
        assert list(project_text(text, parse_path('("x")'))) == [1, 2]

    def test_duplicate_keys_last_occurrence_wins(self):
        # The text holds both pairs, but the parser's dict keeps only
        # the last — projection must emit the same winner.
        text = '{"a": 1, "a": 2}'
        assert list(project_text(text, parse_path('("a")'))) == [2]


class TestEquivalenceWithNavigate:
    """The scanners must agree with navigate() over parsed items."""

    CASES = [
        ('{"a": {"b": [1, 2]}}', '("a")("b")()'),
        ('{"a": [{"b": 1}, {"c": 2}]}', '("a")()("b")'),
        ("[[1], [2, 3], []]", "()()"),
        ('{"a": 1}', "()"),
        ("[{}, {}]", "()()"),
        (SENSOR_FILE, '("root")()("results")()("value")'),
        (SENSOR_FILE, '("root")()("metadata")("count")'),
        (SENSOR_FILE, '("root")(1)("results")(2)'),
    ]

    @pytest.mark.parametrize("text,path_text", CASES)
    def test_matches_navigate(self, text, path_text):
        path = parse_path(path_text)
        (document,) = reference_documents(text)
        assert list(project_text(text, path)) == navigate(document, path)


class TestProjectFile:
    def test_small_chunks(self, tmp_path):
        target = tmp_path / "sensor.json"
        target.write_text(SENSOR_FILE, encoding="utf-8")
        path = parse_path('("root")()("results")()("station")')
        stations = list(project_file(str(target), path, chunk_size=7))
        assert stations == ["S1", "S1", "S2"]

    def test_multi_document_file(self, tmp_path):
        target = tmp_path / "docs.json"
        target.write_text('{"v": 1}\n{"v": 2}\n{"v": 3}\n', encoding="utf-8")
        values = list(project_file(str(target), parse_path('("v")')))
        assert values == [1, 2, 3]


class TestErrors:
    def test_truncated_stream(self):
        for scan_text in (textscan.scan_text, ondemand.scan_text):
            with pytest.raises(JsonSyntaxError):
                # cut inside the array
                list(scan_text('{"a": [1, 2', parse_path('("a")')))
