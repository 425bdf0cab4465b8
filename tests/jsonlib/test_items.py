"""Unit tests for the item model: predicates, sizing, equality, building."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.jsonlib.items as items_module
from repro.errors import ItemTypeError, JsonSyntaxError
from repro.jsonlib import textscan
from repro.jsonlib.items import (
    canonical_atomic,
    canonical_item,
    canonical_key,
    deep_equals,
    is_array,
    is_atomic,
    is_object,
    item_type_name,
    sizeof_item,
    sizeof_rows,
    sizeof_sequence,
)
from repro.jsonlib.parser import parse_many
from repro.jsonlib.path import Path


class TestPredicates:
    def test_object(self):
        assert is_object({}) and not is_array({}) and not is_atomic({})

    def test_array(self):
        assert is_array([]) and not is_object([]) and not is_atomic([])

    @pytest.mark.parametrize("value", ["s", 1, 1.5, True, None])
    def test_atomics(self, value):
        assert is_atomic(value)
        assert not is_object(value)
        assert not is_array(value)

    def test_datetime_is_atomic(self):
        assert is_atomic(datetime.datetime(2013, 12, 25))


class TestTypeNames:
    @pytest.mark.parametrize(
        "value,name",
        [
            ({}, "object"),
            ([], "array"),
            ("x", "string"),
            (1, "number"),
            (1.5, "number"),
            (True, "boolean"),
            (None, "null"),
            (datetime.datetime(2000, 1, 1), "dateTime"),
        ],
    )
    def test_names(self, value, name):
        assert item_type_name(value) == name

    def test_non_item_rejected(self):
        with pytest.raises(ItemTypeError):
            item_type_name(object())


class TestSizeof:
    def test_bigger_structures_cost_more(self):
        assert sizeof_item({"a": 1, "b": 2}) > sizeof_item({"a": 1})
        assert sizeof_item([1, 2, 3]) > sizeof_item([1])
        assert sizeof_item("longer string") > sizeof_item("s")

    def test_nested_size_includes_children(self):
        inner = {"k": [1, 2, 3]}
        assert sizeof_item({"outer": inner}) > sizeof_item(inner)

    def test_deep_nesting_does_not_recurse(self):
        # 100k-deep nesting would overflow a recursive implementation.
        deep = []
        for _ in range(100_000):
            deep = [deep]
        assert sizeof_item(deep) > 100_000

    def test_sequence_size(self):
        items = [{"a": 1}, {"b": 2}]
        assert sizeof_sequence(items) > sizeof_item(items[0]) + sizeof_item(items[1])

    def test_non_item_rejected(self):
        with pytest.raises(ItemTypeError):
            sizeof_item({"a": object()})


# -- the frame-at-a-time kernel ---------------------------------------------------

ATOMS = (
    st.text(max_size=6),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.datetimes(),
)
#: any item, nested up to a few levels
ITEMS = st.recursive(
    st.one_of(*ATOMS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
#: what one column of a frame holds: one atomic type, ``True`` next to
#: ``1``, a nullable string, or anything at all
COLUMNS = ATOMS + (
    st.sampled_from([True, 1]),
    st.one_of(st.none(), st.text(max_size=6)),
    ITEMS,
)


def deep(levels):
    value = "bottom"
    for level in range(levels):
        value = {"d": value} if level % 2 else [value]
    return value


def knocked_out_of_shape(draw, row):
    """*row* with a key missing, extra or moved, or another row entirely."""
    how = draw(st.integers(0, 5))
    if how == 0 and row:
        row = dict(row)
        del row[draw(st.sampled_from(sorted(row)))]
        return row
    if how == 1:
        return {**row, "extra": draw(ITEMS)}
    if how == 2:
        return dict(reversed(list(row.items())))
    if how == 3 and row:  # as many keys, one of them another
        row = dict(row)
        del row[draw(st.sampled_from(sorted(row)))]
        return {**row, "other": None}
    if how == 4:
        return {}
    return draw(ITEMS)


@st.composite
def frames_of_rows(draw):
    """Objects of one key set and one type per column, from none to well
    over the column threshold, a few of them knocked out of shape."""
    keys = draw(st.lists(st.text(max_size=4), unique=True, max_size=4))
    columns = [draw(st.sampled_from(COLUMNS)) for _ in keys]
    rows = [
        {key: draw(column) for key, column in zip(keys, columns)}
        for _ in range(draw(st.integers(0, 3 * items_module._COLUMN_MIN_ROWS)))
    ]
    if rows:
        for index in draw(
            st.lists(st.integers(0, len(rows) - 1), max_size=2, unique=True)
        ):
            rows[index] = knocked_out_of_shape(draw, rows[index])
    return rows


class TestSizeofRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(frames_of_rows(), st.lists(ITEMS, max_size=20)))
    def test_equals_sizeof_item_of_each(self, frame):
        assert sizeof_rows(frame) == [sizeof_item(item) for item in frame]

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 9, 300])
    def test_frames_below_and_above_the_column_threshold(self, rows):
        assert items_module._COLUMN_MIN_ROWS == 8
        frame = [
            {"k": "x" * (i % 5), "n": i, "f": i / 2, "b": i % 2 == 0, "z": None}
            for i in range(rows)
        ]
        assert sizeof_rows(frame) == [sizeof_item(item) for item in frame]

    @pytest.mark.parametrize(
        "odd",
        [
            {"k": "x"},  # a key missing
            {"k": "x", "n": 1, "m": 2},  # one extra
            {"n": 1, "k": "x"},  # reordered
            {"k": "x", "m": 1},  # as many keys, not the same
            {"k": "x", "n": True},  # True is not 1
            {"k": None, "n": 1},
            {"k": "x", "n": 1.5},
            {"k": datetime.datetime(2003, 12, 25), "n": 1},
            {"k": {"nested": ["x"]}, "n": [1, 2]},
            {"k": "x", "n": deep(900)},
            {},
            "not an object",
            deep(900),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("where", [0, 5, 11])
    def test_one_row_out_of_shape(self, odd, where):
        frame = [{"k": "x" * i, "n": i} for i in range(12)]
        frame[where] = odd
        assert sizeof_rows(frame) == [sizeof_item(item) for item in frame]

    def test_uniform_rows_never_reach_sizeof_item(self, monkeypatch):
        def unreachable(item):
            raise AssertionError(f"measured {item!r} on its own")

        monkeypatch.setattr(items_module, "sizeof_item", unreachable)
        now = datetime.datetime(2003, 12, 25)
        frame = [
            {"s": "x" * i, "i": i, "f": 0.5, "b": True, "z": None, "t": now}
            for i in range(20)
        ]
        assert len(set(sizeof_rows(frame))) == 20
        assert sizeof_rows(["x" * i for i in range(20)])[3] == sizeof_item("xxx")
        assert sizeof_rows(list(range(20))) == [sizeof_item(0)] * 20

    def test_an_irregular_column_is_measured_once_per_value(self, monkeypatch):
        measured = []

        def spy(item):
            measured.append(item)
            return sizeof_item(item)

        monkeypatch.setattr(items_module, "sizeof_item", spy)
        frame = [{"s": "x", "v": [i] if i % 2 else i} for i in range(20)]
        expected = [sizeof_item(item) for item in frame]
        assert sizeof_rows(frame) == expected
        assert measured == [row["v"] for row in frame]

    def test_subclasses_are_measured_not_guessed(self):
        class Row(dict):
            pass

        class Flag(int):
            pass

        for frame in (
            [Row(k=i) for i in range(12)],
            [{"k": Flag(i)} for i in range(12)],
        ):
            assert sizeof_rows(frame) == [sizeof_item(item) for item in frame]

    @pytest.mark.parametrize("rows", [3, 12])
    def test_non_item_rejected(self, rows):
        for frame in (
            [{"a": object()} for _ in range(rows)],
            [{"a": i} for i in range(rows - 1)] + [{"a": {1, 2}}],
            [object()] * rows,
        ):
            with pytest.raises(ItemTypeError) as fallback:
                [sizeof_item(item) for item in frame]
            with pytest.raises(ItemTypeError) as kernel:
                sizeof_rows(frame)
            assert str(kernel.value) == str(fallback.value)


class TestDeepEquals:
    def test_scalars(self):
        assert deep_equals(1, 1)
        assert deep_equals(1, 1.0)
        assert not deep_equals(1, 2)

    def test_bool_is_not_number(self):
        assert not deep_equals(True, 1)
        assert not deep_equals(0, False)
        assert deep_equals(True, True)

    def test_containers(self):
        assert deep_equals({"a": [1, {"b": None}]}, {"a": [1, {"b": None}]})
        assert not deep_equals({"a": 1}, {"a": 1, "b": 2})
        assert not deep_equals([1, 2], [2, 1])

    def test_object_key_order_irrelevant(self):
        assert deep_equals({"a": 1, "b": 2}, {"b": 2, "a": 1})

    def test_cross_type(self):
        assert not deep_equals([], {})
        assert not deep_equals("1", 1)
        assert not deep_equals(None, 0)


class TestCanonicalKeys:
    """One canonical key per XQuery-equal value class.

    distinct-values, group-by, and join bucketing all key on these, so
    the invariants here are the invariants of every keyed operator.
    """

    def test_int_and_float_collapse(self):
        assert canonical_atomic(1) == canonical_atomic(1.0)
        assert canonical_atomic(-3) == canonical_atomic(-3.0)

    def test_bool_stays_distinct_from_number(self):
        assert canonical_atomic(True) != canonical_atomic(1)
        assert canonical_atomic(False) != canonical_atomic(0)

    def test_zero_spellings_collapse(self):
        assert canonical_atomic(0) == canonical_atomic(-0.0) == canonical_atomic(0.0)

    def test_nan_is_self_equal(self):
        nan = float("nan")
        assert canonical_atomic(nan) == canonical_atomic(float("nan"))
        assert canonical_atomic(nan) != canonical_atomic(0.0)

    def test_string_never_collides_with_number(self):
        assert canonical_atomic("1") != canonical_atomic(1)
        assert canonical_atomic("true") != canonical_atomic(True)

    def test_huge_int_not_conflated_by_float_rounding(self):
        # 2**53 and 2**53 + 1 round to the same float; the canonical
        # key must keep exact ints exact.
        assert canonical_atomic(2**53) != canonical_atomic(2**53 + 1)
        assert canonical_atomic(2**53) == canonical_atomic(float(2**53))

    def test_canonical_item_handles_containers(self):
        assert canonical_item({"a": [1]}) == canonical_item({"a": [1.0]})
        assert canonical_item({"a": 1}) != canonical_item({"a": 2})

    def test_canonical_key_is_hashable_and_positional(self):
        assert isinstance(hash(canonical_key([1, "x"])), int)
        assert canonical_key([1, 2]) != canonical_key([2, 1])
        assert canonical_key([1]) == canonical_key([1.0])


class TestItemBuilder:
    """Items are built from JSON text by the scanners over the empty
    path: the whole-value decode behind ``parse_many``, on both routes."""

    @staticmethod
    def build(text):
        built = parse_many(text)
        assert list(textscan.scan_text(text, Path())) == built
        return built

    @staticmethod
    def rejects(text):
        for decode in (parse_many, lambda t: list(textscan.scan_text(t, Path()))):
            with pytest.raises(JsonSyntaxError):
                decode(text)

    def test_build_scalar(self):
        assert self.build("7") == [7]

    def test_build_object(self):
        assert self.build('{"a": 1}') == [{"a": 1}]

    def test_build_nested(self):
        assert self.build('[{"xs": [1, 2]}]') == [[{"xs": [1, 2]}]]

    def test_multiple_top_level(self):
        assert self.build('1 "two"') == [1, "two"]

    def test_depth_tracking(self):
        value = []
        for _ in range(199):
            value = [value]
        assert self.build("[" * 200 + "]" * 200) == [value]
        with pytest.raises(JsonSyntaxError, match="maximum nesting depth"):
            self.build("[" * 5000 + "]" * 5000)

    def test_key_outside_object_rejected(self):
        self.rejects('"k": 1')

    def test_unbalanced_end_rejected(self):
        self.rejects("]")

    def test_mismatched_end_rejected(self):
        self.rejects("{]")

    def test_truncated_stream_rejected(self):
        self.rejects("[1")

    def test_value_without_key_rejected(self):
        self.rejects("{1}")
