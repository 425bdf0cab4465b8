"""The column form of every one-item builtin is its per-row kernel.

``.column`` of a builtin derived from an item kernel (and ``data``'s,
``atomize_column``) takes bulk paths when a column is homogeneous: a
column of exact ``str`` is evaluated once per distinct string, a kernel
with a bulk form maps it over a column of its one exact type, and a
column of exact atomics atomizes to a copy of itself.  Whatever the
path, the column must equal the sequence function applied row by row,
and a column with a row the kernel rejects must raise what the first
such row raises.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ItemTypeError
from repro.jsoniq.functions import BUILTIN_FUNCTIONS, _item_function
from repro.jsonlib.items import ABSENT, atomize_column

#: every builtin with a column form: ``data`` and the item kernels
COLUMN_BUILTINS = sorted(
    name
    for (name, arity), function in BUILTIN_FUNCTIONS.items()
    if arity == 1 and hasattr(function, "column")
)


class Text(str):
    """A ``str`` subclass: never taken for an exact string."""


UTC = datetime.timezone.utc
PLUS_ONE = datetime.timezone(datetime.timedelta(hours=1))

STRINGS = st.sampled_from(
    [
        "20031225T00:00",
        "20040101T06:30",
        "2003-12-25T00:00:00",
        "2003-12-25T00:00:00+01:00",
        "not a date",
        "12",
        "-1.5e3",
        "0x1f",
        "",
        "abc",
        "ÄÖü",
    ]
)
DATETIMES = st.sampled_from(
    [
        datetime.datetime(2003, 12, 25),
        datetime.datetime(2004, 2, 29, 23, 59, 58),
        datetime.datetime(2003, 12, 25, 1, tzinfo=PLUS_ONE),
        datetime.datetime(2003, 12, 25, 0, tzinfo=UTC),
    ]
)
#: one strategy per exact type a column may be made of
KINDS = [
    STRINGS,
    st.integers(-(2**64), 2**64),
    st.floats(allow_nan=True, allow_infinity=True) | st.just(-0.0),
    st.booleans(),
    st.none(),
    DATETIMES,
    st.just(ABSENT),
    STRINGS.map(Text),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 3), max_size=2),
    st.lists(st.integers(0, 3), max_size=2),
]
ENTRIES = st.one_of(*KINDS)
#: homogeneous columns of each kind (with duplicates: few distinct
#: values), mixed columns, and ints with a bool among them
COLUMNS = st.one_of(
    *(st.lists(kind, max_size=12) for kind in KINDS),
    st.lists(ENTRIES, max_size=12),
    st.tuples(
        st.lists(st.integers(-3, 3), max_size=6),
        st.booleans(),
        st.lists(st.integers(-3, 3), max_size=6),
    ).map(lambda parts: [*parts[0], parts[1], *parts[2]]),
)


def per_row(function, column):
    """The sequence function row by row, as a column: its one item, or
    ABSENT for the empty sequence; the first row's error raised."""
    entries = []
    for item in column:
        answer = function([[] if item is ABSENT else [item]])
        entries.append(answer[0] if answer else ABSENT)
    return entries


def outcome(compute):
    """What *compute* answers, exactly (``True`` is not ``1``), or the
    error it raises."""
    try:
        answer = compute()
    except ItemTypeError as error:
        return ("raises", type(error), str(error))
    return ("answers", [(type(entry), repr(entry)) for entry in answer])


@pytest.mark.parametrize("name", COLUMN_BUILTINS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(column=COLUMNS)
def test_column_is_the_kernel_row_by_row(name, column):
    function = BUILTIN_FUNCTIONS[(name, 1)]
    expected = outcome(lambda: per_row(function, column))
    assert outcome(lambda: function.column(list(column))) == expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(column=COLUMNS)
def test_atomize_column_is_atomize_row_by_row(column):
    data = BUILTIN_FUNCTIONS[("data", 1)]
    expected = outcome(lambda: per_row(data, column))
    assert outcome(lambda: atomize_column(list(column))) == expected


def test_the_covered_builtins():
    assert {"data", "dateTime", "year-from-dateTime", "string-length"} <= set(
        COLUMN_BUILTINS
    )


class TestBulkPaths:
    def test_a_string_column_calls_the_kernel_once_per_distinct_string(self):
        calls = []

        def kernel(item, name):
            calls.append(item)
            return item.upper()

        column = _item_function("up", kernel).column
        assert column(["b", "a", "b", "b", "a"]) == ["B", "A", "B", "B", "A"]
        assert calls == ["b", "a"]

    def test_the_first_rejected_row_raises(self):
        column = BUILTIN_FUNCTIONS[("dateTime", 1)].column
        with pytest.raises(ItemTypeError, match="'first'"):
            column(["20031225T00:00", "first", "20031225T00:00", "second"])

    def test_a_str_subclass_takes_the_row_path(self):
        calls = []

        def kernel(item, name):
            calls.append(item)
            return len(item)

        column = _item_function("n", kernel).column
        assert column([Text("ab"), Text("ab")]) == [2, 2]
        assert len(calls) == 2

    def test_an_accessor_maps_its_field_over_datetimes(self):
        column = BUILTIN_FUNCTIONS[("month-from-dateTime", 1)].column
        dates = [datetime.datetime(2003, m, 1) for m in (12, 1, 12)]
        assert column(dates) == [12, 1, 12]
        with pytest.raises(ItemTypeError, match="expects a dateTime"):
            column([*dates, "20031225T00:00"])
        assert column([*dates, None, ABSENT]) == [12, 1, 12, ABSENT, ABSENT]

    def test_atomizing_a_column_of_atomics_copies_it(self):
        column = ["a", 1, 2.5, True, None, ABSENT]
        atomized = atomize_column(column)
        assert atomized == column and atomized is not column
        with pytest.raises(ItemTypeError, match="cannot atomize a array"):
            atomize_column(["a", [1]])
