"""``sizeof_tuples`` is ``sizeof_tuple`` of each tuple, whatever the frame."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hyracks.tuples as tuples_module
import repro.jsonlib.items as items_module
from repro.errors import ItemTypeError
from repro.hyracks.tuples import sizeof_tuple, sizeof_tuples
from repro.jsonlib.items import sizeof_item
from tests.jsonlib.test_items import ITEMS, deep

#: a scanned row: the same flat object every time, rarely anything else
ROWS = st.one_of(
    st.fixed_dictionaries({"k": st.text(max_size=6), "n": st.integers()}),
    st.fixed_dictionaries({"k": st.text(max_size=6), "n": st.integers()}),
    ITEMS,
)
#: what a variable is bound to: one row (a scan), or any sequence
SEQUENCES = (
    st.lists(ROWS, min_size=1, max_size=1),
    st.lists(ROWS, min_size=1, max_size=1),
    st.lists(ITEMS, max_size=3),
)


@st.composite
def frames_of_tuples(draw):
    """Tuples binding the same variables, one kind of sequence each, a
    few of them binding something else."""
    names = draw(st.lists(st.text(max_size=4), unique=True, max_size=3))
    kinds = [draw(st.sampled_from(SEQUENCES)) for _ in names]
    tuples = [
        {name: draw(kind) for name, kind in zip(names, kinds)}
        for _ in range(draw(st.integers(0, 3 * items_module._COLUMN_MIN_ROWS)))
    ]
    if tuples:
        for index in draw(
            st.lists(st.integers(0, len(tuples) - 1), max_size=2, unique=True)
        ):
            tuples[index] = draw(
                st.dictionaries(st.text(max_size=4), st.lists(ITEMS, max_size=2), max_size=3)
            )
    return tuples


@settings(max_examples=300, deadline=None, derandomize=True)
@given(frames_of_tuples())
def test_equals_sizeof_tuple_of_each(frame):
    assert sizeof_tuples(frame) == [sizeof_tuple(tup) for tup in frame]


@pytest.mark.parametrize(
    "odd",
    [
        {},
        {"$r": []},
        {"$r": [{"k": "x", "n": 1}, {"k": "y", "n": 2}]},
        {"$r": ({"k": "x", "n": 1},)},  # a sequence that is not a list
        {"$s": [{"k": "x", "n": 1}]},
        {"$r": [{"k": "x", "n": 1}], "$s": [1]},
        {"$r": [{"k": "x", "n": True}]},
        {"$r": [{"k": "x"}]},
        {"$r": [deep(900)]},
        {"$r": ["atomic"]},
    ],
    ids=repr,
)
@pytest.mark.parametrize("where", [0, 11])
@pytest.mark.parametrize("rows", [4, 12])
def test_one_tuple_out_of_shape(odd, where, rows):
    frame = [{"$r": [{"k": "x" * i, "n": i}]} for i in range(rows)]
    frame[where % rows] = odd
    assert sizeof_tuples(frame) == [sizeof_tuple(tup) for tup in frame]


def test_scanned_tuples_never_reach_sizeof_item(monkeypatch):
    frame = [{"$r": [{"k": "x" * i, "n": i}], "$d": ["2003"]} for i in range(20)]
    expected = [sizeof_tuple(tup) for tup in frame]

    def unreachable(item):
        raise AssertionError(f"measured {item!r} on its own")

    monkeypatch.setattr(items_module, "sizeof_item", unreachable)
    monkeypatch.setattr(tuples_module, "sizeof_item", unreachable)
    assert sizeof_tuples(frame) == expected


def test_empty_frame():
    assert sizeof_tuples([]) == []


@pytest.mark.parametrize("rows", [3, 12])
def test_non_item_rejected(rows):
    frame = [{"$r": [{"a": i}]} for i in range(rows - 1)] + [{"$r": [{"a": object()}]}]
    with pytest.raises(ItemTypeError) as fallback:
        [sizeof_item(tup["$r"][0]) for tup in frame]
    with pytest.raises(ItemTypeError) as kernel:
        sizeof_tuples(frame)
    assert str(kernel.value) == str(fallback.value)
