"""Property-based tests (hypothesis) for the JSON substrate invariants.

Invariants:

1. ``parse`` agrees with the stdlib ``json`` module on anything the
   stdlib can produce.
2. Reading is chunking-invariant: ``scan_file`` on either scanner, at
   any read size, yields what decoding the whole text yields.
3. ``parse(dumps(item)) == item`` (serializer round-trip).
4. ``sizeof_item`` is monotone under structural growth.

(That the projecting scanners agree with ``navigate`` over materialized
items is ``test_textscan.py::test_property_matches_navigate`` and the
scanner fuzz suite.)
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jsonlib import ondemand, textscan
from repro.jsonlib.items import sizeof_item
from repro.jsonlib.parser import parse, parse_many
from repro.jsonlib.path import Path
from repro.jsonlib.serializer import dumps

# Finite floats only: JSON has no NaN/Infinity.
json_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**15), max_value=10**15),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=25,
)


@given(json_values)
def test_parse_agrees_with_stdlib(value):
    text = json.dumps(value)
    assert parse(text) == json.loads(text)


@given(st.lists(json_values, min_size=1, max_size=3), st.data())
@settings(max_examples=60)
def test_chunking_invariance(values, data):
    text = "\n".join(json.dumps(value) for value in values)
    chunk_size = data.draw(st.integers(min_value=1, max_value=len(text)))
    handle, file = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as out:
            out.write(text)
        for scanner in (textscan, ondemand):
            read = list(scanner.scan_file(file, Path(), chunk_size=chunk_size))
            assert read == parse_many(text) == values
    finally:
        os.unlink(file)


@given(json_values)
def test_serializer_roundtrip(value):
    assert parse(dumps(value)) == value


@given(json_values)
@settings(max_examples=60)
def test_indented_serializer_roundtrip(value):
    assert parse(dumps(value, indent=2)) == value


# Strings drawn from the hostile end of Unicode: C0/C1 controls (which
# must be \u-escaped), astral-plane characters (surrogate pairs in the
# \uXXXX escape form), and the BOM/quote/backslash specials.
hostile_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=0x00, max_codepoint=0x1F),
        st.characters(min_codepoint=0x7F, max_codepoint=0x9F),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
        st.sampled_from(['"', "\\", "/", "﻿", " ", " "]),
        st.characters(),
    ),
    max_size=20,
)

hostile_values = st.recursive(
    st.one_of(json_atoms, hostile_text),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(hostile_text, children, max_size=4),
    ),
    max_leaves=20,
)


@given(hostile_values)
@settings(max_examples=150)
def test_serializer_roundtrip_hostile_strings(value):
    assert parse(dumps(value)) == value


@given(hostile_values)
@settings(max_examples=60)
def test_hostile_output_agrees_with_stdlib(value):
    # Our serializer's output must also be valid for the stdlib parser.
    assert json.loads(dumps(value)) == value


@given(st.integers(min_value=1, max_value=300), st.sampled_from(["arr", "obj"]))
@settings(max_examples=30)
def test_serializer_roundtrip_deep_nesting(depth, kind):
    value = 7
    for _ in range(depth):
        value = [value] if kind == "arr" else {"k": value}
    assert parse(dumps(value)) == value


def test_roundtrip_control_character_corpus():
    # Every C0 control plus the documented escapes, deterministically.
    corpus = [chr(i) for i in range(0x20)] + ["\b\f\n\r\t", '\\"', "\x7f"]
    assert parse(dumps(corpus)) == corpus
    assert json.loads(dumps(corpus)) == corpus


def test_roundtrip_surrogate_pair_corpus():
    corpus = ["𝄞", "😀🎉", "a𝕊b", "\U0010FFFF"]
    assert parse(dumps(corpus)) == corpus
    # The stdlib escapes astral characters as surrogate pairs; our
    # parser must decode those pair escapes back to one code point.
    assert parse(json.dumps(corpus)) == corpus


@given(json_values, st.text(max_size=6), json_values)
def test_sizeof_monotone_object_growth(value, key, extra):
    base = {"seed": value}
    grown = dict(base)
    grown[key + "!"] = extra  # guaranteed new key
    assert sizeof_item(grown) > sizeof_item(base)


@given(st.lists(json_values, max_size=5))
def test_sizeof_array_at_least_members(members):
    assert sizeof_item(members) >= sum(sizeof_item(m) for m in members)
