"""Scanner differential fuzz: on-demand against the raw-text skipper.

ROADMAP item 4's "scanner differential fuzz".  The on-demand scanner
(:mod:`repro.jsonlib.ondemand`) promises byte-identity with the skipper
(:mod:`repro.jsonlib.textscan`) on *everything observable*: the items
yielded (also those yielded before an error), the error's class,
message and offset, the ``matched``/``skipped`` counters and the
recorder's skip events — for whole texts and for files read through
the sliding buffer at any chunk size.  On documents that were not
mutated both must also equal ``navigate(json.loads(...))``.

Documents are rendered by this file, not by ``json.dumps``, so that
objects can repeat keys and spacing varies; a text mutation then
optionally breaks the result.  The recursive documents almost never
hold the paper's layout, arrays of flat rows under a ``()("key")``
tail, so a second strategy builds exactly those, each row optionally
broken in one of the ways a decoded member must be refused (a repeated
key, a non-standard constant, an integer too long to convert,
malformed text).  The examples are derandomized so the tier-1 gate
does the same work on every host; to fuzz wider, raise ``max_examples``
and drop ``derandomize`` locally.
"""

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JsonSyntaxError
from repro.jsonlib import ondemand, textscan
from repro.jsonlib.path import (
    KeysOrMembers,
    Path,
    ValueByIndex,
    ValueByKey,
    navigate,
)
from repro.jsonlib.textscan import ScanCounters

KEYS = ["a", "b", "k", "results", "", "é", 'q"\\', "\U0001f600"]


class Obj(list):
    """An object as a list of (key, value) pairs; keys may repeat."""


class Raw(str):
    """A pre-rendered JSON fragment json.dumps would not produce."""


class Rows(list):
    """An array of rows; may be rendered with a trailing comma."""

    trailing_comma = False


atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.sampled_from(KEYS),
    st.sampled_from(
        ["-0", "-0.0", "1E5", "2e-3", "1e999", '"\\ud800"', '"\\ud83d\\ude00"',
         '"\\/\\b\\f"', "12345678901234567890123"]
    ).map(Raw),
)

values = st.recursive(
    atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(
            st.tuples(st.sampled_from(KEYS), children), max_size=4
        ).map(Obj),
    ),
    max_leaves=16,
)

styles = st.fixed_dictionaries(
    {
        "ascii": st.booleans(),
        "comma": st.sampled_from([", ", ",", " ,\n\t"]),
        "colon": st.sampled_from([": ", ":", " :\r\n "]),
        "pad": st.sampled_from(["", " ", "\n"]),
    }
)

path_steps = st.one_of(
    st.builds(ValueByKey, st.sampled_from(KEYS)),
    st.builds(ValueByIndex, st.integers(min_value=1, max_value=3)),
    st.just(KeysOrMembers()),
)
paths = st.builds(Path, st.lists(path_steps, max_size=4))


def render(value, style) -> str:
    if isinstance(value, Raw):
        return str(value)
    pad = style["pad"]
    if isinstance(value, Obj):
        members = style["comma"].join(
            render(key, style) + style["colon"] + render(member, style)
            for key, member in value
        )
        return "{" + pad + members + pad + "}"
    if isinstance(value, list):
        members = style["comma"].join(render(m, style) for m in value)
        if isinstance(value, Rows) and value.trailing_comma:
            members += ","
        return "[" + pad + members + pad + "]"
    return json.dumps(value, ensure_ascii=style["ascii"])


def mutate(text: str, data) -> str:
    """Optionally break *text*: the mutations the issue lists."""
    kind = data.draw(
        st.sampled_from(["truncate", "delete", "swap", "NaN", "-Infinity"]),
        label="mutation",
    )
    at = data.draw(st.integers(0, max(len(text) - 1, 0)), label="at")
    if kind == "truncate":
        return text[:at]
    if kind == "delete":
        return text[:at] + text[at + 1 :]
    if kind == "swap":
        other = data.draw(st.integers(0, max(len(text) - 1, 0)), label="other")
        chars = list(text)
        if chars:
            chars[at], chars[other] = chars[other], chars[at]
        return "".join(chars)
    return text[:at] + kind + text[at:]


def observe(scan, source, path, on_malformed, **kwargs):
    """Everything a caller can see of one scan, type-exactly."""
    counters = ScanCounters()
    events = []
    items = []
    error = None
    try:
        for item in scan(
            source, path, on_malformed=on_malformed,
            recorder=lambda offset, message: events.append((offset, message)),
            counters=counters, **kwargs,
        ):
            items.append(item)
    except JsonSyntaxError as raised:
        error = (type(raised).__name__, str(raised), raised.offset)
    # repr, because 1 == 1.0 == True and -0.0 == 0.0 under ==.
    return repr(items), error, counters.matched, counters.skipped, events


def check_equivalence(text, path, on_malformed, chunk_size, documents):
    """On-demand equals text, in memory and from a file; and both equal
    the stdlib on *documents* (the texts of a scan nothing broke)."""
    in_memory = observe(ondemand.scan_text, text, path, on_malformed)
    assert in_memory == observe(textscan.scan_text, text, path, on_malformed)

    handle, file_path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as out:
            out.write(text)
        from_file = observe(
            ondemand.scan_file, file_path, path, on_malformed,
            chunk_size=chunk_size,
        )
        assert from_file == observe(
            textscan.scan_file, file_path, path, on_malformed,
            chunk_size=chunk_size,
        )
    finally:
        os.unlink(file_path)

    if documents is not None:
        expected = []
        for document in documents:
            expected.extend(navigate(json.loads(document), path))
        assert in_memory[:2] == (repr(expected), None)
        assert from_file[:2] == (repr(expected), None)


@given(
    docs=st.lists(values, min_size=1, max_size=3),
    style=styles,
    joiner=st.sampled_from(["\n", " ", "\r\n"]),
    path=paths,
    mutated=st.booleans(),
    on_malformed=st.sampled_from(["fail", "skip_record"]),
    chunk_size=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_ondemand_equals_text_equals_stdlib(
    docs, style, joiner, path, mutated, on_malformed, chunk_size, data
):
    rendered = [render(doc, style) for doc in docs]
    text = joiner.join(rendered)
    if mutated:
        text = mutate(text, data)
    check_equivalence(
        text, path, on_malformed, chunk_size, None if mutated else rendered
    )


# -- arrays of same-shaped rows -----------------------------------------------

ROW_KEYS = ["date", "dataType", "station", "value", "k", "é"]
#: Ways to break one row; the last three leave no valid JSON behind.
ROW_BREAKS = [
    "duplicate", "drop", "reorder", "extra", "escape", "nest", "member",
    "malformed", "NaN", "digits",
]
MALFORMED = ["01", "1.", "1,", "tru", "'x'", '"a\x01"', '"\\x"', "", "{,}"]


def escaped(key: str) -> Raw:
    """*key* as a literal of ``\\uXXXX`` escapes (all ROW_KEYS are BMP)."""
    return Raw('"' + "".join(f"\\u{ord(char):04x}" for char in key) + '"')


@st.composite
def row_cases(draw):
    """``(documents, path, valid)``: one or two documents whose arrays
    hold 0-8 rows of one flat shape, some rows broken; *valid* while
    every document is still JSON."""
    shape = draw(
        st.lists(
            st.sampled_from(ROW_KEYS), min_size=1, max_size=4, unique=True
        )
    )
    target = draw(st.sampled_from(shape + ["missing"]))
    valid = True

    def rows():
        nonlocal valid
        members = Rows()
        for _ in range(draw(st.integers(0, 8))):
            pairs = [(key, draw(atoms)) for key in shape]
            kind = draw(
                st.one_of(st.none(), st.none(), st.sampled_from(ROW_BREAKS)),
                label="break",
            )
            at = draw(st.integers(0, len(pairs) - 1))
            key = pairs[at][0]
            if kind == "duplicate":
                pairs.insert(
                    draw(st.integers(0, len(pairs))), (key, draw(atoms))
                )
            elif kind == "drop":
                del pairs[at]
            elif kind == "reorder":
                pairs.append(pairs.pop(at))
                pairs.reverse()
            elif kind == "extra":
                pairs.insert(at, ("extra", draw(atoms)))
            elif kind == "escape":
                pairs[at] = (escaped(key), pairs[at][1])
            elif kind == "nest":
                nested = [[1], Obj([(key, 2)]), [], Obj()]
                pairs[at] = (key, draw(st.sampled_from(nested)))
            elif kind == "malformed":
                pairs[at] = (key, Raw(draw(st.sampled_from(MALFORMED))))
            elif kind == "NaN":
                pairs[at] = (key, Raw("NaN"))
            elif kind == "digits":
                pairs[at] = (key, Raw("9" * 5000))
            valid = valid and kind not in ("malformed", "NaN", "digits")
            members.append(
                draw(st.one_of(atoms, st.lists(atoms, max_size=2)))
                if kind == "member"
                else Obj(pairs)
            )
        members.trailing_comma = draw(st.integers(0, 7)) == 0
        valid = valid and not members.trailing_comma
        return members

    layout = draw(st.sampled_from(["bare", "results", "listing6"]))
    tail = [KeysOrMembers(), ValueByKey(target)]
    documents = []
    for _ in range(draw(st.integers(1, 2))):
        if layout == "bare":
            documents.append(rows())
        elif layout == "results":
            documents.append(Obj([("results", rows())]))
        else:
            # Two members of "root", each decoded whole by the navigator.
            documents.append(
                Obj([(
                    "root",
                    [
                        Obj([("metadata", Obj([("count", 3)])),
                             ("results", rows())])
                        for _ in range(2)
                    ],
                )])
            )
    if layout == "results":
        tail.insert(0, ValueByKey("results"))
    elif layout == "listing6":
        tail[:0] = [ValueByKey("root"), KeysOrMembers(), ValueByKey("results")]
    return documents, Path(tail), valid


@given(
    case=row_cases(),
    style=styles,
    joiner=st.sampled_from(["\n", " ", "\r\n"]),
    mutated=st.booleans(),
    on_malformed=st.sampled_from(["fail", "skip_record"]),
    chunk_size=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_row_arrays_ondemand_equals_text_equals_stdlib(
    case, style, joiner, mutated, on_malformed, chunk_size, data
):
    documents, path, valid = case
    rendered = [render(doc, style) for doc in documents]
    text = joiner.join(rendered)
    if mutated:
        text = mutate(text, data)
    check_equivalence(
        text, path, on_malformed, chunk_size,
        rendered if valid and not mutated else None,
    )
