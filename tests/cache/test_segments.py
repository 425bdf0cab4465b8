"""Binary segment files: shredding, fingerprints, atomic store/load."""

import ast
import json
import os
import pathlib
import pickle
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache
from repro.cache.segments import (
    _MAGIC,
    _STAMP,
    SegmentCache,
    _pack_column,
    _shred,
    canonical_projection,
    file_fingerprint,
    text_fingerprint,
)
from repro.jsonlib import dumps
from repro.jsonlib.items import sizeof_item
from repro.jsonlib.path import parse_path

KEY = ("src", ("sha256", "abc"), "k=root/*", "fail")
U32 = struct.Struct("<I")


def store(cache, items, key=KEY, counters=None, events=None):
    return cache.store(*key, items, [sizeof_item(item) for item in items],
                       counters or {"matched": len(items)}, events or [])


def load(cache, key=KEY):
    segment, _status = cache.load_classified(*key)
    return segment


def segment_file(tmp_path):
    (name,) = [n for n in os.listdir(tmp_path) if n.endswith(".seg")]
    return tmp_path / name


def read_segment(path):
    """``(header, section bytes)`` of a segment file, checksum verified."""
    raw = path.read_bytes()
    assert raw.startswith(_MAGIC)
    checked = raw[len(_MAGIC) + U32.size:]
    assert U32.unpack_from(raw, len(_MAGIC)) == (zlib.crc32(checked),)
    (header_length,) = U32.unpack_from(checked)
    pos = U32.size + header_length
    header = json.loads(checked[U32.size:pos])
    sections = []
    for _kind, length in header["sections"]:
        sections.append(checked[pos:pos + length])
        pos += length
    assert pos == len(checked)
    return header, sections


def write_segment(path, header, sections=(), tail=b"", header_length=None):
    """A file with a valid magic and checksum around arbitrary content."""
    encoded = header if isinstance(header, bytes) else json.dumps(header).encode()
    if header_length is None:
        header_length = len(encoded)
    checked = U32.pack(header_length) + encoded + b"".join(sections) + tail
    path.write_bytes(_MAGIC + U32.pack(zlib.crc32(checked)) + checked)


def good_header(**changes):
    """The header ``store(cache, [1.5, 2.5])`` writes, with *changes*."""
    header = {
        "key": repr(KEY),
        "stamp": _STAMP,
        "rows": 2,
        "counters": {"matched": 2},
        "skip_events": [],
        "columns": None,
        "sections": [["f8", 16], ["B", 1]],
    }
    header.update(changes)
    return header


FLOATS = struct.pack("=2d", 1.5, 2.5)
SIZE = bytes([sizeof_item(1.5)])


class TestCanonicalProjection:
    def test_step_kinds(self):
        path = parse_path('("root")()("results")(3)')
        assert canonical_projection(path) == "k=root/*/k=results/i=3"

    def test_empty_path(self):
        assert canonical_projection(parse_path("")) == ""

    def test_key_containing_separator_chars(self):
        # Keys are embedded verbatim; distinct paths must never alias.
        a = canonical_projection(parse_path('("x/y")'))
        b = canonical_projection(parse_path('("x")("y")'))
        assert a != b


class TestFingerprints:
    def test_file_fingerprint_tracks_truncate_append_mtime(self, tmp_path):
        target = tmp_path / "d.json"
        target.write_text("[1, 2, 3]", encoding="utf-8")
        original = file_fingerprint(str(target))
        target.write_text("[1, 2]", encoding="utf-8")  # truncate
        truncated = file_fingerprint(str(target))
        assert truncated != original
        with open(target, "a", encoding="utf-8") as handle:  # append
            handle.write(" [4]")
        appended = file_fingerprint(str(target))
        assert appended != truncated
        stat = os.stat(target)
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        assert file_fingerprint(str(target)) != appended  # touch

    def test_file_fingerprint_tracks_atomic_replace(self, tmp_path):
        # Same size and a back-dated mtime: the inode (and ctime) still
        # change on os.replace, so the rewrite invalidates.
        target = tmp_path / "d.json"
        target.write_text("[1, 2, 3]", encoding="utf-8")
        original = file_fingerprint(str(target))
        stat = os.stat(target)
        replacement = tmp_path / "d.json.new"
        replacement.write_text("[9, 8, 7]", encoding="utf-8")
        os.replace(replacement, target)
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert file_fingerprint(str(target)) != original

    def test_text_fingerprint_is_content_hash(self):
        assert text_fingerprint("abc") == text_fingerprint("abc")
        assert text_fingerprint("abc") != text_fingerprint("abd")


class TestShredding:
    def test_uniform_flat_dicts_shred_columnar(self):
        items = [{"a": 1.0, "b": 2}, {"a": 3.5, "b": 4}]
        keys, columns = _shred(items)
        assert keys == ("a", "b")
        assert columns == [[1.0, 3.5], [2, 4]]

    def test_non_uniform_rows_refused(self):
        assert _shred([{"a": 1}, {"b": 2}]) is None
        assert _shred([{"a": 1}, {"a": 1, "b": 2}]) is None
        assert _shred([{"a": 1}, 7]) is None
        assert _shred([]) is None
        assert _shred([{}]) is None

    def test_mismatched_key_order_refused(self):
        # load rebuilds rows as dict(zip(keys, row)): shredding rows
        # whose keys match only as a set would reorder them warm.
        assert _shred([{"a": 1, "b": 2}, {"b": 3, "a": 4}]) is None

    def test_pack_float_int_and_mixed_columns(self):
        assert _pack_column([1.5, 2.5])[0] == "f8"
        assert _pack_column([1, 2])[0] == "i8"
        assert _pack_column([1, 2.5])[0] == "json"
        assert _pack_column(["x", ""]) == ("str", b"x\n")
        assert _pack_column(["x\ny"])[0] == "json"  # the joiner is taken
        assert _pack_column([True, False])[0] == "json"  # bools stay exact
        assert _pack_column([1 << 80])[0] == "json"  # i8 overflow
        assert _pack_column([]) == ("json", b"[]")


class TestStoreLoad:
    def test_columnar_round_trip(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        items = [
            {"v": 1.5, "n": 2, "s": "x"},
            {"v": 2.5, "n": 3, "s": "y"},
        ]
        assert store(cache, items, counters={"matched": 2, "skipped": 1},
                     events=[(7, "bad")])
        segment = load(cache)
        assert segment.items == items
        assert all(
            type(a["n"]) is int and type(a["v"]) is float
            for a in segment.items
        )
        assert segment.counters == {"matched": 2, "skipped": 1}
        assert segment.skip_events == [(7, "bad")]

    def test_header_strings_round_trip_exactly(self, tmp_path):
        # Two surrogates side by side are two code points, not the one
        # an escaping JSON writer and reader would merge them into.
        cache = SegmentCache(str(tmp_path))
        odd = "\ud83d\ude00 \ud800 \x00"
        key = (odd, ("sha256", "abc"), "k=" + odd, "skip_record")
        items = [{odd: 1}, {odd: 2}]
        assert store(cache, items, key=key, events=[(3, odd), (None, "x")])
        segment = load(cache, key)
        assert segment.items == items
        assert segment.skip_events == [(3, odd), (None, "x")]

    def test_columnar_layout_on_disk(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [{"v": 1.5, "s": "x"}, {"v": 2.5, "s": "y"}])
        header, sections = read_segment(segment_file(tmp_path))
        assert header["key"] == repr(KEY)
        assert header["columns"] == ["v", "s"]
        assert header["rows"] == 2
        # raw array('d') bytes and joined text, not serialized objects;
        # equal row sizes are stored once
        assert header["sections"] == [["f8", 16], ["str", 3], ["H", 2]]
        row_size = sizeof_item({"v": 1.5, "s": "x"})
        assert sections == [FLOATS, b"x\ny", struct.pack("=H", row_size)]

    def test_sizes_take_the_narrowest_array(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        items = ["x" * 10, "x" * 300, "x" * 70000]
        store(cache, items)
        header, sections = read_segment(segment_file(tmp_path))
        assert header["sections"][-1] == ["I", 12]
        segment = load(cache)
        assert segment.sizes == [sizeof_item(item) for item in items]
        store(cache, items[:2])
        header, _ = read_segment(segment_file(tmp_path))
        assert header["sections"][-1] == ["H", 4]

    def test_row_round_trip(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        items = [1, "two", {"three": [3]}, None]
        assert store(cache, items)
        assert load(cache).items == items

    def test_mixed_key_order_round_trips_byte_identical(self, tmp_path):
        # Same keys, different insertion order: must come back with each
        # row's own order intact (rows layout), not keyed on row 0.
        cache = SegmentCache(str(tmp_path))
        items = [{"a": 1, "b": 2}, {"b": 3, "a": 4}]
        assert store(cache, items)
        loaded = load(cache).items
        assert loaded == items
        assert [list(row) for row in loaded] == [["a", "b"], ["b", "a"]]

    def test_miss_and_key_isolation(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        assert load(cache) is None
        store(cache, [1])
        other_policy = ("src", ("sha256", "abc"), "k=root/*", "skip_record")
        other_projection = ("src", ("sha256", "abc"), "k=other", "fail")
        other_fingerprint = ("src", ("sha256", "xyz"), "k=root/*", "fail")
        assert load(cache, other_policy) is None
        assert load(cache, other_projection) is None
        assert load(cache, other_fingerprint) is None
        assert load(cache).items == [1]

    def test_double_store_last_writer_wins(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [1])
        store(cache, [2])
        assert load(cache).items == [2]
        assert len(os.listdir(tmp_path)) == 1  # no temp litter

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [1])
        (segment_file,) = os.listdir(tmp_path)
        (tmp_path / segment_file).write_bytes(b"RSEG1\ngarbage")
        assert load(cache) is None
        (tmp_path / segment_file).write_bytes(b"NOPE!\n")
        assert load(cache) is None

    def test_malformed_header_and_payload_are_misses(self, tmp_path):
        # Defects beyond a failed checksum (a header of the wrong type,
        # missing header fields, a section whose shape doesn't match
        # the header) must read as misses, never crash the scan.
        cache = SegmentCache(str(tmp_path))
        store(cache, [1])
        segment = segment_file(tmp_path)
        write_segment(segment, ["not", "an", "object"], [FLOATS, SIZE])
        assert load(cache) is None
        write_segment(segment, {"key": repr(KEY)})  # every other field missing
        assert load(cache) is None
        write_segment(segment, good_header(columns=["a"]), [b"not 16 bytes", SIZE])
        assert load(cache) is None

    def test_transient_parse_failure_keeps_file(self, tmp_path, monkeypatch):
        # A MemoryError while decoding a large section is *not*
        # corruption: the segment must not be deleted (or reported as
        # corrupt), and must hit again once the pressure clears.
        import repro.cache.segments as segments

        cache = SegmentCache(str(tmp_path))
        store(cache, [1, 2, 3])
        segment = segment_file(tmp_path)

        def out_of_memory(kind, data, rows):
            raise MemoryError("cannot decode section")

        with monkeypatch.context() as patch:
            patch.setattr(segments, "_unpack_column", out_of_memory)
            loaded, status = cache.load_classified(*KEY)
        assert loaded is None and status == "miss"
        assert segment.exists()  # file survives
        assert load(cache).items == [1, 2, 3]

    def test_store_failure_is_swallowed(self, tmp_path):
        missing = tmp_path / "file-not-dir"
        missing.write_text("x", encoding="utf-8")
        cache = SegmentCache(str(missing / "sub"))  # mkdir will fail
        assert store(cache, [1]) is False

    def test_cache_handle_pickles(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [{"v": 1.5}])
        clone = pickle.loads(pickle.dumps(cache))
        assert load(clone).items == [{"v": 1.5}]


class TestCrashSafety:
    """Torn writes, bit flips, and I/O-failure degradation."""

    def test_torn_write_is_detected_as_corrupt(self, tmp_path):
        # A truncated payload (the tail a crash mid-write would lose on
        # a non-atomic writer) must fail the checksum, read as a miss,
        # and delete the damaged file so the next store repairs it.
        cache = SegmentCache(str(tmp_path))
        store(cache, [{"v": 1.5}, {"v": 2.5}])
        segment = segment_file(tmp_path)
        raw = segment.read_bytes()
        segment.write_bytes(raw[:-7])
        loaded, status = cache.load_classified(*KEY)
        assert loaded is None and status == "corrupt"
        assert not segment.exists()
        assert store(cache, [{"v": 9.0}])  # next store repairs
        assert load(cache).items == [{"v": 9.0}]

    def test_bit_flip_fails_checksum(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [{"v": 1.5}, {"v": 2.5}])
        segment = segment_file(tmp_path)
        raw = bytearray(segment.read_bytes())
        raw[-3] ^= 0x40  # flip one payload bit
        segment.write_bytes(bytes(raw))
        loaded, status = cache.load_classified(*KEY)
        assert loaded is None and status == "corrupt"
        assert not segment.exists()

    def test_legacy_segment_without_checksum_is_plain_miss(self, tmp_path):
        # Files of the old (pickle) format carry no checksum this reader
        # could verify and are never parsed: rescan without counting
        # damage, and leave the upgrade to the next store.
        cache = SegmentCache(str(tmp_path))
        store(cache, [1, 2])
        segment = segment_file(tmp_path)
        segment.write_bytes(b"RSEG1\n" + pickle.dumps([1, 2]))
        loaded, status = cache.load_classified(*KEY)
        assert loaded is None and status == "miss"
        assert segment.exists()  # not damage; not deleted
        assert store(cache, [1, 2])
        assert segment.read_bytes().startswith(_MAGIC)

    def test_one_checksum_covers_every_byte(self, tmp_path):
        # One flipped bit anywhere (magic, checksum, header length,
        # header, each kind of section) must read as corrupt, never as a
        # hit that replays wrong counters or rows.
        cache = SegmentCache(str(tmp_path))
        items = [
            {"f": 1.5, "i": 2, "s": "x", "m": [1]},
            {"f": 2.5, "i": 3, "s": "y", "m": None},
        ]
        store(cache, items, counters={"matched": 2, "skipped": 77})
        segment = segment_file(tmp_path)
        header, _ = read_segment(segment)
        assert [kind for kind, _ in header["sections"]] == [
            "f8", "i8", "str", "json", "H"
        ]
        pristine = segment.read_bytes()
        for index in range(len(pristine)):
            damaged = bytearray(pristine)
            damaged[index] ^= 1 << (index % 8)
            segment.write_bytes(bytes(damaged))
            loaded, status = cache.load_classified(*KEY)
            assert (loaded, status) == (None, "corrupt"), index
            assert not segment.exists()
        segment.write_bytes(pristine)
        assert load(cache).counters == {"matched": 2, "skipped": 77}

    def test_store_failure_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        cache = SegmentCache(str(tmp_path))

        def broken_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        assert store(cache, [1]) is False
        assert os.listdir(tmp_path) == []

    def test_fault_hook_enospc_disables_after_budget(self, tmp_path):
        calls = []

        def hook(operation):
            calls.append(operation)
            raise OSError(28, "No space left on device")

        cache = SegmentCache(str(tmp_path))
        cache.fault_hook = hook
        for _ in range(cache.max_io_errors):
            assert cache.disabled_reason is None
            assert store(cache, [1]) is False
        assert cache.disabled_reason is not None
        assert "No space left on device" in cache.disabled_reason
        # Disabled: stores are skipped and loads miss without touching
        # the hook (or the disk) again.
        assert store(cache, [1]) is False
        assert cache.load_classified(*KEY) == (None, "miss")
        assert calls == ["store"] * cache.max_io_errors

    def test_successful_io_resets_failure_run(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        flaky = {"remaining": cache.max_io_errors - 1}

        def hook(operation):
            if flaky["remaining"] > 0:
                flaky["remaining"] -= 1
                raise OSError(5, "Input/output error")

        cache.fault_hook = hook
        for _ in range(cache.max_io_errors - 1):
            assert store(cache, [1]) is False
        assert store(cache, [1]) is True  # recovery breaks the run
        flaky["remaining"] = cache.max_io_errors - 1
        for _ in range(cache.max_io_errors - 1):
            assert store(cache, [2]) is False
        assert cache.disabled_reason is None  # never 3 consecutive
        assert store(cache, [2]) is True

    def test_load_io_error_classified_and_counted(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [1])

        def hook(operation):
            if operation == "load":
                raise OSError(5, "Input/output error")

        cache.fault_hook = hook
        for _ in range(cache.max_io_errors):
            assert cache.load_classified(*KEY) == (None, "io-error")
        assert cache.disabled_reason is not None


class TestHostileFiles:
    """Files a stranger wrote: valid magic and checksum, wrong inside.

    Nothing raises, nothing is allocated from a number the bytes do not
    back, and the next store repairs whatever was there.
    """

    CASES = {
        "header is not an object": (b"[1, 2]", [FLOATS, SIZE]),
        "header is not JSON": (b"{nope", [FLOATS, SIZE]),
        "header is not UTF-8": (b"\xff\xfe", [FLOATS, SIZE]),
        "missing fields": ({"key": repr(KEY), "stamp": _STAMP}, [FLOATS, SIZE]),
        "another key": (good_header(key=repr(KEY[:3] + ("skip_file",))), [FLOATS, SIZE]),
        "rows beyond the bytes": (good_header(rows=10**12), [FLOATS, SIZE]),
        "rows not an integer": (good_header(rows=True), [FLOATS, SIZE]),
        "rows negative": (good_header(rows=-2), [FLOATS, SIZE]),
        "no column to check rows against": (
            good_header(rows=10**12, columns=[], sections=[["B", 1]]), [SIZE],
        ),
        "no items section": (good_header(rows=10**12, sections=[["B", 1]]), [SIZE]),
        "no sections at all": (good_header(sections=[]), []),
        "two item sections": (
            good_header(sections=[["f8", 16], ["f8", 16], ["B", 1]]),
            [FLOATS, FLOATS, SIZE],
        ),
        "section overruns the file": (
            good_header(sections=[["f8", 16], ["B", 10**12]]), [FLOATS, SIZE],
        ),
        "section length negative": (
            good_header(sections=[["f8", 16], ["B", -1]]), [FLOATS, SIZE],
        ),
        "sections leave a tail": (good_header(), [FLOATS, SIZE, b"tail"]),
        "sections is not pairs": (good_header(sections=[16, 1]), [FLOATS, SIZE]),
        "unknown section kind": (
            good_header(sections=[["py", 16], ["B", 1]]), [FLOATS, SIZE],
        ),
        "column shorter than rows": (
            good_header(sections=[["f8", 8], ["B", 1]]), [FLOATS[:8], SIZE],
        ),
        "column not whole values": (
            good_header(sections=[["f8", 15], ["B", 1]]), [FLOATS[:15], SIZE],
        ),
        "sizes shorter than rows": (
            good_header(rows=3, sections=[["f8", 24], ["B", 2]]),
            [FLOATS + FLOATS[:8], SIZE * 2],
        ),
        "sizes longer than rows": (
            good_header(sections=[["f8", 16], ["B", 3]]), [FLOATS, SIZE * 3],
        ),
        # sizes are unsigned on disk, so no byte pattern reads negative;
        # a signed or non-integer array code is refused outright
        "sizes in a signed array": (
            good_header(sections=[["f8", 16], ["b", 2]]), [FLOATS, b"\xff\xff"],
        ),
        "sizes in a float array": (
            good_header(sections=[["f8", 16], ["d", 16]]), [FLOATS, FLOATS],
        ),
        "JSON section is not a list": (
            good_header(sections=[["json", 8], ["B", 1]]), [b'{"a": 1}', SIZE],
        ),
        "JSON section is a shorter list": (
            good_header(sections=[["json", 3], ["B", 1]]), [b"[1]", SIZE],
        ),
        "JSON section is torn": (
            good_header(sections=[["json", 4], ["B", 1]]), [b"[1, ", SIZE],
        ),
        "text section has too many lines": (
            good_header(sections=[["str", 5], ["B", 1]]), [b"a\nb\nc", SIZE],
        ),
        "column names do not fit": (
            good_header(columns=["a", "b"]), [FLOATS, SIZE],
        ),
        "column names are not strings": (good_header(columns=[["a"]]), [FLOATS, SIZE]),
        "counters is not an object": (good_header(counters=[1]), [FLOATS, SIZE]),
        "a counter is not an integer": (
            good_header(counters={"matched": "2"}), [FLOATS, SIZE],
        ),
        "skip events are not pairs": (good_header(skip_events=[[1]]), [FLOATS, SIZE]),
        "a skip event of the wrong types": (
            good_header(skip_events=[["7", 7]]), [FLOATS, SIZE],
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_is_corrupt_and_repaired_by_the_next_store(self, tmp_path, case):
        cache = SegmentCache(str(tmp_path))
        store(cache, [1.5, 2.5])
        segment = segment_file(tmp_path)
        header, sections = self.CASES[case]
        write_segment(segment, header, sections)
        assert cache.load_classified(*KEY) == (None, "corrupt")
        assert not segment.exists()
        assert store(cache, [9.5])
        assert load(cache).items == [9.5]

    def test_the_template_itself_is_a_hit(self, tmp_path):
        # ... so every case above is refused for the one thing it breaks.
        cache = SegmentCache(str(tmp_path))
        store(cache, [1.5, 2.5])
        segment = segment_file(tmp_path)
        assert read_segment(segment) == (good_header(), [FLOATS, SIZE])
        write_segment(segment, good_header(), [FLOATS, SIZE])
        loaded = load(cache)
        assert loaded.items == [1.5, 2.5]
        assert loaded.sizes == [sizeof_item(1.5)] * 2

    def test_header_length_beyond_the_file(self, tmp_path):
        cache = SegmentCache(str(tmp_path))
        store(cache, [1.5, 2.5])
        segment = segment_file(tmp_path)
        write_segment(segment, good_header(), [FLOATS, SIZE], header_length=10**9)
        assert cache.load_classified(*KEY) == (None, "corrupt")
        for torn in (_MAGIC, _MAGIC + b"\0\0\0", _MAGIC + b"\0" * 7):
            segment.write_bytes(torn)
            assert cache.load_classified(*KEY) == (None, "corrupt")

    def test_other_sizing_constants_are_a_plain_miss(self, tmp_path):
        # A segment sized under other constants (or packed on a machine
        # of the other byte order) is valid, just not for this process:
        # not damage, never a replay of stale sizes, and superseded by
        # the next store.
        cache = SegmentCache(str(tmp_path))
        store(cache, [1.5, 2.5])
        segment = segment_file(tmp_path)
        stale = [_STAMP[0]] + [size + 1 for size in _STAMP[1:]]
        for stamp in (stale, ["middle"] + _STAMP[1:], None):
            write_segment(segment, good_header(stamp=stamp), [FLOATS, SIZE])
            assert cache.load_classified(*KEY) == (None, "miss")
            assert segment.exists()
        assert store(cache, [9.5])
        assert load(cache).items == [9.5]

    def test_deep_nesting_is_a_plain_miss_that_keeps_the_file(self, tmp_path):
        # RecursionError says nothing about the file: another process,
        # or this one with fewer frames on its stack, may well read it.
        cache = SegmentCache(str(tmp_path))
        store(cache, [1.5, 2.5])
        segment = segment_file(tmp_path)
        deep = b"[" * 100_000 + b"]" * 100_000
        write_segment(
            segment, good_header(sections=[["json", len(deep)], ["B", 1]]),
            [deep, SIZE],
        )
        assert cache.load_classified(*KEY) == (None, "miss")
        assert segment.exists()


class Armed:
    """Unpickling an instance touches the file named by *marker*."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return pathlib.Path.touch, (self.marker,)


class TestNothingIsExecuted:
    def test_pickle_format_segment_is_a_plain_miss_never_parsed(self, tmp_path):
        from repro.data.catalog import InMemorySource
        from repro.jsonlib.textscan import ScanCounters

        cache_dir = tmp_path / "cache"
        source = InMemorySource(
            {"/c": [['{"v": 1} {"v": 2}']]}, segment_cache_dir=str(cache_dir)
        )
        path = parse_path('("v")')

        def scan():
            counters = ScanCounters()
            source.attach_scan_counters(counters)
            try:
                return list(source.scan_collection("/c", path)), counters
            finally:
                source.attach_scan_counters(None)

        scan()
        segment = segment_file(cache_dir)
        marker = tmp_path / "marker"
        body = pickle.dumps({"key": Armed(marker), "crc32": 0})
        segment.write_bytes(b"RSEG1\n" + body)
        items, counters = scan()
        assert items == [1, 2]
        assert (counters.cache_misses, counters.cache_hits) == (1, 0)
        assert counters.cache_corrupt == 0
        assert not marker.exists()
        assert segment.read_bytes().startswith(_MAGIC)  # replaced by the store
        assert scan()[1].cache_hits == 1
        pickle.loads(body)  # the payload was live all along
        assert marker.exists()

    def test_cache_package_imports_nothing_that_runs_file_content(self):
        (package_dir,) = repro.cache.__path__
        banned_modules = {"pickle", "marshal", "shelve", "importlib", "runpy"}
        banned_names = {"eval", "exec", "compile", "__import__"}
        sources = sorted(pathlib.Path(package_dir).glob("*.py"))
        assert sources
        for source in sources:
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    modules = {(node.module or "").split(".")[0]}
                else:
                    modules = set()
                assert not modules & banned_modules, (source.name, node.lineno)
                if isinstance(node, ast.Name):
                    assert node.id not in banned_names, (source.name, node.lineno)


class TestUnwritableItems:
    """An item the encoder cannot write skips that one store."""

    @pytest.mark.parametrize("item", [
        pytest.param([[1 << 20000]], id="integer too long to print"),
        pytest.param([{"when": __import__("datetime").datetime(2003, 1, 1)}],
                     id="not JSON"),
    ])
    def test_store_is_skipped_without_blaming_the_disk(self, tmp_path, item):
        cache = SegmentCache(str(tmp_path))
        for _ in range(cache.max_io_errors + 1):
            assert cache.store(*KEY, item, [8], {}, []) is False
        assert cache.disabled_reason is None
        assert os.listdir(tmp_path) == []
        assert store(cache, [1])

    @pytest.mark.parametrize("depth", [500, 900])
    def test_deep_document_scans_the_same_with_the_cache_on(self, tmp_path, depth):
        from repro.data.catalog import InMemorySource

        collections = {"/c": [["[" * depth + "1" + "]" * depth]]}
        path = parse_path("")
        plain = InMemorySource(collections, segment_cache_dir="")
        cached = InMemorySource(collections, segment_cache_dir=str(tmp_path))
        expected = dumps(list(plain.scan_collection("/c", path)))
        assert dumps(list(cached.scan_collection("/c", path))) == expected  # cold
        assert dumps(list(cached.scan_collection("/c", path))) == expected  # again
        assert cached.segment_cache.disabled_reason is None


# -- the round-trip property ----------------------------------------------------

STRINGS = st.one_of(
    st.text(st.characters(), max_size=8),  # any code point, surrogates too
    st.sampled_from([
        "", "a\x00b", "line\nbreak", "\ud800", "\udfff\ud800", "\ud83d\ude00",
        "\U0001f600", "\u00e9", '"\\', "20031225T00:00",
    ]),
)
ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([0, 1, -1, (1 << 63) - 1, -(1 << 63), 1 << 63, 1 << 64]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1.0, 1e308, -1e308, 5e-324]),
    STRINGS,
)
ITEMS = st.recursive(
    ATOMS | st.builds(dict) | st.builds(list),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=12,
)
ROW_KEYS = ["date", "", "v\n", "\ud800"]


@st.composite
def rows(draw):
    """Flat rows over the same keys: one type per column, or any atom;
    in one key order throughout, or each row in its own."""
    keys = draw(st.lists(st.sampled_from(ROW_KEYS), min_size=1, unique=True))
    columns = [
        draw(st.sampled_from([
            ATOMS, STRINGS, st.booleans() | st.sampled_from([0, 1]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
        ]))
        for _ in keys
    ]
    shuffle = draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        row = {key: draw(column) for key, column in zip(keys, columns)}
        if shuffle:
            row = dict(draw(st.permutations(list(row.items()))))
        out.append(row)
    return out


def typed(item):
    """*item* with every value's type spelled out, key order kept."""
    if type(item) is dict:
        return "object", [(key, typed(value)) for key, value in item.items()]
    if type(item) is list:
        return "array", [typed(value) for value in item]
    return type(item).__name__, repr(item)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.lists(ITEMS, max_size=6), rows()))
def test_load_returns_what_store_was_given(items):
    import tempfile

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = SegmentCache(cache_dir)
        assert store(cache, items)
        segment, status = cache.load_classified(*KEY)
    assert status == "hit"
    assert [dumps(item) for item in segment.items] == [dumps(item) for item in items]
    assert typed(segment.items) == typed(items)
    assert segment.sizes == [sizeof_item(item) for item in items]
