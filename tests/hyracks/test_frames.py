"""Unit tests for the frame count an exchange charges."""

from repro.hyracks.tuples import (
    DEFAULT_FRAME_BYTES,
    count_frames,
    sizeof_tuple,
    sizeof_tuples,
)


def tuples_of_size(count, payload="x" * 100):
    return [{"v": [payload + str(i)]} for i in range(count)]


class TestFrameWriter:
    """How many frames a tuple stream of given sizes is written into."""

    def test_packs_multiple_tuples_per_frame(self):
        sizes = sizeof_tuples(tuples_of_size(10))
        assert 1 <= count_frames(sizes, frame_bytes=4096) < 10

    def test_respects_capacity(self):
        # No 1 KiB frame holds more of these tuples than fit in it.
        sizes = sizeof_tuples(tuples_of_size(50))
        per_frame = 1024 // max(sizes)
        assert count_frames(sizes, frame_bytes=1024) >= -(-50 // per_frame)

    def test_greedy_packing(self):
        assert count_frames([60, 60, 60], frame_bytes=128) == 2
        assert count_frames([64, 64, 64, 64], frame_bytes=128) == 2
        assert count_frames([100, 30, 100], frame_bytes=128) == 3

    def test_big_object_path(self):
        # An oversized tuple gets a frame of its own; the open frame is
        # flushed first and the next tuple opens a new one.
        assert count_frames([sizeof_tuple({"v": ["y" * 1000]})], 128) == 1
        assert count_frames([50, 1000, 50], frame_bytes=128) == 3

    def test_counters(self):
        sizes = sizeof_tuples(tuples_of_size(5))
        assert sizes == [sizeof_tuple(t) for t in tuples_of_size(5)]
        assert count_frames(sizes, frame_bytes=1 << 20) == 1

    def test_flush_empty_is_noop(self):
        assert count_frames([]) == 0

    def test_default_frame_is_32_kib(self):
        assert DEFAULT_FRAME_BYTES == 32 * 1024
        assert count_frames([DEFAULT_FRAME_BYTES, 1]) == 2


class TestFrameStream:
    def test_empty_input(self):
        assert count_frames(iter(())) == 0

    def test_counts_a_one_shot_stream(self):
        sizes = sizeof_tuples(tuples_of_size(123))
        assert count_frames(iter(sizes), 2048) == count_frames(sizes, 2048)
