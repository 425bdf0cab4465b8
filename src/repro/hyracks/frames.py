"""Fixed-size frames — Hyracks' unit of data movement.

Hyracks "processes data in partitions of contiguous bytes, moving data in
fixed-sized frames that contain physical records" (Section 3.1).  The
pipelining rules matter precisely because a tuple must fit in a frame:
Section 4.2 notes that the merged DATASCAN "satisfies Hyracks' dataflow
frame size restriction".

This module is the byte-budgeted frame of an exchange boundary: tuples
are appended to a :class:`FrameWriter`; each filled :class:`Frame` is
delivered through the writer's callback.  A tuple larger than a frame
raises :class:`FrameOverflowError` unless the writer was built with
``allow_big_objects`` (VXQuery-style variable-size frames for oversized
records, at a tracked cost).

Frames are not only here.  DATASCAN moves rows in frames too, bounded by
row count rather than bytes (``_FRAME_ROWS`` in
:mod:`repro.hyracks.operators`): a scan is cut into lists of rows so
that each list is sized in one call of
:func:`~repro.jsonlib.items.sizeof_rows`, and the exchange sizes what it
ships a frame at a time with :func:`~repro.hyracks.tuples.sizeof_tuples`
and hands the sizes to :meth:`FrameWriter.write`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.errors import FrameOverflowError
from repro.hyracks.tuples import Tuple, sizeof_tuple

DEFAULT_FRAME_BYTES = 32 * 1024


@dataclass(slots=True)
class Frame:
    """One frame: a batch of tuples within a byte budget."""

    capacity: int
    tuples: list[Tuple] = field(default_factory=list)
    used: int = 0

    def fits(self, n_bytes: int) -> bool:
        return self.used + n_bytes <= self.capacity

    def append(self, tup: Tuple, n_bytes: int) -> None:
        self.tuples.append(tup)
        self.used += n_bytes

    def __len__(self) -> int:
        return len(self.tuples)


class FrameWriter:
    """Packs a tuple stream into fixed-size frames.

    Parameters
    ----------
    frame_bytes:
        Frame capacity (default 32 KiB).
    allow_big_objects:
        When True, a tuple bigger than a frame gets a dedicated oversized
        frame instead of raising; ``big_object_count`` records how often
        that happened.
    on_frame:
        Callback invoked with each completed frame.
    """

    def __init__(
        self,
        frame_bytes: int = DEFAULT_FRAME_BYTES,
        allow_big_objects: bool = False,
        on_frame: Callable[[Frame], None] | None = None,
    ):
        self.frame_bytes = frame_bytes
        self.allow_big_objects = allow_big_objects
        self.on_frame = on_frame
        self.frames_emitted = 0
        self.tuples_written = 0
        self.bytes_written = 0
        self.big_object_count = 0
        self._current = Frame(frame_bytes)

    def write(self, tup: Tuple, n_bytes: int | None = None) -> None:
        """Append one tuple, emitting frames through the callback.

        *n_bytes* is the tuple's size when the caller already has it:
        the exchange sizes a whole frame of tuples at once
        (``sizeof_tuples``).
        """
        if n_bytes is None:
            n_bytes = sizeof_tuple(tup)
        self.tuples_written += 1
        self.bytes_written += n_bytes
        if n_bytes > self.frame_bytes:
            if not self.allow_big_objects:
                raise FrameOverflowError(n_bytes, self.frame_bytes)
            self.big_object_count += 1
            self.flush()
            oversized = Frame(n_bytes)
            oversized.append(tup, n_bytes)
            self._emit(oversized)
            return
        if not self._current.fits(n_bytes):
            self.flush()
        self._current.append(tup, n_bytes)

    def flush(self) -> None:
        """Emit the partially-filled current frame, if any."""
        if self._current.tuples:
            self._emit(self._current)
            self._current = Frame(self.frame_bytes)

    def _emit(self, frame: Frame) -> None:
        self.frames_emitted += 1
        if self.on_frame is not None:
            self.on_frame(frame)


def frame_stream(
    tuples: Iterable[Tuple],
    frame_bytes: int = DEFAULT_FRAME_BYTES,
    allow_big_objects: bool = True,
) -> Iterator[Frame]:
    """Pack a tuple stream into a stream of frames, lazily."""
    pending: list[Frame] = []
    writer = FrameWriter(
        frame_bytes, allow_big_objects=allow_big_objects, on_frame=pending.append
    )
    for tup in tuples:
        writer.write(tup)
        while pending:
            yield pending.pop(0)
    writer.flush()
    while pending:
        yield pending.pop(0)


def unframe(frames: Iterable[Frame]) -> Iterator[Tuple]:
    """Flatten a frame stream back into tuples."""
    for frame in frames:
        yield from frame.tuples
