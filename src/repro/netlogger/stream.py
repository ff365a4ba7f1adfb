"""Streaming readers and writers for BP log files.

``nl_load`` reads its input either from a file or from an AMQP queue; this
module supplies the file side: line-oriented readers that tolerate blank
lines and comments, an error-collecting mode for partially corrupt logs,
and an appending writer that flushes per record (the "real-time" property
the paper leans on).
"""
from __future__ import annotations

import io
import os
from typing import Callable, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from repro.netlogger.bp import BPParseError
from repro.netlogger.events import NLEvent

__all__ = [
    "BPReader",
    "BPWriter",
    "read_events",
    "write_events",
    "read_events_with_offsets",
    "read_raw",
    "tail_events",
    "tail_raw",
    "bp_decoder",
    "PARSE_ERRORS",
]

PathOrFile = Union[str, os.PathLike, TextIO]


#: every exception a malformed line can raise out of ``NLEvent.from_bp``
PARSE_ERRORS = (BPParseError, ValueError, KeyError, TypeError)

OnError = Union[str, Callable[[int, str, Exception], None]]
Decode = Callable[[str, int], Optional[NLEvent]]


def bp_decoder(on_error: OnError = "raise", fast: bool = True) -> Decode:
    """Build the line -> event step every reader here shares.

    The returned ``decode(line, position)`` gives None for blank lines,
    ``#`` comments and — unless ``on_error='raise'`` — malformed lines:

      * ``'raise'``  — propagate the parse error (default);
      * ``'skip'``   — drop the line;
      * callable     — invoked with ``(position, line, exception)``, then
        the line is dropped.

    ``position`` is whatever the caller counts lines by (a byte offset
    for the file drivers, a line number for :class:`BPReader`).
    ``fast=False`` selects the reference char-by-char BP scanner.
    """

    from_bp = NLEvent.from_bp  # bound once: this runs per line

    def decode(line: str, position: int) -> Optional[NLEvent]:
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            return None
        try:
            return from_bp(stripped, fast)
        except PARSE_ERRORS as exc:
            if on_error == "raise":
                raise
            if callable(on_error):
                on_error(position, stripped, exc)
            return None

    return decode


class BPReader:
    """Iterate NLEvents from a BP log stream, counting lines from 1.

    ``on_error`` is the :func:`bp_decoder` policy with the line number
    as position; lines dropped by ``'skip'`` or a callable are also
    recorded in :attr:`errors`.
    """

    def __init__(self, source: PathOrFile, on_error: OnError = "raise"):
        self._source = source
        self._on_error = on_error
        self.errors: List[Tuple[int, str, Exception]] = []

    def _record(self, lineno: int, line: str, exc: Exception) -> None:
        self.errors.append((lineno, line, exc))
        if callable(self._on_error):
            self._on_error(lineno, line, exc)

    def __iter__(self) -> Iterator[NLEvent]:
        decode = bp_decoder("raise" if self._on_error == "raise" else self._record)
        for lineno, (line, _offset) in enumerate(read_raw(self._source), start=1):
            event = decode(line, lineno)
            if event is not None:
                yield event


class BPWriter:
    """Append NLEvents to a BP log file, flushing per event."""

    def __init__(self, target: PathOrFile, flush_every: int = 1):
        if isinstance(target, (str, os.PathLike)):
            self._fh: TextIO = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._flush_every = max(1, flush_every)
        self._pending = 0
        self.events_written = 0

    def write(self, event: NLEvent) -> None:
        self._fh.write(event.to_bp() + "\n")
        self.events_written += 1
        self._pending += 1
        if self._pending >= self._flush_every:
            self._fh.flush()
            self._pending = 0

    def write_all(self, events: Iterable[NLEvent]) -> int:
        count = 0
        for event in events:
            self.write(event)
            count += 1
        return count

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "BPWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_events(source: PathOrFile, on_error: str = "raise") -> List[NLEvent]:
    """Read an entire BP log into memory."""
    return list(BPReader(source, on_error=on_error))


def write_events(target: PathOrFile, events: Iterable[NLEvent]) -> int:
    """Write events to a BP log; returns the count written."""
    with BPWriter(target, flush_every=1000) as writer:
        return writer.write_all(events)


def read_raw(source: PathOrFile, start_offset: int = 0) -> Iterator[Tuple[str, int]]:
    """Yield ``(line, byte_offset_after_it)`` for every line of a BP log.

    A path is read in binary from ``start_offset``, so the offsets are
    what a checkpointing loader persists: seeking to a stored offset
    resumes exactly after the last durably-archived event.  A file
    object is read from where it stands (through its byte buffer when it
    has one); for a pure text stream the position counts characters — a
    monotone marker only, which is why checkpoints need a path.
    """
    owned = open(source, "rb") if isinstance(source, (str, os.PathLike)) else None
    fh = owned if owned is not None else getattr(source, "buffer", source)
    try:
        if start_offset:
            fh.seek(start_offset)
        offset = start_offset
        if isinstance(fh, io.TextIOBase):
            for line in fh:
                offset += len(line)
                yield line, offset
        else:
            for raw in fh:
                offset += len(raw)
                yield raw.decode(), offset
    finally:
        if owned is not None:
            owned.close()


def read_events_with_offsets(
    source: PathOrFile,
    start_offset: int = 0,
    on_error: OnError = "raise",
) -> Iterator[Tuple[NLEvent, int]]:
    """Yield ``(event, byte_offset_after_its_line)`` pairs from a BP log."""
    return _decoded(read_raw(source, start_offset), bp_decoder(on_error))


def _decoded(lines: Iterable[Tuple[str, int]], decode: Decode):
    for line, offset in lines:
        event = decode(line, offset)
        if event is not None:
            yield event, offset


def tail_events(
    path: Union[str, os.PathLike],
    poll: Callable[[], bool],
    start_at_end: bool = False,
) -> Iterator[NLEvent]:
    """Follow a growing BP log file, ``tail -f`` style.

    ``poll()`` is consulted whenever the reader reaches EOF: returning False
    ends the iteration (e.g. when the producing workflow has finished).
    Partial last lines are retained until their newline arrives.
    """
    start = os.path.getsize(path) if start_at_end else 0
    for event, _offset in _decoded(tail_raw(path, poll, start), bp_decoder()):
        yield event


def tail_raw(
    path: Union[str, os.PathLike],
    poll: Callable[[], bool],
    start_offset: int = 0,
) -> Iterator[Tuple[str, int]]:
    """:func:`read_raw` over a growing file: same pairs, but at EOF
    ``poll()`` decides whether to keep waiting for more.

    Partial last lines are retained until their newline arrives; on
    shutdown a non-empty partial line is emitted.
    """
    with open(path, "rb") as fh:
        fh.seek(start_offset)
        buffer = b""
        offset = start_offset
        while True:
            chunk = fh.readline()
            if chunk:
                buffer += chunk
                if buffer.endswith(b"\n"):
                    offset += len(buffer)
                    yield buffer.decode("utf-8"), offset
                    buffer = b""
                continue
            if not poll():
                if buffer.strip():
                    yield buffer.decode("utf-8"), offset + len(buffer)
                return
