"""monitord: follow a growing BP log file into the archive in real time.

The real Pegasus deployment runs ``pegasus-monitord`` next to DAGMan,
tailing the workflow's log files and feeding the Stampede loader while
the workflow executes.  This module reproduces that component for any
engine that appends BP lines to a file (the Triana FileSink/
LogFileAppender does exactly that).

Two operating styles:

* :func:`follow_file` — synchronous generator-driven loop with a caller
  supplied ``poll`` (used by tests and single-threaded drivers);
* :class:`Monitord` — a background thread following the file until the
  workflow's terminal event (or an explicit stop), with progress counters.
"""
from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional, Union

from repro.loader.nl_load import parse_fast, positioned
from repro.loader.stampede_loader import StampedeLoader
from repro.model.entities import WorkflowStateRow
from repro.model.states import WorkflowState
from repro.netlogger.stream import bp_decoder, tail_raw

__all__ = ["follow_file", "Monitord"]

PathLike = Union[str, os.PathLike]


def follow_file(
    path: PathLike,
    loader: StampedeLoader,
    poll: Callable[[], bool],
    parse_mode: str = "fast",
) -> int:
    """Tail a BP file into the loader until ``poll()`` returns False.

    Returns the number of events loaded.  Commits on the live flush rule
    (:meth:`StampedeLoader.flush_if_due`) so queries see fresh data
    while lines keep arriving: a batch that is full, or whose oldest
    event is :data:`~repro.loader.stampede_loader.MAX_PENDING_AGE` old,
    commits mid-file; at EOF the file has run dry, and what is buffered
    commits once it has waited a few commit costs — checked before every
    ``poll()``, so a ``poll`` that sleeps longer than that is what bounds
    freshness.
    The loader's source position tracks the byte offset after each
    event's line, so a checkpointing loader records exactly how far into
    the file each committed batch reaches, and the tail starts where
    :meth:`~StampedeLoader.resume` says: past the prefix a previous run
    archived, or at the first byte.
    """
    loaded = 0

    def at_eof() -> bool:
        loader.flush_if_due(dry=True)
        return poll()

    lines = tail_raw(path, at_eof, start_offset=loader.resume())
    for event in positioned(loader, lines, bp_decoder(fast=parse_fast(parse_mode))):
        loader.process(event)
        loaded += 1
        loader.flush_if_due()
    loader.flush()
    return loaded


class Monitord:
    """Background follower: tail one workflow's log file into an archive.

    Stops automatically when the root workflow's WORKFLOW_TERMINATED state
    appears in the archive and the file has been drained, or when
    :meth:`stop` is called.  A checkpointing loader continues where its
    previous run committed (:func:`follow_file`).
    """

    def __init__(
        self,
        path: PathLike,
        loader: StampedeLoader,
        poll_interval: float = 0.02,
        expected_terminations: int = 1,
        parse_mode: str = "fast",
    ):
        self.path = path
        self.loader = loader
        self.poll_interval = poll_interval
        self.expected_terminations = expected_terminations
        self.parse_mode = parse_mode
        self.events_loaded = 0
        self._error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "Monitord":
        if self._thread is not None:
            raise RuntimeError("monitord already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the follower; re-raises whatever killed it."""
        if self._thread is not None:
            self._thread.join(timeout)
        if self._error is not None:
            raise self._error

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def __enter__(self) -> "Monitord":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
        self.join(timeout=10)

    # -- internals -------------------------------------------------------------
    def _terminated_count(self) -> int:
        return (
            self.loader.archive.query(WorkflowStateRow)
            .eq("state", WorkflowState.WORKFLOW_TERMINATED.value)
            .count()
        )

    def _poll(self) -> bool:
        """Keep tailing while not stopped and terminations are pending."""
        if self._stop.is_set():
            return False
        # follow_file commits what is due before asking; a termination
        # still buffered is seen one of the next polls
        if self._terminated_count() >= self.expected_terminations:
            return False
        time.sleep(self.poll_interval)
        return True

    def _run(self) -> None:
        try:
            # wait for the file to exist (the engine may not have started yet)
            while not os.path.exists(self.path):
                if self._stop.is_set():
                    return
                time.sleep(self.poll_interval)
            self.events_loaded = follow_file(
                self.path, self.loader, self._poll, parse_mode=self.parse_mode
            )
        except BaseException as exc:  # noqa: BLE001 - re-raised from join()
            self._error = exc
