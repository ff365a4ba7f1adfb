"""Streaming read layer for the dashboard (``repro.core.live``).

Dashboards are read-heavy and bursty: N browser tabs hitting
``/api/workflows`` every second must not cost N full computations per
second.  Two pieces keep the read path flat:

* :class:`ReadCache` — a single-flight read-through cache whose
  invalidation signal is the **rollup commit sequence**
  (:func:`repro.core.rollup.commit_seq`), not a TTL.  The sequence bumps
  exactly once per loader flush that changed rollup state, inside the
  same transaction as the data itself, so a cached payload is valid
  precisely until the sequence moves — never stale, never expiring
  while the archive is quiet.  Concurrent requests for the same key
  coalesce: one leader computes while the rest park on an event and
  receive the leader's result (the "N viewers cost one computation"
  contract).

* :class:`LiveFeed` — push-style change delivery over the same
  sequence.  One watcher thread per feed reads the commit sequence on a
  short tick and wakes every long-poll (``wait_for_change``) and SSE
  stream (``sse_events``) parked on it, so watching costs the same
  whether one viewer is attached or a hundred.  Frames carry monotonic
  per-workflow progress snapshots read from the O(1) rollup rows:
  a streaming viewer costs microseconds per emitted event regardless of
  archive size.

Archives without rollup coverage (loader ran with ``rollup=False`` and
no rebuild) report ``commit_seq == 0``; the cache then bypasses itself
— every request computes — because no safe invalidation signal exists.
:func:`bind_live` exports cache hit/miss totals and the rollup
commit-sequence / lag gauges through the PR 5 metrics registry.
"""
from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.rollup import commit_seq, last_commit_ts
from repro.model.entities import RollupWorkflowRow
from repro.obs.metrics import MetricsRegistry
from repro.schema.stampede import SUCCESS

__all__ = ["ReadCache", "LiveFeed", "bind_live"]

#: Seconds between the watcher's reads of the commit sequence.  A tick is
#: a thread wake-up and a cold point read, ~150 us of CPU: 100 a second
#: cost ~1.5 % of a core and add at most 10 ms to commit -> frame (at
#: 5 ms, one frame per commit made a 300 ev/s stream cost 1.75x the CPU).
WATCH_TICK = 0.01


class _Flight:
    """One in-progress computation other requests can wait on."""

    __slots__ = ("event", "version", "value", "error")

    def __init__(self, version: int):
        self.event = threading.Event()
        self.version = version
        self.value: Any = None
        self.error: Optional[BaseException] = None


class ReadCache:
    """Single-flight read-through cache keyed on the rollup commit seq.

    ``get(key, compute)`` returns the cached value when its recorded
    version equals the archive's current commit sequence; otherwise one
    caller (the *leader*) runs ``compute`` while concurrent callers for
    the same key wait and share the result.  A leader failure wakes the
    waiters, one of which retries as the new leader — an exception never
    poisons the key.

    Counters (mirrored to metrics by :func:`bind_live`):

    * ``hits`` — served from cache or coalesced onto a leader;
    * ``misses`` — computations actually run (including bypasses on
      archives without rollup coverage).
    """

    def __init__(self, archive: Any):
        self.archive = archive
        self._lock = threading.Lock()
        self._entries: Dict[Any, Tuple[int, Any]] = {}
        self._inflight: Dict[Any, _Flight] = {}
        self.hits = 0
        self.misses = 0

    def version(self) -> int:
        """Current invalidation version (0 = no rollup coverage)."""
        return commit_seq(self.archive)

    def _count_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def _count_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def get(self, key: Any, compute: Callable[[], Any]) -> Any:
        version = self.version()
        if version <= 0:
            # no commit sequence to invalidate on: caching would serve
            # stale data forever, so compute every time (an honest miss)
            self._count_miss()
            return compute()
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and entry[0] == version:
                    self.hits += 1
                    return entry[1]
                flight = self._inflight.get(key)
                if flight is None or flight.version != version:
                    flight = _Flight(version)
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.event.wait()
                if flight.error is None:
                    self._count_hit()
                    return flight.value
                continue  # leader failed; loop — this caller may lead next
            try:
                value = compute()
            except BaseException as exc:
                flight.error = exc
                with self._lock:
                    if self._inflight.get(key) is flight:
                        del self._inflight[key]
                flight.event.set()
                raise
            flight.value = value
            with self._lock:
                # stored under the version sampled *before* compute: if
                # the archive moved mid-compute the next reader sees a
                # higher sequence and recomputes, so a torn read can
                # never outlive one commit
                self._entries[key] = (version, value)
                self.misses += 1
                if self._inflight.get(key) is flight:
                    del self._inflight[key]
            flight.event.set()
            return value

    def invalidate(self) -> None:
        """Drop every cached entry (tests; not needed in operation)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
            }


def _wf_state(row: RollupWorkflowRow) -> str:
    if row.ended is None or row.status is None:
        return "running"
    return "success" if row.status == SUCCESS else "failed"


class LiveFeed:
    """Push-style change delivery over the rollup commit sequence.

    While anyone waits, one watcher thread reads :func:`commit_seq` every
    ``poll_interval`` — a cheap point read of ``rollup_meta`` — and wakes
    all waiters when it moves; they surface the change as long-poll
    returns or SSE frames.  The thread starts with the first waiter and
    ends within a tick of the last one leaving, or on :meth:`close`.
    Progress payloads come from the ``rollup_workflow`` rows, so every
    field a viewer watches (events, task/job counters, state) is
    **monotone** across frames of one stream: counters only grow,
    ``running`` only resolves forward into ``success``/``failed``.
    """

    def __init__(self, archive: Any, poll_interval: float = WATCH_TICK):
        self.archive = archive
        self.poll_interval = poll_interval
        #: streams served and events emitted (for bind_live)
        self.streams_opened = 0
        self.events_emitted = 0
        self._lock = threading.Lock()
        # guards everything below; waiters park on it, the watcher notifies
        self._changed = threading.Condition()
        #: callers currently parked in :meth:`wait_for_change`
        self.waiters = 0
        self._watcher: Optional[threading.Thread] = None
        #: the watcher's latest read (None until its first)
        self._seen: Optional[int] = None
        self._error: Optional[BaseException] = None  # what ended the watcher
        self._closed = False

    def version(self) -> int:
        return commit_seq(self.archive)

    def wait_for_change(self, since: int, timeout: float) -> int:
        """Block until the commit sequence differs from ``since`` or
        ``timeout`` elapses; returns the current sequence either way.

        A failed read of the sequence by the watcher is raised here, in
        every caller parked at the time."""
        deadline = time.monotonic() + max(0.0, timeout)
        while True:
            with self._changed:
                seen = self._park(since, deadline)
            if seen is not None and seen >= since:
                return seen  # it moved on; or did not, by the deadline
            # the watcher has nothing to say (closed, or out of time before
            # its first read) or has not read as far as ``since``: that is
            # from a snapshot newer than the last tick, or not a sequence
            # of this archive at all.  Look now.
            current = self.version()
            if seen is None or current != since:
                return current
            with self._changed:
                if self._seen is not None and self._seen < current:
                    self._seen = current

    def _park(self, since: int, deadline: float) -> Optional[int]:
        """Holding ``_changed``: wait while the watcher reads ``since``;
        returns what it read last."""
        if self._closed:
            return None
        self.waiters += 1
        try:
            if self._watcher is None:
                self._error = None
                self._seen = None
                self._watcher = threading.Thread(
                    target=self._watch, name="livefeed-watch", daemon=True
                )
                self._watcher.start()
            while (self._seen is None or self._seen == since) and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
                if self._error is not None:
                    raise self._error
            return self._seen
        finally:
            self.waiters -= 1

    def _watch(self) -> None:
        while True:
            try:
                current = self.version()
            except Exception as exc:  # noqa: BLE001 - raised in the waiters
                with self._changed:
                    self._error = exc
                    self._watcher = None
                    self._changed.notify_all()
                return
            with self._changed:
                if self.waiters == 0 or self._closed:
                    self._watcher = None
                    return
                if current != self._seen:
                    self._seen = current
                    self._changed.notify_all()
            time.sleep(self.poll_interval)

    def close(self) -> None:
        """Release every waiter and end the watcher; later waits return
        at once."""
        with self._changed:
            self._closed = True
            self._changed.notify_all()
            watcher = self._watcher
        if watcher is not None:
            watcher.join(timeout=5)

    # -- progress snapshots --------------------------------------------------
    def _progress_row(self, row: RollupWorkflowRow) -> Dict[str, Any]:
        return {
            "wf_id": row.wf_id,
            "wf_uuid": row.wf_uuid,
            "state": _wf_state(row),
            "events": row.events,
            "tasks_total": row.tasks_total,
            "tasks_succeeded": row.tasks_succeeded,
            "tasks_failed": row.tasks_failed,
            "jobs_total": row.jobs_total,
            "jobs_succeeded": row.jobs_succeeded,
            "jobs_failed": row.jobs_failed,
            "invocations": row.invocations,
            "restarts": row.restarts,
            "updated_seq": row.updated_seq,
        }

    def snapshot(self, wf_id: Optional[int] = None) -> Dict[str, Any]:
        """Current progress: one workflow or the whole archive.

        Raises ``KeyError`` when ``wf_id`` names no workflow (the
        dashboard's 404 contract).  A workflow that exists but has no
        rollup row (rollups disabled) degrades to a state-only entry.
        """
        seq = self.version()
        if wf_id is None:
            rows = self.archive.query(RollupWorkflowRow).order_by("wf_id").all()
            return {
                "commit_seq": seq,
                "workflows": [self._progress_row(r) for r in rows],
            }
        row = self.archive.query(RollupWorkflowRow).eq("wf_id", wf_id).first()
        if row is not None:
            payload = self._progress_row(row)
        else:
            from repro.query.api import StampedeQuery

            query = StampedeQuery(self.archive)
            if query.workflow(wf_id) is None:
                raise KeyError(f"no workflow with wf_id={wf_id}")
            status = query.workflow_status(wf_id)
            payload = {
                "wf_id": wf_id,
                "state": (
                    "running"
                    if status is None
                    else ("success" if status == SUCCESS else "failed")
                ),
            }
        payload["commit_seq"] = seq
        return payload

    # -- server-sent events --------------------------------------------------
    def sse_events(
        self,
        wf_id: Optional[int] = None,
        limit: Optional[int] = None,
        timeout: float = 30.0,
    ) -> Iterator[bytes]:
        """Yield SSE frames: an immediate snapshot, then one frame per
        commit-sequence change.

        ``limit`` caps emitted ``progress`` events (the stream closes
        after that many — connect with ``?limit=N`` to make a client
        testable); ``timeout`` bounds the wait for *each* change — when
        it elapses with no change the stream emits a final ``idle``
        frame and closes, so an abandoned viewer never pins a server
        thread forever.  A stream that fails after its first frame (the
        watched workflow was tiered away, the archive cannot be read)
        ends with one ``error`` frame carrying the last sequence it
        showed; a failure before the first frame is raised, which the
        dashboard turns into a 404/400.
        """
        with self._lock:
            self.streams_opened += 1
        emitted = 0
        # connect mid-load: the first frame is the current state, so a
        # late viewer starts from truth rather than from zero
        snap = self.snapshot(wf_id)
        yield _sse_frame("progress", snap)
        emitted += 1
        with self._lock:
            self.events_emitted += 1
        seq = snap["commit_seq"]
        while limit is None or emitted < limit:
            try:
                current = self.wait_for_change(seq, timeout)
                if current != seq:
                    snap = self.snapshot(wf_id)
            except Exception as exc:  # noqa: BLE001 - reported to the viewer
                yield _sse_frame(
                    "error",
                    {"error": f"{type(exc).__name__}: {exc}", "commit_seq": seq},
                )
                return
            if current == seq:
                yield _sse_frame("idle", {"commit_seq": seq})
                return
            # the snapshot may already be ahead of the sequence that
            # woke us; adopt its sequence so we never emit twice for one
            # commit
            seq = max(current, snap["commit_seq"])
            yield _sse_frame("progress", snap)
            emitted += 1
            with self._lock:
                self.events_emitted += 1


def _sse_frame(event: str, payload: Dict[str, Any]) -> bytes:
    data = json.dumps(payload, separators=(",", ":"))
    seq = payload.get("commit_seq")
    id_line = f"id: {seq}\n" if seq is not None else ""
    return f"event: {event}\n{id_line}data: {data}\n\n".encode()


def bind_live(
    registry: MetricsRegistry,
    cache: Optional[ReadCache] = None,
    feed: Optional[LiveFeed] = None,
    archive: Any = None,
) -> None:
    """Export the streaming read layer through the metrics registry.

    Scrape-time collectors (zero hot-path cost, same convention as
    :mod:`repro.obs.instrument`):

    * ``stampede_dashboard_cache_hits_total`` / ``_misses_total`` —
      mirrored from the :class:`ReadCache` tallies;
    * ``stampede_dashboard_streams_total`` / ``_stream_events_total`` —
      SSE streams opened and frames emitted;
    * ``stampede_dashboard_stream_waiters`` — SSE streams and long-polls
      parked on the feed's watcher right now;
    * ``stampede_rollup_commit_seq`` — the archive's current rollup
      commit sequence (monotone; flat while idle);
    * ``stampede_rollup_lag_seconds`` — wall seconds since the last
      rollup commit (0 when the archive has no rollups yet).
    """
    target = archive
    if target is None and cache is not None:
        target = cache.archive
    if target is None and feed is not None:
        target = feed.archive

    def collect(reg: MetricsRegistry) -> None:
        if cache is not None:
            stats = cache.stats()
            reg.counter(
                "stampede_dashboard_cache_hits_total",
                "Dashboard reads served from the commit-seq cache "
                "(including coalesced concurrent requests).",
            ).set_total(stats["hits"])
            reg.counter(
                "stampede_dashboard_cache_misses_total",
                "Dashboard reads that ran the underlying computation.",
            ).set_total(stats["misses"])
        if feed is not None:
            reg.counter(
                "stampede_dashboard_streams_total",
                "SSE progress streams opened.",
            ).set_total(feed.streams_opened)
            reg.counter(
                "stampede_dashboard_stream_events_total",
                "SSE progress frames emitted across all streams.",
            ).set_total(feed.events_emitted)
            reg.gauge(
                "stampede_dashboard_stream_waiters",
                "SSE streams and long-polls waiting for the next commit.",
            ).set(feed.waiters)
        if target is not None:
            reg.gauge(
                "stampede_rollup_commit_seq",
                "Rollup commit sequence (bumps once per flush that "
                "changed rollup state; cache invalidation signal).",
            ).set(commit_seq(target))
            ts = last_commit_ts(target)
            lag = max(0.0, time.time() - ts) if ts else 0.0
            reg.gauge(
                "stampede_rollup_lag_seconds",
                "Wall seconds since the last rollup commit.",
            ).set(lag)

    registry.register_collector(collect)
