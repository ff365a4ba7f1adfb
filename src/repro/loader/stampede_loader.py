"""stampede_loader: normalize Stampede events into the relational archive.

This is the module ``nl_load`` dispatches to (paper §IV-E).  It consumes
:class:`~repro.netlogger.events.NLEvent` objects, resolves identifiers
against per-run caches, batches inserts ("implemented to improve the
performance of Pegasus workflows logging by batching similar inserts
together", §V-D), and writes rows of the Fig. 3 schema.

Event-ordering contract (the documented limitation from §V-D): all static
events — ``stampede.task.info``, ``stampede.job.info``, the edges and the
task→job mapping — must be seen for a workflow before execution events
referencing them.  In ``strict`` mode a violation raises
:class:`LoaderError`; in tolerant mode a placeholder row is synthesized.

Write path: every handler only *buffers* work — row inserts and the
coalesced column updates (task→job maps, job-instance finalization, host
attachment) — as an ordered journal.  :meth:`StampedeLoader.flush`
replays the journal inside one backend transaction, so a batch is one
commit (one fsync on the file backend) instead of a commit per
statement, and a crash mid-batch leaves no partial rows behind.
Transient backend errors (e.g. a locked sqlite file) are retried with
exponential backoff before the batch is abandoned.
"""
from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.archive.store import StampedeArchive
from repro.loader.checkpoint import CheckpointManager
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    ObsEventRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.model.states import JobState, WorkflowState
from repro.netlogger.events import NLEvent
from repro.schema.stampede import STAMPEDE_SCHEMA, Events, SUCCESS
from repro.util.retry import CircuitBreaker, RetryPolicy
from repro.util.timeutil import parse_ts
from repro.schema.validator import EventValidator

__all__ = [
    "LoaderError",
    "LoaderStats",
    "StampedeLoader",
    "COMMIT_COST_MULTIPLE",
    "MAX_PENDING_AGE",
    "OBS_EVENT_PREFIX",
]


class LoaderError(ValueError):
    """An event could not be normalized into the archive."""


#: Event-name prefix of the monitor's own telemetry (``repro.obs``); the
#: loader archives these generically so the monitoring pipeline can load
#: its self-describing events without a per-name schema handler.
OBS_EVENT_PREFIX = "stampede.obs."

#: Cap on retained per-flush latency samples (long-running monitord).
_MAX_LATENCY_SAMPLES = 8192

#: The longest an event waits in a live loader before its commit starts
#: (seconds): the cap of the live flush rule, and what a backlogged
#: stream runs on; also ``load_from_bus``'s default idle tick.
MAX_PENDING_AGE = 0.05

#: A source that has run dry is committed once its oldest buffered event
#: has waited this many commit costs: commits made on that rule then take
#: at most 1 / (1 + 9) = 10 % of the loader's time, whatever a commit costs.
COMMIT_COST_MULTIPLE = 9


@dataclass
class LoaderStats:
    events_processed: int = 0
    events_by_type: Dict[str, int] = field(default_factory=dict)
    rows_inserted: int = 0
    rows_updated: int = 0
    flushes: int = 0
    validation_failures: int = 0
    wall_seconds: float = 0.0
    retries: int = 0
    checkpoints_written: int = 0
    resumes: int = 0
    flush_seconds: List[float] = field(default_factory=list)
    queue_depth_max: int = 0
    queue_depth_sum: int = 0
    queue_depth_samples: int = 0
    # resilience counters (bus consumption path)
    redelivered_events: int = 0  # deliveries flagged redelivered (at-least-once)
    duplicates_skipped: int = 0  # resequencer-deduped repeat deliveries
    reconnects: int = 0  # consumer connection recoveries
    dlq_events: int = 0  # poison events quarantined instead of fatal
    spilled_events: int = 0  # events parked on disk while the archive was down
    spill_drains: int = 0  # successful spill-buffer drains back into the archive
    archive_outages: int = 0  # times the whole retry ladder was exhausted
    # guards the latency window and the multi-field snapshot reads: the
    # loader thread mutates these fields while metrics collectors (and a
    # sharded load's reporting) read them from other threads
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def events_per_second(self) -> float:
        # wall_seconds may be zero/unset mid-stream; report 0 rather than
        # dividing by zero or inventing an infinite rate.  Both fields are
        # read under the lock so the ratio never mixes two batches.
        with self.lock:
            if not self.wall_seconds:
                return 0.0
            return self.events_processed / self.wall_seconds

    @property
    def queue_depth_avg(self) -> float:
        with self.lock:
            if not self.queue_depth_samples:
                return 0.0
            return self.queue_depth_sum / self.queue_depth_samples

    def record_flush_latency(self, seconds: float) -> None:
        with self.lock:
            self.flush_seconds.append(seconds)
            if len(self.flush_seconds) > _MAX_LATENCY_SAMPLES:
                # keep the newest half; percentiles stay representative
                del self.flush_seconds[: len(self.flush_seconds) // 2]

    def record_queue_depth(self, depth: int) -> None:
        with self.lock:
            self.queue_depth_samples += 1
            self.queue_depth_sum += depth
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth

    @staticmethod
    def _percentiles(samples: List[float]) -> Dict[str, float]:
        if not samples:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        data = sorted(samples)
        n = len(data)

        def pct(q: float) -> float:
            return data[min(n - 1, max(0, int(q * n + 0.5) - 1))]

        return {"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99)}

    def latency_percentiles(self) -> Dict[str, float]:
        """Per-flush commit latency percentiles, in seconds.

        Computed over a locked copy of the sample window, so a reader
        on another thread never sees the list mid-append (or mid-halving).
        """
        with self.lock:
            samples = list(self.flush_seconds)
        return self._percentiles(samples)

    def snapshot(self) -> Dict[str, Any]:
        """One atomic, JSON-friendly view of every counter + percentiles.

        Readers (``nl-load -v``, metrics collectors, dashboards) must use
        this instead of reading fields piecemeal: a half-updated
        percentile window or a rows/flushes pair from two different
        batches would otherwise be observable mid-flush.
        """
        with self.lock:
            samples = list(self.flush_seconds)
            snap: Dict[str, Any] = {
                "events_processed": self.events_processed,
                "events_by_type": dict(self.events_by_type),
                "rows_inserted": self.rows_inserted,
                "rows_updated": self.rows_updated,
                "flushes": self.flushes,
                "validation_failures": self.validation_failures,
                "wall_seconds": self.wall_seconds,
                "retries": self.retries,
                "checkpoints_written": self.checkpoints_written,
                "resumes": self.resumes,
                "queue_depth_max": self.queue_depth_max,
                "queue_depth_sum": self.queue_depth_sum,
                "queue_depth_samples": self.queue_depth_samples,
                "redelivered_events": self.redelivered_events,
                "duplicates_skipped": self.duplicates_skipped,
                "reconnects": self.reconnects,
                "dlq_events": self.dlq_events,
                "spilled_events": self.spilled_events,
                "spill_drains": self.spill_drains,
                "archive_outages": self.archive_outages,
            }
        snap["queue_depth_avg"] = (
            snap["queue_depth_sum"] / snap["queue_depth_samples"]
            if snap["queue_depth_samples"]
            else 0.0
        )
        snap["events_per_second"] = (
            snap["events_processed"] / snap["wall_seconds"]
            if snap["wall_seconds"]
            else 0.0
        )
        snap["latency_percentiles"] = self._percentiles(samples)
        return snap


class _WorkflowCache:
    """Identifier caches for one workflow run (one xwf.id)."""

    __slots__ = (
        "wf_id",
        "task_ids",
        "job_ids",
        "job_instances",
        "host_ids",
        "jobstate_seq",
        "static_done",
    )

    def __init__(self, wf_id: int):
        self.wf_id = wf_id
        self.task_ids: Dict[str, int] = {}  # abs_task_id -> task_id
        self.job_ids: Dict[str, int] = {}  # exec_job_id -> job_id
        # (exec_job_id, submit_seq) -> job_instance_id
        self.job_instances: Dict[Tuple[str, int], int] = {}
        self.host_ids: Dict[Tuple[str, str], int] = {}  # (site, hostname) -> host_id
        self.jobstate_seq: Dict[int, int] = {}  # job_instance_id -> next seq
        self.static_done = False

    def to_state(self) -> Dict[str, Any]:
        """JSON-serializable snapshot (tuple keys flattened to lists)."""
        return {
            "wf_id": self.wf_id,
            "task_ids": self.task_ids,
            "job_ids": self.job_ids,
            "job_instances": [
                [job, seq, ji] for (job, seq), ji in self.job_instances.items()
            ],
            "host_ids": [
                [site, host, hid] for (site, host), hid in self.host_ids.items()
            ],
            "jobstate_seq": {str(k): v for k, v in self.jobstate_seq.items()},
            "static_done": self.static_done,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "_WorkflowCache":
        cache = cls(int(state["wf_id"]))
        cache.task_ids = {str(k): int(v) for k, v in state["task_ids"].items()}
        cache.job_ids = {str(k): int(v) for k, v in state["job_ids"].items()}
        cache.job_instances = {
            (str(job), int(seq)): int(ji) for job, seq, ji in state["job_instances"]
        }
        cache.host_ids = {
            (str(site), str(host)): int(hid) for site, host, hid in state["host_ids"]
        }
        cache.jobstate_seq = {
            int(k): int(v) for k, v in state["jobstate_seq"].items()
        }
        cache.static_done = bool(state["static_done"])
        return cache


class StampedeLoader:
    """The event-to-archive normalizer, with batched inserts."""

    def __init__(
        self,
        archive: StampedeArchive,
        batch_size: int = 500,
        strict: bool = True,
        validate: bool = False,
        checkpoint: Optional[CheckpointManager] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[Any] = None,
        rollup: bool = True,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.archive = archive
        self.batch_size = batch_size
        self.strict = strict
        self.checkpoint = checkpoint
        # default ladder: 4 retries at 50, 100, 200, 400 ms, no jitter
        self.retry_policy = retry_policy or RetryPolicy(max_retries=4, base_delay=0.05)
        #: optional circuit breaker shared with other archive writers
        self.breaker = breaker
        self.stats = LoaderStats()
        #: wall-clock time of the last checkpoint commit (for lag gauges)
        self.last_checkpoint_time: Optional[float] = None
        # flush-latency histogram when a MetricsRegistry is attached
        # (repro.obs); everything counter-shaped is exported by the
        # scrape-time collector in repro.obs.instrument instead, so the
        # per-event path carries no instrumentation cost.
        self.metrics = metrics
        self._flush_hist = (
            metrics.histogram(
                "stampede_loader_flush_seconds",
                "Batch flush commit latency (journal replay + commit).",
            )
            if metrics is not None
            else None
        )
        #: source position (file byte offset / bus delivery tag) of the
        #: last event handed to :meth:`process`; persisted on flush.
        self.position: int = 0
        #: called after every successful flush commit (bus path acks here)
        self.on_flush: Optional[Callable[["StampedeLoader"], None]] = None
        # monotonic time the open batch started waiting, stamped by
        # :meth:`flush_if_due` and cleared by the commit; None when
        # nothing waits
        self._pending_since: Optional[float] = None
        #: running mean of what a commit costs (seconds, the ``elapsed``
        #: of recent flushes); until one has been measured a commit is
        #: taken to cost so much that the dry deadline is the cap
        self.commit_cost: float = MAX_PENDING_AGE / COMMIT_COST_MULTIPLE
        #: optional provider of per-publisher "next expected sequence"
        #: positions, persisted with each checkpoint (the bus path sets
        #: it so resequencer dedupe state survives a kill/resume — an
        #: exactly-once guarantee needs its dedupe floor to be as
        #: durable as the rows it protects)
        self.reseq_state: Optional[Callable[[], Dict[str, int]]] = None
        #: per-publisher positions restored by :meth:`resume`
        self.resumed_reseq: Dict[str, int] = {}
        # incremental rollup maintenance (repro.core.rollup): observes the
        # journal as it is buffered and applies its deltas inside the same
        # flush transaction, so rollup rows share the batch's exactly-once
        # boundary.  Off (None) only for benchmarking the bare write path.
        if rollup:
            from repro.core.rollup import RollupMaintainer

            self.rollup: Optional[RollupMaintainer] = RollupMaintainer(archive)
        else:
            self.rollup = None
        self._validator = (
            EventValidator(STAMPEDE_SCHEMA, allow_unknown_attrs=True)
            if validate
            else None
        )
        self._workflows: Dict[str, _WorkflowCache] = {}  # xwf.id -> cache
        # ordered journal of pending ops: ("insert", entity) or
        # ("update", entity_type, values, where) — replayed in order so an
        # update always lands after the insert it targets.
        self._pending: List[Tuple[Any, ...]] = []
        # subwf maps that arrived before their job_instance existed
        self._deferred_subwf: List[Tuple[str, str, int, int]] = []
        self._handlers = {
            Events.WF_PLAN: self._on_wf_plan,
            Events.STATIC_START: self._on_static_start,
            Events.STATIC_END: self._on_static_end,
            Events.XWF_START: self._on_xwf_start,
            Events.XWF_END: self._on_xwf_end,
            Events.TASK_INFO: self._on_task_info,
            Events.TASK_EDGE: self._on_task_edge,
            Events.JOB_INFO: self._on_job_info,
            Events.JOB_EDGE: self._on_job_edge,
            Events.MAP_TASK_JOB: self._on_map_task_job,
            Events.MAP_SUBWF_JOB: self._on_map_subwf_job,
            Events.JOB_INST_PRE_START: self._jobstate(JobState.PRE_SCRIPT_STARTED),
            Events.JOB_INST_PRE_TERM: self._jobstate(JobState.PRE_SCRIPT_TERMINATED),
            Events.JOB_INST_PRE_END: self._on_pre_end,
            Events.JOB_INST_SUBMIT_START: self._on_submit_start,
            Events.JOB_INST_SUBMIT_END: self._on_submit_end,
            Events.JOB_INST_HELD_START: self._jobstate(JobState.JOB_HELD),
            Events.JOB_INST_HELD_END: self._jobstate(JobState.JOB_RELEASED),
            Events.JOB_INST_MAIN_START: self._jobstate(JobState.EXECUTE),
            Events.JOB_INST_MAIN_TERM: self._jobstate(JobState.JOB_TERMINATED),
            Events.JOB_INST_MAIN_END: self._on_main_end,
            Events.JOB_INST_POST_START: self._jobstate(JobState.POST_SCRIPT_STARTED),
            Events.JOB_INST_POST_TERM: self._jobstate(JobState.POST_SCRIPT_TERMINATED),
            Events.JOB_INST_POST_END: self._on_post_end,
            Events.JOB_INST_HOST_INFO: self._on_host_info,
            Events.JOB_INST_IMAGE_INFO: self._on_noop,
            Events.JOB_INST_ABORT_INFO: self._jobstate(JobState.JOB_ABORTED),
            Events.INV_START: self._on_noop,
            Events.INV_END: self._on_inv_end,
        }

    # ------------------------------------------------------------------ api --
    def process(self, event: NLEvent) -> None:
        """Normalize one event into (batched) archive rows."""
        if self._validator is not None:
            violations = self._validator.validate_event(event)
            if violations:
                self.stats.validation_failures += len(violations)
                if self.strict:
                    raise LoaderError(f"invalid event: {violations[0]}")
        handler = self._handlers.get(event.event)
        if handler is None:
            if event.event.startswith(OBS_EVENT_PREFIX):
                handler = self._on_obs
            elif self.strict:
                raise LoaderError(f"unknown event type {event.event!r}")
            else:
                return
        handler(event)
        self.stats.events_processed += 1
        self.stats.events_by_type[event.event] = (
            self.stats.events_by_type.get(event.event, 0) + 1
        )
        if len(self._pending) >= self.batch_size:
            self.flush()

    def process_all(self, events: Iterable[NLEvent]) -> LoaderStats:
        """Load a stream of events, flush, and return timing statistics."""
        start = time.perf_counter()
        for event in events:
            self.process(event)
        self.flush()
        self.stats.wall_seconds += time.perf_counter() - start
        return self.stats

    def flush(self) -> None:
        """Replay the pending journal as one transaction (with retries).

        One flush = one backend transaction: the batched inserts, their
        coalesced updates, any now-resolvable deferred sub-workflow maps,
        and (when checkpointing) the advanced checkpoint row all commit
        atomically.  Transient backend errors roll the batch back and
        retry with exponential backoff; the journal is only discarded
        after a successful commit.
        """
        resolved, still_deferred = self._resolve_deferred_subwf()
        ops = self._pending
        if not ops and not resolved:
            self._pending_since = None
            if self.on_flush is not None:
                self.on_flush(self)
            return
        if self.rollup is not None:
            # deferred subwf maps resolve at flush time, not buffer time;
            # the maintainer dedupes re-resolution after a failed flush
            for values, where in resolved:
                self.rollup.observe_update(JobInstanceRow, values, where)
        start = time.perf_counter()

        def record_retry(attempt: int, exc: BaseException) -> None:
            self.stats.retries += 1

        inserted, updated = self.retry_policy.call(
            lambda: self._flush_once(ops, resolved, still_deferred),
            retry_on=self.archive.db.TRANSIENT_ERRORS,
            on_retry=record_retry,
            breaker=self.breaker,
        )
        self._pending = []
        self._pending_since = None
        self._deferred_subwf = still_deferred
        if self.rollup is not None:
            self.rollup.commit()  # deltas are durable; drop the bundle
        self.stats.rows_inserted += inserted
        self.stats.rows_updated += updated
        if ops:
            self.stats.flushes += 1
        if self.checkpoint is not None:
            self.stats.checkpoints_written += 1
            self.last_checkpoint_time = time.time()
        elapsed = time.perf_counter() - start
        # a quarter of each new sample: one slow commit stretches the next
        # few deadlines, a handful of fast ones shrink them back
        self.commit_cost += (elapsed - self.commit_cost) / 4
        self.stats.record_flush_latency(elapsed)
        if self._flush_hist is not None:
            self._flush_hist.observe(elapsed)
        if self.on_flush is not None:
            self.on_flush(self)

    def pending_age(self) -> float:
        """Seconds the open batch's oldest event has waited for its commit
        (0.0 when nothing waits) — the loader stage's "behind real time"."""
        since = self._pending_since
        return 0.0 if since is None else time.monotonic() - since

    def commit_deadline(self) -> float:
        """Seconds the oldest buffered event of a dry source waits for its
        commit: :data:`COMMIT_COST_MULTIPLE` commit costs, at most
        :data:`MAX_PENDING_AGE`."""
        return min(MAX_PENDING_AGE, COMMIT_COST_MULTIPLE * self.commit_cost)

    def commit_wait(self) -> Optional[float]:
        """Seconds a source with nothing more to hand over may block before
        the open batch is due (None when nothing waits): past it, the
        source calls :meth:`flush`."""
        if self._pending_since is None:
            return None
        return max(0.0, self.commit_deadline() - self.pending_age())

    def flush_if_due(self, dry: bool = False) -> bool:
        """The live sources' flush rule; call it after each event handed over.

        A batch commits when it is full (:meth:`process` does that), when
        the source has run ``dry`` — it holds nothing more to hand over
        right now — and the oldest buffered event has waited
        :meth:`commit_deadline`, or when that event is
        :data:`MAX_PENDING_AGE` old.  So an idle loader commits what
        arrives within a few commit costs, a busier one waits longer
        between commits because each costs more, and a backlogged one
        keeps filling batches and is cut only at the cap.  The first call
        after a commit stamps the new batch's start: one clock read per
        event on the live paths, none in :meth:`process_all`.  Returns
        whether it flushed.
        """
        now = time.monotonic()
        since = self._pending_since
        if since is None:
            self._pending_since = now
            return False
        if now - since < (self.commit_deadline() if dry else MAX_PENDING_AGE):
            return False
        self.flush()
        return True

    def _flush_once(
        self,
        ops: List[Tuple[Any, ...]],
        resolved: List[Tuple[Dict[str, Any], Dict[str, Any]]],
        still_deferred: List[Tuple[str, str, int, int]],
    ) -> Tuple[int, int]:
        inserted = updated = 0
        with self.archive.transaction():
            run: List[Any] = []
            for op in ops:
                if op[0] == "insert":
                    run.append(op[1])
                else:
                    if run:
                        inserted += self.archive.insert_many(run)
                        run = []
                    _, etype, values, where = op
                    updated += self.archive.update(etype, values, where)
            if run:
                inserted += self.archive.insert_many(run)
            for values, where in resolved:
                updated += self.archive.update(JobInstanceRow, values, where)
            if self.rollup is not None:
                # rollup deltas land inside this same transaction: the
                # materialized counters are exactly as durable as the
                # rows (and the checkpoint) they summarize
                rollup_ins, rollup_upd = self.rollup.apply(self.archive)
                inserted += rollup_ins
                updated += rollup_upd
            if self.checkpoint is not None:
                # the stats counters are only bumped after the commit
                # succeeds, so fold this batch's contribution in here —
                # the persisted counters must describe the rows this very
                # transaction makes durable.
                state = self.export_state(deferred=still_deferred)
                state["stats"]["rows_inserted"] += inserted
                state["stats"]["rows_updated"] += updated
                state["stats"]["flushes"] += 1 if ops else 0
                self.checkpoint.save(self.position, state)
        return inserted, updated

    # ------------------------------------------------------ checkpointing --
    def export_state(
        self, deferred: Optional[List[Tuple[str, str, int, int]]] = None
    ) -> Dict[str, Any]:
        """Minimal resolver state a fresh process needs to continue."""
        if deferred is None:
            deferred = self._deferred_subwf
        state: Dict[str, Any] = {
            "version": 1,
            "workflows": {
                uuid: cache.to_state() for uuid, cache in self._workflows.items()
            },
            "deferred_subwf": [list(item) for item in deferred],
            "stats": {
                "events_processed": self.stats.events_processed,
                "rows_inserted": self.stats.rows_inserted,
                "rows_updated": self.stats.rows_updated,
                "flushes": self.stats.flushes,
            },
        }
        if self.reseq_state is not None:
            state["reseq_next"] = self.reseq_state()
        if self.rollup is not None:
            # tracking maps only — pending deltas commit in the same
            # transaction as this checkpoint, so a resume re-derives any
            # unflushed bundle from the re-read events
            state["rollup"] = self.rollup.to_state()
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Rebuild resolver caches from a checkpoint's state blob."""
        self._workflows = {
            str(uuid): _WorkflowCache.from_state(wf_state)
            for uuid, wf_state in state.get("workflows", {}).items()
        }
        self._deferred_subwf = [
            (str(u), str(j), int(s), int(w))
            for u, j, s, w in state.get("deferred_subwf", [])
        ]
        self.resumed_reseq = {
            str(pub): int(nxt)
            for pub, nxt in state.get("reseq_next", {}).items()
        }
        if self.rollup is not None and "rollup" in state:
            self.rollup.restore_state(state["rollup"])
        counters = state.get("stats", {})
        self.stats.events_processed = int(counters.get("events_processed", 0))
        self.stats.rows_inserted = int(counters.get("rows_inserted", 0))
        self.stats.rows_updated = int(counters.get("rows_updated", 0))
        self.stats.flushes = int(counters.get("flushes", 0))

    def resume(self) -> int:
        """Restore state from the checkpoint; returns the source position.

        Returns 0 (a no-op) when no checkpoint row exists yet.
        """
        if self.checkpoint is None:
            raise LoaderError("loader has no checkpoint manager configured")
        ckpt = self.checkpoint.load()
        if ckpt is None:
            return 0
        self.restore_state(ckpt.state)
        self.position = ckpt.position
        self.stats.resumes += 1
        return ckpt.position

    # ------------------------------------------------------------- helpers --
    def _buffer(self, entity: Any) -> None:
        self._pending.append(("insert", entity))
        if self.rollup is not None:
            self.rollup.observe_insert(entity)

    def _buffer_update(
        self, entity_type: type, values: Dict[str, Any], where: Dict[str, Any]
    ) -> None:
        self._pending.append(("update", entity_type, values, where))
        if self.rollup is not None:
            self.rollup.observe_update(entity_type, values, where)

    def _wf(self, event: NLEvent) -> _WorkflowCache:
        uuid = str(event.get("xwf.id", ""))
        cache = self._workflows.get(uuid)
        if cache is None:
            if self.strict:
                raise LoaderError(
                    f"event {event.event} references unknown workflow {uuid!r} "
                    "(no stampede.wf.plan seen)"
                )
            wf_id = self.archive.next_id("workflow")
            self._buffer(
                WorkflowRow(wf_id=wf_id, wf_uuid=uuid, timestamp=event.ts)
            )
            cache = _WorkflowCache(wf_id)
            self._workflows[uuid] = cache
        return cache

    def _job_id(self, cache: _WorkflowCache, event: NLEvent) -> int:
        exec_job_id = str(event["job.id"])
        job_id = cache.job_ids.get(exec_job_id)
        if job_id is None:
            if self.strict:
                raise LoaderError(
                    f"event {event.event} references unknown job {exec_job_id!r} "
                    "(static events must precede execution events)"
                )
            job_id = self.archive.next_id("job")
            cache.job_ids[exec_job_id] = job_id
            self._buffer(
                JobRow(job_id=job_id, wf_id=cache.wf_id, exec_job_id=exec_job_id)
            )
        return job_id

    def _job_instance_id(
        self, cache: _WorkflowCache, event: NLEvent, create: bool = False
    ) -> int:
        exec_job_id = str(event["job.id"])
        submit_seq = int(event["job_inst.id"])
        key = (exec_job_id, submit_seq)
        ji_id = cache.job_instances.get(key)
        if ji_id is None:
            if not create and self.strict:
                raise LoaderError(
                    f"event {event.event} references unknown job instance {key!r}"
                )
            job_id = self._job_id(cache, event)
            ji_id = self.archive.next_id("job_instance")
            cache.job_instances[key] = ji_id
            self._buffer(
                JobInstanceRow(
                    job_instance_id=ji_id,
                    job_id=job_id,
                    job_submit_seq=submit_seq,
                    sched_id=_opt_str(event.get("sched.id")),
                )
            )
        return ji_id

    def _add_jobstate(
        self, cache: _WorkflowCache, ji_id: int, state: JobState, ts: float
    ) -> None:
        seq = cache.jobstate_seq.get(ji_id, 0)
        cache.jobstate_seq[ji_id] = seq + 1
        self._buffer(
            JobStateRow(
                job_instance_id=ji_id,
                state=state.value,
                timestamp=ts,
                jobstate_submit_seq=seq,
            )
        )

    # ------------------------------------------------------------- handlers --
    def _on_wf_plan(self, event: NLEvent) -> None:
        uuid = str(event.get("xwf.id", ""))
        if not uuid:
            raise LoaderError("stampede.wf.plan without xwf.id")
        if uuid in self._workflows:
            # Restarted run of a known workflow: keep the original row.
            return
        wf_id = self.archive.next_id("workflow")
        parent_uuid = _opt_str(event.get("parent.xwf.id"))
        root_uuid = _opt_str(event.get("root.xwf.id"))
        parent_wf = self._workflows.get(parent_uuid) if parent_uuid else None
        if root_uuid == uuid:
            root_wf_id: Optional[int] = wf_id
        else:
            root_cache = self._workflows.get(root_uuid) if root_uuid else None
            root_wf_id = root_cache.wf_id if root_cache else None
        self._buffer(
            WorkflowRow(
                wf_id=wf_id,
                wf_uuid=uuid,
                dag_file_name=str(event.get("dag.file.name", "")),
                timestamp=event.ts,
                submit_hostname=str(event.get("submit.hostname", "")),
                submit_dir=str(event.get("submit_dir", "")),
                planner_version=str(event.get("planner.version", "")),
                user=_opt_str(event.get("user")),
                grid_dn=_opt_str(event.get("grid_dn")),
                planner_arguments=_opt_str(event.get("argv")),
                dax_label=_opt_str(event.get("dax.label")),
                dax_version=_opt_str(event.get("dax.version")),
                dax_file=_opt_str(event.get("dax.file")),
                parent_wf_id=parent_wf.wf_id if parent_wf else None,
                root_wf_id=root_wf_id,
            )
        )
        self._workflows[uuid] = _WorkflowCache(wf_id)

    def _on_static_start(self, event: NLEvent) -> None:
        self._wf(event)

    def _on_static_end(self, event: NLEvent) -> None:
        self._wf(event).static_done = True

    def _on_xwf_start(self, event: NLEvent) -> None:
        cache = self._wf(event)
        self._buffer(
            WorkflowStateRow(
                wf_id=cache.wf_id,
                state=WorkflowState.WORKFLOW_STARTED.value,
                timestamp=event.ts,
                restart_count=int(event.get("restart_count", 0)),
            )
        )

    def _on_xwf_end(self, event: NLEvent) -> None:
        cache = self._wf(event)
        self._buffer(
            WorkflowStateRow(
                wf_id=cache.wf_id,
                state=WorkflowState.WORKFLOW_TERMINATED.value,
                timestamp=event.ts,
                restart_count=int(event.get("restart_count", 0)),
                status=int(event.get("status", SUCCESS)),
            )
        )

    def _on_task_info(self, event: NLEvent) -> None:
        cache = self._wf(event)
        abs_task_id = str(event["task.id"])
        if abs_task_id in cache.task_ids:
            if self.strict:
                raise LoaderError(f"duplicate task.info for {abs_task_id!r}")
            return  # placeholder or restart: keep the existing row
        task_id = self.archive.next_id("task")
        cache.task_ids[abs_task_id] = task_id
        self._buffer(
            TaskRow(
                task_id=task_id,
                wf_id=cache.wf_id,
                abs_task_id=abs_task_id,
                transformation=str(event.get("transformation", "")),
                argv=_opt_str(event.get("argv")),
                type_desc=str(event.get("type_desc", "")),
            )
        )

    def _on_task_edge(self, event: NLEvent) -> None:
        cache = self._wf(event)
        self._buffer(
            TaskEdgeRow(
                wf_id=cache.wf_id,
                parent_abs_task_id=str(event["parent.task.id"]),
                child_abs_task_id=str(event["child.task.id"]),
            )
        )

    def _on_job_info(self, event: NLEvent) -> None:
        cache = self._wf(event)
        exec_job_id = str(event["job.id"])
        if exec_job_id in cache.job_ids:
            if self.strict:
                raise LoaderError(f"duplicate job.info for {exec_job_id!r}")
            return  # placeholder or restart: keep the existing row
        job_id = self.archive.next_id("job")
        cache.job_ids[exec_job_id] = job_id
        self._buffer(
            JobRow(
                job_id=job_id,
                wf_id=cache.wf_id,
                exec_job_id=exec_job_id,
                type_desc=str(event.get("type_desc", "")),
                clustered=str(event.get("clustered", "0")) in ("1", "true", "True"),
                max_retries=int(event.get("max_retries", 0)),
                executable=str(event.get("executable", "")),
                argv=_opt_str(event.get("argv")),
                task_count=int(event.get("task_count", 0)),
            )
        )

    def _on_job_edge(self, event: NLEvent) -> None:
        cache = self._wf(event)
        self._buffer(
            JobEdgeRow(
                wf_id=cache.wf_id,
                parent_exec_job_id=str(event["parent.job.id"]),
                child_exec_job_id=str(event["child.job.id"]),
            )
        )

    def _on_map_task_job(self, event: NLEvent) -> None:
        cache = self._wf(event)
        abs_task_id = str(event["task.id"])
        exec_job_id = str(event["job.id"])
        if abs_task_id not in cache.task_ids:
            raise LoaderError(f"map.task_job references unknown task {abs_task_id!r}")
        if exec_job_id not in cache.job_ids:
            raise LoaderError(f"map.task_job references unknown job {exec_job_id!r}")
        # The mapping lands as task.job_id; the journal replays it after
        # the buffered task row inside the same flush transaction.
        self._buffer_update(
            TaskRow,
            {"job_id": cache.job_ids[exec_job_id]},
            {"task_id": cache.task_ids[abs_task_id]},
        )

    def _on_map_subwf_job(self, event: NLEvent) -> None:
        cache = self._wf(event)
        subwf_uuid = str(event["subwf.id"])
        exec_job_id = str(event["job.id"])
        submit_seq = int(event["job_inst.id"])
        self._deferred_subwf.append(
            (subwf_uuid, exec_job_id, submit_seq, cache.wf_id)
        )

    def _resolve_deferred_subwf(
        self,
    ) -> Tuple[
        List[Tuple[Dict[str, Any], Dict[str, Any]]],
        List[Tuple[str, str, int, int]],
    ]:
        """Split deferred subwf→job-instance maps into (resolvable, not-yet).

        Pure computation over the in-memory caches; the caller applies the
        resolved updates inside the flush transaction and only then adopts
        the still-pending remainder.
        """
        resolved: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        still_pending: List[Tuple[str, str, int, int]] = []
        by_wf_id = {c.wf_id: c for c in self._workflows.values()}
        for subwf_uuid, exec_job_id, submit_seq, parent_wf_id in self._deferred_subwf:
            sub = self._workflows.get(subwf_uuid)
            parent = by_wf_id.get(parent_wf_id)
            ji_id = (
                parent.job_instances.get((exec_job_id, submit_seq))
                if parent
                else None
            )
            if sub is None or ji_id is None:
                still_pending.append(
                    (subwf_uuid, exec_job_id, submit_seq, parent_wf_id)
                )
                continue
            resolved.append(
                ({"subwf_id": sub.wf_id}, {"job_instance_id": ji_id})
            )
        return resolved, still_pending

    def _on_submit_start(self, event: NLEvent) -> None:
        cache = self._wf(event)
        key = (str(event["job.id"]), int(event["job_inst.id"]))
        if key in cache.job_instances:
            if self.strict:
                raise LoaderError(
                    f"duplicate submit.start for job instance {key!r}"
                )
            return  # placeholder instance already synthesized
        ji_id = self._job_instance_id(cache, event, create=True)
        self._add_jobstate(cache, ji_id, JobState.SUBMIT, event.ts)

    def _on_submit_end(self, event: NLEvent) -> None:
        cache = self._wf(event)
        self._job_instance_id(cache, event)  # presence check only

    def _on_pre_end(self, event: NLEvent) -> None:
        cache = self._wf(event)
        ji_id = self._job_instance_id(cache, event)
        ok = int(event.get("status", SUCCESS)) == SUCCESS
        state = JobState.PRE_SCRIPT_SUCCESS if ok else JobState.PRE_SCRIPT_FAILURE
        self._add_jobstate(cache, ji_id, state, event.ts)

    def _on_post_end(self, event: NLEvent) -> None:
        cache = self._wf(event)
        ji_id = self._job_instance_id(cache, event)
        ok = int(event.get("status", SUCCESS)) == SUCCESS
        state = JobState.POST_SCRIPT_SUCCESS if ok else JobState.POST_SCRIPT_FAILURE
        self._add_jobstate(cache, ji_id, state, event.ts)

    def _jobstate(self, state: JobState):
        def handler(event: NLEvent) -> None:
            cache = self._wf(event)
            ji_id = self._job_instance_id(cache, event)
            self._add_jobstate(cache, ji_id, state, event.ts)

        return handler

    def _on_main_end(self, event: NLEvent) -> None:
        cache = self._wf(event)
        ji_id = self._job_instance_id(cache, event)
        status = int(event.get("status", SUCCESS))
        state = JobState.JOB_SUCCESS if status == SUCCESS else JobState.JOB_FAILURE
        self._add_jobstate(cache, ji_id, state, event.ts)
        self._buffer_update(
            JobInstanceRow,
            {
                "local_duration": float(event["local.dur"]),
                "exitcode": int(event["exitcode"]),
                "site": _opt_str(event.get("site")),
                "user": _opt_str(event.get("user")),
                "stdout_file": _opt_str(event.get("stdout.file")),
                "stdout_text": _opt_str(event.get("stdout.text")),
                "stderr_file": _opt_str(event.get("stderr.file")),
                "stderr_text": _opt_str(event.get("stderr.text")),
                "multiplier_factor": int(event.get("multiplier_factor", 1)),
            },
            {"job_instance_id": ji_id},
        )

    def _on_host_info(self, event: NLEvent) -> None:
        cache = self._wf(event)
        ji_id = self._job_instance_id(cache, event)
        site = str(event.get("site", ""))
        hostname = str(event["hostname"])
        host_key = (site, hostname)
        host_id = cache.host_ids.get(host_key)
        if host_id is None:
            host_id = self.archive.next_id("host")
            cache.host_ids[host_key] = host_id
            self._buffer(
                HostRow(
                    host_id=host_id,
                    wf_id=cache.wf_id,
                    site=site,
                    hostname=hostname,
                    ip=_opt_str(event.get("ip")),
                    uname=_opt_str(event.get("uname")),
                    total_memory=_opt_int(event.get("total_memory")),
                )
            )
        self._buffer_update(
            JobInstanceRow, {"host_id": host_id}, {"job_instance_id": ji_id}
        )

    def _on_inv_end(self, event: NLEvent) -> None:
        cache = self._wf(event)
        ji_id = self._job_instance_id(cache, event)
        abs_task_id = _opt_str(event.get("task.id"))
        if (
            self.strict
            and abs_task_id is not None
            and abs_task_id not in cache.task_ids
        ):
            raise LoaderError(
                f"inv.end references unknown task {abs_task_id!r} "
                f"in workflow wf_id={cache.wf_id}"
            )
        self._buffer(
            InvocationRow(
                invocation_id=self.archive.next_id("invocation"),
                job_instance_id=ji_id,
                wf_id=cache.wf_id,
                task_submit_seq=int(event["inv.id"]),
                start_time=parse_ts(event["start_time"]),
                remote_duration=float(event["dur"]),
                remote_cpu_time=_opt_float(event.get("remote_cpu_time")),
                exitcode=int(event["exitcode"]),
                transformation=str(event.get("transformation", "")),
                executable=str(event.get("executable", "")),
                argv=_opt_str(event.get("argv")),
                abs_task_id=abs_task_id,
            )
        )

    def _on_noop(self, event: NLEvent) -> None:
        self._wf(event)

    def _on_obs(self, event: NLEvent) -> None:
        """Archive one ``stampede.obs.*`` self-monitoring event.

        Telemetry is workflow-independent (no xwf.id), so it lands in
        the generic ``obs_event`` table: hot keys become columns, the
        full attribute map rides along as JSON.
        """
        name = event.get("metric") or event.get("span") or ""
        value = event.get("value")
        if value is None:
            value = event.get("dur")
        try:
            value_f = None if value is None else float(str(value))
        except ValueError:
            value_f = None
        self._buffer(
            ObsEventRow(
                obs_id=self.archive.next_id("obs_event"),
                ts=event.ts,
                event=event.event,
                name=str(name),
                component=str(event.get("component", "")),
                value=value_f,
                payload=json.dumps(
                    {k: str(v) for k, v in event.attrs.items()}, sort_keys=True
                ),
            )
        )


def _opt_str(value: object) -> Optional[str]:
    return None if value is None else str(value)


def _opt_int(value: object) -> Optional[int]:
    return None if value is None else int(value)


def _opt_float(value: object) -> Optional[float]:
    return None if value is None else float(value)
