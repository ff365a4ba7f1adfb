"""Incremental rollups: materialized statistics maintained at the writer.

Recomputing the Table I/II aggregates from the base tables costs a scan
of the archive per request (``statistics.scan_statistics``, kept as the
reference).  This module maintains the same aggregates *incrementally*,
inside the loader's flush transaction, so every statistics and progress
read is O(1) point lookups regardless of archive size (the CMS-dashboard
/ WMArchive rollup-near-the-writer pattern from PAPERS.md).

Consistency contract
--------------------
:class:`RollupMaintainer` observes the loader's journal: every buffered
insert/update is folded into an in-memory delta bundle, and
:meth:`RollupMaintainer.apply` replays that bundle inside the same
backend transaction that commits the batch rows and the checkpoint.
Therefore:

* rollup rows are exactly as durable and exactly as current as the
  event rows they summarize — a kill at any point leaves both sides of
  the boundary consistent, and resume re-derives the same deltas;
* every delta is **additive** or a **monotone merge** (min ``started``,
  max ``ended``/``restarts``, min/max runtimes), written as one upsert
  per keyed table and one select-merge-write of the workflow rows; a
  transient rollback restores the rows those statements changed, so the
  retry applies the same bundle to the same rows;
* ``rollup_meta.commit_seq`` increments once per applying flush — read
  caches invalidate on it instead of a TTL.

Rollups are the archive's only read path: every archive the system
writes carries them, and the long-term tier receives them with the
hierarchies it takes.  A workflow without a rollup row is served by
nobody — readers raise :class:`RollupCoverageError`, whose message names
the fix, :func:`rebuild_rollups` (``stampede-rollup rebuild``).  A
rebuild replays the archive's base rows through a fresh
:class:`RollupMaintainer`, so
every rollup row is derived by the code each loader flush runs;
:func:`verify_rollups` checks the served statistics against the one
independent oracle, the scan.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    RollupHostBucketRow,
    RollupHostRow,
    RollupMetaRow,
    RollupTypeRow,
    RollupWorkflowRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.model.states import WorkflowState
from repro.schema.stampede import SUCCESS

__all__ = [
    "TIERS",
    "UNKNOWN_HOST",
    "RollupCoverageError",
    "RollupMaintainer",
    "bump_commit_seq",
    "commit_seq",
    "last_commit_ts",
    "rebuild_rollups",
    "verify_rollups",
    "drop_rollups",
    "main",
]

#: downsampling tiers for the per-host time series, in seconds; buckets
#: are epoch-aligned (``floor(start_time / tier)``) so they merge across
#: workflows, shards, and rebuilds without re-binning
TIERS: Tuple[int, ...] = (60, 600, 3600)

#: hostname bucket for job instances not (yet) attached to a host —
#: mirrors the scan's ``hostname = "unknown"`` attribution
UNKNOWN_HOST = "unknown"

#: the four tables the rollups live in (``rollup_meta`` aside)
_ROLLUP_TABLES = (RollupWorkflowRow, RollupTypeRow, RollupHostRow, RollupHostBucketRow)

#: ids per ``IN (...)`` select of a one-workflow replay (sqlite caps bound parameters)
_IN_CHUNK = 500

_META_SEQ = "commit_seq"
_META_TS = "last_commit_ts"


class RollupCoverageError(RuntimeError):
    """A workflow of the archive has no rollup row to be served from.

    The loader commits rollups with the rows they summarize and the
    long-term tier derives its own, so this is an archive written some
    other way or with its rollup rows deleted.
    """

    def __init__(self, wf_id: int):
        super().__init__(
            f"workflow wf_id={wf_id} has no rollup row: run "
            "'stampede-rollup rebuild' on the archive to derive its rollups"
        )
        self.wf_id = wf_id


class _Bundle:
    """Pending rollup deltas for the next flush transaction."""

    __slots__ = (
        "wf_new",
        "wf_add",
        "wf_started",
        "wf_ended",
        "wf_restarts",
        "types",
        "hosts",
        "buckets",
    )

    def __init__(self) -> None:
        # wf_id -> identity fields of a brand-new rollup_workflow row
        self.wf_new: Dict[int, Dict[str, Any]] = {}
        # wf_id -> {column: additive delta} (may be negative: outcome moves)
        self.wf_add: Dict[int, Dict[str, float]] = {}
        self.wf_started: Dict[int, float] = {}  # min-merge
        self.wf_ended: Dict[int, Tuple[float, Optional[int]]] = {}  # max-merge
        self.wf_restarts: Dict[int, int] = {}  # max-merge
        # (wf_id, transformation) -> [count, succ, fail, min, max, total]
        self.types: Dict[Tuple[int, str], List[float]] = {}
        # (wf_id, hostname) -> [jobs, runtime]
        self.hosts: Dict[Tuple[int, str], List[float]] = {}
        # (wf_id, hostname, tier, bucket) -> runtime
        self.buckets: Dict[Tuple[int, str, int, int], float] = {}

    def empty(self) -> bool:
        return not (
            self.wf_new
            or self.wf_add
            or self.wf_started
            or self.wf_ended
            or self.wf_restarts
            or self.types
            or self.hosts
            or self.buckets
        )


class RollupMaintainer:
    """Folds the loader journal into rollup deltas; applies them in-txn.

    Observation happens as the loader buffers work (``observe_insert`` /
    ``observe_update``), and :meth:`apply` runs inside ``_flush_once``, so
    a failed attempt's rollback undoes its writes and the retry applies
    the bundle again.  The bundle is cleared by :meth:`commit` only after
    the flush commits — a failed flush keeps both the journal and the
    bundle for the retry.
    Tracking state (task outcomes, last attempts, host attachments) is
    held for running workflows only, because the archive holds the rest:
    the loader :meth:`warm`-s a workflow from its rows on a cache miss
    and has it :meth:`forget`-ten once its root terminates.
    """

    def __init__(self, archive: Any):
        self.archive = archive
        self._bundle = _Bundle()
        # -- tracking state (derivable from the archive: see warm) ---------
        # wf_id -> known abs_task_ids (tasks with a TaskRow)
        self._task_rows: Dict[int, Set[str]] = {}
        # wf_id -> {abs_task_id: counted outcome exitcode}
        self._task_outcome: Dict[int, Dict[str, int]] = {}
        # wf_id -> {abs_task_id: outcome seen before its task.info}
        self._orphan_outcome: Dict[int, Dict[str, int]] = {}
        # job_id -> [wf_id, attempts, max_submit_seq, last_exit or None]
        self._jobs: Dict[int, List[Any]] = {}
        # job_instance_id -> [wf_id, job_id, submit_seq]
        self._inst: Dict[int, List[int]] = {}
        # job_instance_id -> attached hostname
        self._inst_host: Dict[int, str] = {}
        # job instances marked as sub-workflow wrappers
        self._inst_subwf: Set[int] = set()
        # job_instance_id -> invocation wall already credited (for the
        # retroactive subtraction when a subwf mapping attaches later)
        self._inst_wall: Dict[int, float] = {}
        # host_id -> hostname
        self._hosts: Dict[int, str] = {}
        # unattached instances' credits parked under UNKNOWN_HOST:
        # job_instance_id -> [jobs, runtime, {(tier, bucket): runtime}]
        self._pending_host: Dict[int, List[Any]] = {}

    # -- delta helpers -------------------------------------------------------
    def _add(self, wf_id: int, column: str, delta: float) -> None:
        cols = self._bundle.wf_add.setdefault(wf_id, {})
        cols[column] = cols.get(column, 0) + delta

    def _host_add(self, wf_id: int, hostname: str, jobs: int, runtime: float) -> None:
        entry = self._bundle.hosts.setdefault((wf_id, hostname), [0, 0.0])
        entry[0] += jobs
        entry[1] += runtime

    def _bucket_add(
        self, wf_id: int, hostname: str, tier: int, bucket: int, runtime: float
    ) -> None:
        key = (wf_id, hostname, tier, bucket)
        self._bundle.buckets[key] = self._bundle.buckets.get(key, 0.0) + runtime

    # -- journal observation -------------------------------------------------
    def observe_insert(self, entity: Any) -> None:
        etype = type(entity)
        if etype is JobStateRow:
            inst = self._inst.get(entity.job_instance_id)
            if inst is not None:
                self._add(inst[0], "events", 1)
        elif etype is InvocationRow:
            self._on_invocation(entity)
        elif etype is JobInstanceRow:
            self._on_job_instance(entity)
        elif etype is TaskRow:
            self._on_task(entity)
        elif etype is JobRow:
            self._jobs[entity.job_id] = [entity.wf_id, 0, -1, None]
            self._add(entity.wf_id, "jobs_total", 1)
            self._add(entity.wf_id, "events", 1)
        elif etype is HostRow:
            self._hosts[entity.host_id] = entity.hostname
            self._add(entity.wf_id, "events", 1)
        elif etype is WorkflowStateRow:
            self._on_workflow_state(entity)
        elif etype is WorkflowRow:
            self._bundle.wf_new[entity.wf_id] = {
                "wf_uuid": entity.wf_uuid,
                "parent_wf_id": entity.parent_wf_id,
                "root_wf_id": entity.root_wf_id,
            }
            self._add(entity.wf_id, "events", 1)
        elif etype in (TaskEdgeRow, JobEdgeRow):
            self._add(entity.wf_id, "events", 1)
        # ObsEventRow and anything else: workflow-independent, no rollup

    def observe_update(
        self, etype: type, values: Dict[str, Any], where: Dict[str, Any]
    ) -> None:
        if etype is not JobInstanceRow:
            return
        ji_id = where.get("job_instance_id")
        if ji_id is None:
            return
        if "host_id" in values:
            self._on_host_attach(ji_id, values["host_id"])
        if "subwf_id" in values:
            self._on_subwf_attach(ji_id)
        if "exitcode" in values:
            self._on_instance_end(
                ji_id, values.get("exitcode"), values.get("local_duration")
            )

    # -- per-entity logic ----------------------------------------------------
    def _on_task(self, task: TaskRow) -> None:
        wf_id = task.wf_id
        self._task_rows.setdefault(wf_id, set()).add(task.abs_task_id)
        self._add(wf_id, "tasks_total", 1)
        self._add(wf_id, "events", 1)
        # an outcome that arrived before its task.info (tolerant-mode
        # ordering violation) starts counting now, like the scan would
        orphan = self._orphan_outcome.get(wf_id, {}).pop(task.abs_task_id, None)
        if orphan is not None:
            self._task_outcome.setdefault(wf_id, {})[task.abs_task_id] = orphan
            self._add(
                wf_id,
                "tasks_succeeded" if orphan == SUCCESS else "tasks_failed",
                1,
            )

    def _on_workflow_state(self, state: WorkflowStateRow) -> None:
        wf_id = state.wf_id
        bundle = self._bundle
        self._add(wf_id, "events", 1)
        restarts = bundle.wf_restarts.get(wf_id, 0)
        if state.restart_count > restarts:
            bundle.wf_restarts[wf_id] = state.restart_count
        if state.state == WorkflowState.WORKFLOW_STARTED.value:
            started = bundle.wf_started.get(wf_id)
            if started is None or state.timestamp < started:
                bundle.wf_started[wf_id] = state.timestamp
        elif state.state == WorkflowState.WORKFLOW_TERMINATED.value:
            ended = bundle.wf_ended.get(wf_id)
            # ties go to the later-observed event, matching the scan's
            # "last terminated state in timestamp order" rule
            if ended is None or state.timestamp >= ended[0]:
                bundle.wf_ended[wf_id] = (state.timestamp, state.status)

    def _on_job_instance(self, inst: JobInstanceRow) -> None:
        job = self._jobs.get(inst.job_id)
        if job is None:
            return  # instance of a job this maintainer never saw
        wf_id = job[0]
        seq = inst.job_submit_seq
        self._inst[inst.job_instance_id] = [wf_id, inst.job_id, seq]
        self._add(wf_id, "job_instances", 1)
        self._add(wf_id, "events", 1)
        job[1] += 1  # attempts
        if job[1] > 1:
            self._add(wf_id, "jobs_retries", 1)
        if seq >= job[2]:
            # this attempt is now the job's last: the previous last
            # attempt's outcome no longer decides the job
            last_exit = job[3]
            if last_exit is not None:
                self._add(
                    wf_id,
                    "jobs_succeeded" if last_exit == SUCCESS else "jobs_failed",
                    -1,
                )
            job[2] = seq
            job[3] = None
        # until a host attaches, the instance counts under "unknown"
        self._pending_host[inst.job_instance_id] = [1, 0.0, {}]
        self._host_add(wf_id, UNKNOWN_HOST, 1, 0.0)

    def _on_instance_end(
        self, ji_id: int, exitcode: Optional[int], local_duration: Optional[float]
    ) -> None:
        inst = self._inst.get(ji_id)
        if inst is None:
            return
        wf_id, job_id, seq = inst
        job = self._jobs.get(job_id)
        if job is not None and seq == job[2] and exitcode is not None:
            if job[3] is not None:
                self._add(
                    wf_id,
                    "jobs_succeeded" if job[3] == SUCCESS else "jobs_failed",
                    -1,
                )
            job[3] = exitcode
            self._add(
                wf_id,
                "jobs_succeeded" if exitcode == SUCCESS else "jobs_failed",
                1,
            )
        runtime = local_duration or 0.0
        if runtime:
            hostname = self._inst_host.get(ji_id)
            if hostname is None:
                pending = self._pending_host.setdefault(ji_id, [0, 0.0, {}])
                pending[1] += runtime
                self._host_add(wf_id, UNKNOWN_HOST, 0, runtime)
            else:
                self._host_add(wf_id, hostname, 0, runtime)

    def _on_host_attach(self, ji_id: int, host_id: Optional[int]) -> None:
        inst = self._inst.get(ji_id)
        hostname = self._hosts.get(host_id) if host_id is not None else None
        if inst is None or hostname is None:
            return
        if ji_id in self._inst_host:
            return  # engines emit one host_info per instance; dedupe
        wf_id = inst[0]
        self._inst_host[ji_id] = hostname
        pending = self._pending_host.pop(ji_id, None)
        if pending is not None:
            jobs, runtime, bins = pending
            if jobs or runtime:
                self._host_add(wf_id, UNKNOWN_HOST, -jobs, -runtime)
                self._host_add(wf_id, hostname, jobs, runtime)
            for (tier, bucket), dur in bins.items():
                self._bucket_add(wf_id, UNKNOWN_HOST, tier, bucket, -dur)
                self._bucket_add(wf_id, hostname, tier, bucket, dur)

    def _on_subwf_attach(self, ji_id: int) -> None:
        if ji_id in self._inst_subwf:
            return  # a re-resolved deferred map after a failed flush
        self._inst_subwf.add(ji_id)
        inst = self._inst.get(ji_id)
        credited = self._inst_wall.pop(ji_id, 0.0)
        if inst is not None and credited:
            # its invocations span the child run, whose own invocations
            # are already counted: take the credit back
            self._add(inst[0], "invocation_wall", -credited)

    def _on_invocation(self, inv: InvocationRow) -> None:
        wf_id = inv.wf_id
        ji_id = inv.job_instance_id
        duration = inv.remote_duration or 0.0
        ok = inv.exitcode == SUCCESS
        self._add(wf_id, "invocations", 1)
        self._add(wf_id, "events", 1)
        if ji_id not in self._inst_subwf:
            self._add(wf_id, "invocation_wall", duration)
            self._inst_wall[ji_id] = self._inst_wall.get(ji_id, 0.0) + duration
        # per-transformation breakdown (Table II)
        entry = self._bundle.types.get((wf_id, inv.transformation))
        if entry is None:
            self._bundle.types[(wf_id, inv.transformation)] = [
                1, 1 if ok else 0, 0 if ok else 1, duration, duration, duration,
            ]
        else:
            entry[0] += 1
            entry[1 if ok else 2] += 1
            entry[3] = min(entry[3], duration)
            entry[4] = max(entry[4], duration)
            entry[5] += duration
        # task outcome: any success wins (scan's _accumulate_counts rule)
        if inv.abs_task_id is not None:
            self._merge_task_outcome(wf_id, inv.abs_task_id, inv.exitcode)
        # per-host time series, one bucket per downsampling tier
        hostname = self._inst_host.get(ji_id)
        bins = None
        if hostname is None:
            pending = self._pending_host.setdefault(ji_id, [0, 0.0, {}])
            bins = pending[2]
            hostname = UNKNOWN_HOST
        for tier in TIERS:
            bucket = int(inv.start_time // tier)
            self._bucket_add(wf_id, hostname, tier, bucket, duration)
            if bins is not None:
                key = (tier, bucket)
                bins[key] = bins.get(key, 0.0) + duration

    def _merge_task_outcome(self, wf_id: int, abs_task_id: str, exitcode: int) -> None:
        if abs_task_id in self._task_rows.get(wf_id, ()):
            outcomes = self._task_outcome.setdefault(wf_id, {})
            prev = outcomes.get(abs_task_id)
            if prev is None:
                outcomes[abs_task_id] = exitcode
                self._add(
                    wf_id,
                    "tasks_succeeded" if exitcode == SUCCESS else "tasks_failed",
                    1,
                )
            elif prev != SUCCESS:
                if exitcode == SUCCESS:
                    self._add(wf_id, "tasks_failed", -1)
                    self._add(wf_id, "tasks_succeeded", 1)
                outcomes[abs_task_id] = exitcode
        else:
            orphans = self._orphan_outcome.setdefault(wf_id, {})
            prev = orphans.get(abs_task_id)
            if prev is None or prev != SUCCESS:
                orphans[abs_task_id] = exitcode

    # -- transactional apply -------------------------------------------------
    def apply(self, archive: Optional[Any] = None) -> Tuple[int, int]:
        """Merge the pending bundle into the rollup tables.

        Must run inside the flush transaction.  Each keyed table takes
        the bundle as one upsert (counts add, runtimes min/max-merge);
        the workflow rows are read with one select, merged here and
        written back with one insert and one update.  A transient
        rollback restores the rows, so a retry applies the same deltas to
        the same rows.  Returns ``(inserted, updated)``: the
        ``rollup_workflow`` rows created, and every other rollup row
        written — workflow rows merged plus the keyed tables' upserted
        rows, which an upsert does not tell apart as created or merged.
        """
        archive = archive if archive is not None else self.archive
        bundle = self._bundle
        if bundle.empty():
            return (0, 0)
        seq = int(_meta_value(archive, _META_SEQ, 0.0)) + 1
        wf_ids = sorted(
            set(bundle.wf_new)
            | set(bundle.wf_add)
            | set(bundle.wf_started)
            | set(bundle.wf_ended)
            | set(bundle.wf_restarts)
        )
        stored = {
            row.wf_id: row
            for i in range(0, len(wf_ids), _IN_CHUNK)
            for row in archive.query(RollupWorkflowRow)
            .where("wf_id", "in", wf_ids[i : i + _IN_CHUNK])
            .all()
        }
        fresh: List[RollupWorkflowRow] = []
        merged: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        for wf_id in wf_ids:
            row = stored.get(wf_id)
            if row is None:
                row = RollupWorkflowRow(wf_id=wf_id, wf_uuid="")
            for column, value in bundle.wf_new.get(wf_id, {}).items():
                setattr(row, column, value)
            for column, delta in bundle.wf_add.get(wf_id, {}).items():
                setattr(row, column, getattr(row, column) + delta)
            started = bundle.wf_started.get(wf_id)
            if started is not None and (row.started is None or started < row.started):
                row.started = started
            ended = bundle.wf_ended.get(wf_id)
            if ended is not None and (row.ended is None or ended[0] >= row.ended):
                row.ended, row.status = ended
            restarts = bundle.wf_restarts.get(wf_id)
            if restarts is not None and restarts > row.restarts:
                row.restarts = restarts
            row.updated_seq = seq
            if wf_id in stored:
                values = {f: getattr(row, f) for f in _WF_MUTABLE}
                merged.append((values, {"wf_id": wf_id}))
            else:
                fresh.append(row)
        archive.insert_many(fresh)
        archive.update_many(RollupWorkflowRow, merged)
        upserted = archive.upsert_many(
            [
                RollupTypeRow(
                    wf_id=wf_id,
                    transformation=transformation,
                    count=int(delta[0]),
                    succeeded=int(delta[1]),
                    failed=int(delta[2]),
                    min_runtime=delta[3],
                    max_runtime=delta[4],
                    total_runtime=delta[5],
                )
                for (wf_id, transformation), delta in bundle.types.items()
            ],
            _TYPE_MERGE,
        )
        upserted += archive.upsert_many(
            [
                RollupHostRow(wf_id, hostname, int(jobs), runtime)
                for (wf_id, hostname), (jobs, runtime) in bundle.hosts.items()
            ],
            _HOST_MERGE,
        )
        upserted += archive.upsert_many(
            [RollupHostBucketRow(*key, runtime) for key, runtime in bundle.buckets.items()],
            _BUCKET_MERGE,
        )
        _meta_set(archive, _META_SEQ, float(seq))
        _meta_set(archive, _META_TS, time.time())
        return (len(fresh), len(merged) + upserted)

    def commit(self) -> None:
        """Discard the applied bundle (call only after the flush commits)."""
        self._bundle = _Bundle()

    # -- cache lifetime ------------------------------------------------------
    def warm(self, wf_id: int) -> Dict[type, List[Any]]:
        """Re-derive one workflow's tracking state from its committed rows.

        The replay's deltas are already in the rollup rows, so they are
        discarded; the open batch's bundle is kept.  Returns the rows
        read, by type, for the loader's own id caches.  A warm that fails
        midway forgets what it had tracked, so a retry replays afresh.
        """
        pending, self._bundle = self._bundle, _Bundle()
        read: Dict[type, List[Any]] = {}
        try:
            return _replay(self, wf_id, read)
        except BaseException:
            self.forget(
                wf_id,
                (job.job_id for job in read.get(JobRow, ())),
                (inst.job_instance_id for inst in read.get(JobInstanceRow, ())),
                (host.host_id for host in read.get(HostRow, ())),
            )
            raise
        finally:
            self._bundle = pending

    def forget(
        self, wf_id: int, jobs: Iterable[int], insts: Iterable[int], hosts: Iterable[int]
    ) -> None:
        """Drop one workflow's tracking state (once its rows are committed)."""
        for by_wf in (self._task_rows, self._task_outcome, self._orphan_outcome):
            by_wf.pop(wf_id, None)
        for job_id in jobs:
            self._jobs.pop(job_id, None)
        for ji_id in insts:
            self._inst.pop(ji_id, None)
            self._inst_host.pop(ji_id, None)
            self._inst_subwf.discard(ji_id)
            self._inst_wall.pop(ji_id, None)
            self._pending_host.pop(ji_id, None)
        for host_id in hosts:
            self._hosts.pop(host_id, None)


#: how an upsert folds a bundle's deltas into a stored keyed rollup row
_TYPE_MERGE = {
    "count": "+",
    "succeeded": "+",
    "failed": "+",
    "min_runtime": "min",
    "max_runtime": "max",
    "total_runtime": "+",
}
_HOST_MERGE = {"jobs": "+", "runtime": "+"}
_BUCKET_MERGE = {"runtime": "+"}

#: rollup_workflow columns apply() may change after the insert
_WF_MUTABLE = (
    "wf_uuid",
    "parent_wf_id",
    "root_wf_id",
    "events",
    "tasks_total",
    "tasks_succeeded",
    "tasks_failed",
    "jobs_total",
    "jobs_succeeded",
    "jobs_failed",
    "jobs_retries",
    "job_instances",
    "invocations",
    "invocation_wall",
    "started",
    "ended",
    "status",
    "restarts",
    "updated_seq",
)


# -- rollup_meta ------------------------------------------------------------
def _meta_value(archive: Any, key: str, default: float) -> float:
    row = archive.query(RollupMetaRow).eq("key", key).first()
    return row.value if row is not None else default


def _meta_set(archive: Any, key: str, value: float) -> None:
    if archive.update(RollupMetaRow, {"value": value}, {"key": key}) == 0:
        archive.insert(RollupMetaRow(key=key, value=value))


def commit_seq(archive: Any) -> int:
    """The rollup commit sequence: bumps once per applying flush.

    On a federated archive every source contributes its own counter;
    the sum is monotone across the set, which is all a cache-version
    needs.  Returns 0 for an archive with no rollups yet.
    """
    rows = archive.query(RollupMetaRow).eq("key", _META_SEQ).all()
    return int(sum(row.value for row in rows))


def bump_commit_seq(archive: Any) -> int:
    """Advance the commit sequence by one, in the caller's transaction, for
    a change no loader flush made; returns the new value.  Stamps no
    ``last_commit_ts``: the lag gauge reads loader commits only."""
    seq = int(_meta_value(archive, _META_SEQ, 0.0)) + 1
    _meta_set(archive, _META_SEQ, float(seq))
    return seq


def last_commit_ts(archive: Any) -> Optional[float]:
    """Wall-clock time of the newest rollup commit (None before any)."""
    rows = archive.query(RollupMetaRow).eq("key", _META_TS).all()
    return max((row.value for row in rows), default=None)


def drop_rollups(archive: Any, wf_ids: List[int]) -> int:
    """Delete the rollup rows of the given workflows (tiering path).

    Runs in the caller's transaction; bumps the commit sequence so read
    caches notice the disappearance.  Returns rows removed.
    """
    if not wf_ids:
        return 0
    removed = 0
    for etype in _ROLLUP_TABLES:
        removed += archive.delete(etype, {"wf_id": list(wf_ids)})
    if removed:
        bump_commit_seq(archive)
        _meta_set(archive, _META_TS, time.time())
    return removed


# -- rebuild / verify -------------------------------------------------------
def _replay(
    maintainer: RollupMaintainer,
    wf_id: Optional[int] = None,
    read: Optional[Dict[type, List[Any]]] = None,
) -> Dict[type, List[Any]]:
    """Feed base rows to ``maintainer`` in the loader's order; returns the
    rows read, by type (into ``read`` when given, so a caller sees them
    even if a later read fails).

    Without ``wf_id`` every row of the archive (a rebuild); with it, one
    workflow's rows (a loader's warm): its tables by ``wf_id``, its
    instances by its job ids, their job states by instance ids.  Each
    table is read once, in key order.  Instances are observed bare, then
    their host and sub-workflow attaches, so invocations credit the
    attached host directly; each instance's end comes last, once every
    attempt of its job is known.
    """
    archive = maintainer.archive
    if read is None:
        read = {}

    def select(etype: type, key: Optional[str] = None, by: Any = None) -> List[Any]:
        if wf_id is None:
            queries = [archive.query(etype)]
        elif by is None:
            queries = [archive.query(etype).eq("wf_id", wf_id)]
        else:
            column, ids = by
            ids = sorted(ids)
            queries = [
                archive.query(etype).where(column, "in", ids[i : i + _IN_CHUNK])
                for i in range(0, len(ids), _IN_CHUNK)
            ]
        rows = read[etype] = []
        for query in queries:
            rows += (query.order_by(key) if key else query).all()
        return rows

    observe = maintainer.observe_insert
    for wf in select(WorkflowRow, "wf_id"):
        observe(wf)
    for state in sorted(select(WorkflowStateRow), key=lambda s: s.timestamp):
        observe(state)
    for etype, key in (
        (TaskRow, "task_id"),
        (TaskEdgeRow, None),
        (JobRow, "job_id"),
        (JobEdgeRow, None),
        (HostRow, "host_id"),
    ):
        for row in select(etype, key):
            observe(row)
    attaches, ends = [], []
    job_ids = [job.job_id for job in read[JobRow]]
    for inst in select(JobInstanceRow, "job_instance_id", ("job_id", job_ids)):
        where = {"job_instance_id": inst.job_instance_id}
        attach = {
            column: getattr(inst, column)
            for column in ("host_id", "subwf_id")
            if getattr(inst, column) is not None
        }
        if attach:
            attaches.append((attach, where))
        if inst.exitcode is not None or inst.local_duration is not None:
            end = {"exitcode": inst.exitcode, "local_duration": inst.local_duration}
            ends.append((end, where))
        # the loader inserts an instance bare: these arrive as updates
        inst.host_id = inst.subwf_id = inst.exitcode = inst.local_duration = None
        observe(inst)
    for values, where in attaches:
        maintainer.observe_update(JobInstanceRow, values, where)
    inst_ids = [inst.job_instance_id for inst in read[JobInstanceRow]]
    for row in select(JobStateRow, None, ("job_instance_id", inst_ids)):
        observe(row)
    for row in select(InvocationRow, "invocation_id"):
        observe(row)
    for values, where in ends:
        maintainer.observe_update(JobInstanceRow, values, where)
    return read


def rebuild_rollups(archive: Any) -> int:
    """Derive an archive's rollup rows from its base tables.

    Drops any existing rollup rows and replays the base rows through a
    :class:`RollupMaintainer` in one transaction — the code every loader
    flush runs — then bumps the commit sequence so read caches notice.
    ``last_commit_ts`` is left alone: a rebuild commits no new events, and
    the lag gauge it feeds must keep reading the loader's last commit.
    Returns the number of workflows rolled up.
    """
    with archive.transaction():
        for etype in _ROLLUP_TABLES:
            archive.delete(etype, {})
        seq = int(_meta_value(archive, _META_SEQ, 0.0)) + 1
        ts = last_commit_ts(archive)
        _replay(maintainer := RollupMaintainer(archive))
        maintainer.apply(archive)
        # apply() writes nothing for an archive without rows, and stamps a
        # last_commit_ts this rebuild must not leave behind
        _meta_set(archive, _META_SEQ, float(seq))
        if ts is None:
            archive.delete(RollupMetaRow, {"key": _META_TS})
        else:
            _meta_set(archive, _META_TS, ts)
    return archive.count(RollupWorkflowRow)


def verify_rollups(archive: Any, tolerance: float = 1e-6) -> List[str]:
    """Assert the statistics served from rollups match the full scan.

    Compares every workflow without descendants and every root with
    them.  Returns a list of human-readable mismatches (empty = parity).
    The host time bins are compared by *sum* — the rollup keys buckets
    absolutely while the scan bins relative to the run origin.
    """
    from repro.core.statistics import scan_statistics, workflow_statistics
    from repro.query.api import StampedeQuery

    query = StampedeQuery(archive)
    mismatches: List[str] = []
    workflows = query.workflows()
    targets = [(w, False) for w in workflows]
    targets += [(w, True) for w in workflows if w.parent_wf_id is None]
    for wf, include_descendants in targets:
        options = dict(
            wf_id=wf.wf_id,
            include_descendants=include_descendants,
            include_jobs=False,
        )
        label = f"wf_id={wf.wf_id} descendants={include_descendants}"
        try:
            rolled = workflow_statistics(query, **options)
        except RollupCoverageError:
            mismatches.append(f"{label}: no rollup coverage")
            continue
        scanned = scan_statistics(query, **options)
        mismatches.extend(
            f"{label}: {issue}"
            for issue in _diff_statistics(rolled, scanned, tolerance)
        )
    return mismatches


def _diff_statistics(rolled: Any, scanned: Any, tolerance: float) -> List[str]:
    issues: List[str] = []

    def close(a: Optional[float], b: Optional[float]) -> bool:
        if a is None or b is None:
            return a is None and b is None
        return abs(a - b) <= tolerance

    if not close(rolled.wall_time, scanned.wall_time):
        issues.append(f"wall_time {rolled.wall_time} != {scanned.wall_time}")
    if not close(rolled.cumulative_job_wall_time, scanned.cumulative_job_wall_time):
        issues.append(
            "cumulative_job_wall_time "
            f"{rolled.cumulative_job_wall_time} != "
            f"{scanned.cumulative_job_wall_time}"
        )
    for field in (
        "tasks_total", "tasks_succeeded", "tasks_failed", "tasks_incomplete",
        "jobs_total", "jobs_succeeded", "jobs_failed", "jobs_incomplete",
        "jobs_retries", "subwf_total", "subwf_succeeded", "subwf_failed",
        "subwf_incomplete", "subwf_retries",
    ):
        a = getattr(rolled.counts, field)
        b = getattr(scanned.counts, field)
        if a != b:
            issues.append(f"counts.{field} {a} != {b}")
    rolled_types = {b.type_name: b for b in rolled.breakdown}
    scanned_types = {b.type_name: b for b in scanned.breakdown}
    if set(rolled_types) != set(scanned_types):
        issues.append(
            f"breakdown types {sorted(rolled_types)} != {sorted(scanned_types)}"
        )
    else:
        for name, a in rolled_types.items():
            b = scanned_types[name]
            for attr in (
                "count", "succeeded", "failed",
                "min_runtime", "max_runtime", "total_runtime",
            ):
                if not close(getattr(a, attr), getattr(b, attr)):
                    issues.append(
                        f"breakdown[{name}].{attr} "
                        f"{getattr(a, attr)} != {getattr(b, attr)}"
                    )
    rolled_hosts = {u.hostname: u for u in rolled.hosts}
    scanned_hosts = {u.hostname: u for u in scanned.hosts}
    if set(rolled_hosts) != set(scanned_hosts):
        issues.append(
            f"hosts {sorted(rolled_hosts)} != {sorted(scanned_hosts)}"
        )
    else:
        for name, a in rolled_hosts.items():
            b = scanned_hosts[name]
            if a.jobs != b.jobs:
                issues.append(f"hosts[{name}].jobs {a.jobs} != {b.jobs}")
            if not close(a.total_runtime, b.total_runtime):
                issues.append(
                    f"hosts[{name}].total_runtime "
                    f"{a.total_runtime} != {b.total_runtime}"
                )
            if not close(sum(a.bins.values()), sum(b.bins.values())):
                issues.append(
                    f"hosts[{name}] bin sum "
                    f"{sum(a.bins.values())} != {sum(b.bins.values())}"
                )
    return issues


# -- CLI --------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    """``stampede-rollup``: rebuild / verify / inspect archive rollups."""
    from pathlib import Path

    from repro.core import front

    parser = argparse.ArgumentParser(
        prog="stampede-rollup",
        description="Maintain and verify the archive's materialized rollups.",
    )
    parser.add_argument(
        "command",
        choices=("rebuild", "verify", "status"),
        help="rebuild: derive rollups by replaying the base rows; verify: assert "
        "rollup/scan parity; status: print commit sequence and coverage",
    )
    front.add_archive_argument(parser)
    args = parser.parse_args(argv)

    def run(target) -> int:
        archives = getattr(target, "sources", [target])
        # a shard directory's last source is its long-term tier
        tier = len(archives) - 1 if Path(args.connString).is_dir() else None
        if args.command == "rebuild":
            total = sum(rebuild_rollups(archive) for archive in archives)
            print(f"rebuilt rollups for {total} workflow(s)")
            return 0
        if args.command == "verify":
            failures = 0
            for archive in archives:
                for issue in verify_rollups(archive):
                    print(f"MISMATCH {issue}")
                    failures += 1
            if failures:
                print(f"{failures} mismatch(es)")
                return 1
            print("rollups match the full-scan statistics")
            return 0
        # status
        for index, archive in enumerate(archives):
            seq = commit_seq(archive)
            ts = last_commit_ts(archive)
            lag = time.time() - ts if ts is not None else None
            covered = archive.count(RollupWorkflowRow)
            workflows = archive.count(WorkflowRow)
            name = "long-term tier" if index == tier else f"source {index}"
            print(
                f"{name}: commit_seq={seq} "
                f"coverage={covered}/{workflows} workflows "
                + (f"lag={lag:.1f}s" if lag is not None else "lag=n/a")
            )
        return 0

    return front.serve(args.connString, run)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
