"""The standard Stampede query interface (layer 3 of the three-layer model).

Every analysis tool — statistics, analyzer, dashboard, anomaly detection —
extracts data through this class rather than touching tables directly,
which is exactly the decoupling the paper's architecture prescribes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.archive.store import StampedeArchive
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.model.states import JobState, WorkflowState
from repro.schema.stampede import SUCCESS

__all__ = [
    "JobInstanceDetail",
    "WorkflowSummaryCounts",
    "StampedeQuery",
    "UnknownWorkflowError",
]


class UnknownWorkflowError(ValueError):
    """A read named no workflow of the archive: an unknown id or uuid, or
    none at all where the archive does not hold exactly one root."""


@dataclass
class JobInstanceDetail:
    """One job instance with its derived timing metrics (jobs.txt row)."""

    exec_job_id: str
    try_number: int
    site: Optional[str]
    hostname: Optional[str]
    queue_time: Optional[float]  # SUBMIT -> EXECUTE delay
    runtime: Optional[float]  # engine-measured duration
    invocation_duration: Optional[float]  # sum of remote durations
    remote_cpu_time: Optional[float]
    exitcode: Optional[int]
    job_instance_id: int
    subwf_id: Optional[int] = None


@dataclass
class WorkflowSummaryCounts:
    """The Table I row set: tasks / jobs / sub-workflows by outcome."""

    tasks_succeeded: int = 0
    tasks_failed: int = 0
    tasks_incomplete: int = 0
    tasks_total: int = 0
    tasks_retries: int = 0
    jobs_succeeded: int = 0
    jobs_failed: int = 0
    jobs_incomplete: int = 0
    jobs_total: int = 0
    jobs_retries: int = 0
    subwf_succeeded: int = 0
    subwf_failed: int = 0
    subwf_incomplete: int = 0
    subwf_total: int = 0
    subwf_retries: int = 0


class StampedeQuery:
    """Read-side API over a StampedeArchive."""

    def __init__(self, archive: StampedeArchive):
        self.archive = archive

    @classmethod
    def of(cls, source) -> "StampedeQuery":
        """``source`` if it is a query already, else a query over it."""
        return source if isinstance(source, cls) else cls(source)

    # -- workflows ------------------------------------------------------------
    def workflows(self) -> List[WorkflowRow]:
        return self.archive.query(WorkflowRow).order_by("wf_id").all()

    def workflow(self, wf_id: int) -> Optional[WorkflowRow]:
        return self.archive.query(WorkflowRow).eq("wf_id", wf_id).first()

    def workflow_by_uuid(self, wf_uuid: str) -> Optional[WorkflowRow]:
        return self.archive.query(WorkflowRow).eq("wf_uuid", wf_uuid).first()

    def root_workflows(self) -> List[WorkflowRow]:
        return [w for w in self.workflows() if w.parent_wf_id is None]

    def resolve(
        self, wf_id: Optional[int] = None, wf_uuid: Optional[str] = None
    ) -> WorkflowRow:
        """The workflow ``wf_id`` names, else ``wf_uuid``, else the
        archive's only root; :class:`UnknownWorkflowError` otherwise."""
        if wf_id is not None:
            wf, named = self.workflow(wf_id), f"wf_id {wf_id}"
        elif wf_uuid is not None:
            wf, named = self.workflow_by_uuid(wf_uuid), f"uuid {wf_uuid!r}"
        else:
            roots = self.root_workflows()
            if len(roots) != 1:
                raise UnknownWorkflowError(
                    f"archive holds {len(roots)} root workflows; name one by wf_uuid"
                )
            return roots[0]
        if wf is None:
            raise UnknownWorkflowError(f"no workflow with {named}")
        return wf

    def sub_workflows(self, wf_id: int) -> List[WorkflowRow]:
        return (
            self.archive.query(WorkflowRow)
            .eq("parent_wf_id", wf_id)
            .order_by("wf_id")
            .all()
        )

    def descendant_workflows(self, wf_id: int) -> List[WorkflowRow]:
        """All workflows beneath ``wf_id`` in the hierarchy (excluding it)."""
        out: List[WorkflowRow] = []
        frontier = [wf_id]
        while frontier:
            current = frontier.pop(0)
            children = self.sub_workflows(current)
            out.extend(children)
            frontier.extend(c.wf_id for c in children)
        return out

    def workflow_states(self, wf_id: int) -> List[WorkflowStateRow]:
        return (
            self.archive.query(WorkflowStateRow)
            .eq("wf_id", wf_id)
            .order_by("timestamp")
            .all()
        )

    def workflow_wall_time(self, wf_id: int) -> Optional[float]:
        """Wall time from WORKFLOW_STARTED to WORKFLOW_TERMINATED."""
        states = self.workflow_states(wf_id)
        start = next(
            (s.timestamp for s in states
             if s.state == WorkflowState.WORKFLOW_STARTED.value),
            None,
        )
        end = next(
            (s.timestamp for s in reversed(states)
             if s.state == WorkflowState.WORKFLOW_TERMINATED.value),
            None,
        )
        if start is None or end is None:
            return None
        return end - start

    def workflow_status(self, wf_id: int) -> Optional[int]:
        """Termination status of the most recent run, None while running."""
        states = self.workflow_states(wf_id)
        for state in reversed(states):
            if state.state == WorkflowState.WORKFLOW_TERMINATED.value:
                return state.status
        return None

    # -- static structure ------------------------------------------------------
    def tasks(self, wf_id: int) -> List[TaskRow]:
        return self.archive.query(TaskRow).eq("wf_id", wf_id).order_by("task_id").all()

    def task_edges(self, wf_id: int) -> List[TaskEdgeRow]:
        return self.archive.query(TaskEdgeRow).eq("wf_id", wf_id).all()

    def jobs(self, wf_id: int) -> List[JobRow]:
        return self.archive.query(JobRow).eq("wf_id", wf_id).order_by("job_id").all()

    def job_edges(self, wf_id: int) -> List[JobEdgeRow]:
        return self.archive.query(JobEdgeRow).eq("wf_id", wf_id).all()

    def job_by_exec_id(self, wf_id: int, exec_job_id: str) -> Optional[JobRow]:
        return (
            self.archive.query(JobRow)
            .eq("wf_id", wf_id)
            .eq("exec_job_id", exec_job_id)
            .first()
        )

    # -- execution ------------------------------------------------------------
    def job_instances(self, wf_id: int) -> List[JobInstanceRow]:
        job_ids = [j.job_id for j in self.jobs(wf_id)]
        if not job_ids:
            return []
        return (
            self.archive.query(JobInstanceRow)
            .where("job_id", "in", job_ids)
            .order_by("job_instance_id")
            .all()
        )

    def job_instances_for_job(self, job_id: int) -> List[JobInstanceRow]:
        return (
            self.archive.query(JobInstanceRow)
            .eq("job_id", job_id)
            .order_by("job_submit_seq")
            .all()
        )

    def job_states(self, job_instance_id: int) -> List[JobStateRow]:
        return (
            self.archive.query(JobStateRow)
            .eq("job_instance_id", job_instance_id)
            .order_by("jobstate_submit_seq")
            .all()
        )

    def last_job_state(self, job_instance_id: int) -> Optional[JobStateRow]:
        states = self.job_states(job_instance_id)
        return states[-1] if states else None

    def invocations(self, wf_id: int) -> List[InvocationRow]:
        return (
            self.archive.query(InvocationRow)
            .eq("wf_id", wf_id)
            .order_by("invocation_id")
            .all()
        )

    def invocations_for_instance(self, job_instance_id: int) -> List[InvocationRow]:
        return (
            self.archive.query(InvocationRow)
            .eq("job_instance_id", job_instance_id)
            .order_by("task_submit_seq")
            .all()
        )

    def hosts(self, wf_id: int) -> List[HostRow]:
        return self.archive.query(HostRow).eq("wf_id", wf_id).order_by("host_id").all()

    def host(self, host_id: int) -> Optional[HostRow]:
        return self.archive.query(HostRow).eq("host_id", host_id).first()

    # -- derived metrics ---------------------------------------------------------
    def job_instance_detail(
        self,
        job: JobRow,
        instance: JobInstanceRow,
        hosts_by_id: Optional[Dict[int, HostRow]] = None,
    ) -> JobInstanceDetail:
        states = {s.state: s.timestamp for s in self.job_states(instance.job_instance_id)}
        submit_ts = states.get(JobState.SUBMIT.value)
        execute_ts = states.get(JobState.EXECUTE.value)
        queue_time = (
            execute_ts - submit_ts
            if submit_ts is not None and execute_ts is not None
            else None
        )
        invocations = self.invocations_for_instance(instance.job_instance_id)
        inv_duration = (
            sum(i.remote_duration for i in invocations) if invocations else None
        )
        cpu_times = [
            i.remote_cpu_time for i in invocations if i.remote_cpu_time is not None
        ]
        hostname: Optional[str] = None
        if instance.host_id is not None:
            if hosts_by_id is not None:
                host = hosts_by_id.get(instance.host_id)
            else:
                host = self.host(instance.host_id)
            hostname = host.hostname if host else None
        return JobInstanceDetail(
            exec_job_id=job.exec_job_id,
            try_number=instance.job_submit_seq,
            site=instance.site,
            hostname=hostname,
            queue_time=queue_time,
            runtime=instance.local_duration,
            invocation_duration=inv_duration,
            remote_cpu_time=sum(cpu_times) if cpu_times else None,
            exitcode=instance.exitcode,
            job_instance_id=instance.job_instance_id,
            subwf_id=instance.subwf_id,
        )

    def job_details(self, wf_id: int) -> List[JobInstanceDetail]:
        """All job-instance details of a workflow, in submit order."""
        jobs_by_id = {j.job_id: j for j in self.jobs(wf_id)}
        hosts_by_id = {h.host_id: h for h in self.hosts(wf_id)}
        return [
            self.job_instance_detail(jobs_by_id[inst.job_id], inst, hosts_by_id)
            for inst in self.job_instances(wf_id)
            if inst.job_id in jobs_by_id
        ]

    def failed_job_instances(self, wf_id: int) -> List[Tuple[JobRow, JobInstanceRow]]:
        jobs_by_id = {j.job_id: j for j in self.jobs(wf_id)}
        return [
            (jobs_by_id[inst.job_id], inst)
            for inst in self.job_instances(wf_id)
            if inst.exitcode is not None
            and inst.exitcode != SUCCESS
            and inst.job_id in jobs_by_id
        ]

    def summary_counts(
        self, wf_id: int, include_descendants: bool = True
    ) -> WorkflowSummaryCounts:
        """Aggregate task/job/sub-workflow outcome counts (Table I)."""
        counts = WorkflowSummaryCounts()
        wf_ids = [wf_id] + (
            [w.wf_id for w in self.descendant_workflows(wf_id)]
            if include_descendants
            else []
        )
        for current in wf_ids:
            self._accumulate_counts(current, counts)
        for sub in self.descendant_workflows(wf_id) if include_descendants else []:
            counts.subwf_total += 1
            status = self.workflow_status(sub.wf_id)
            if status is None:
                counts.subwf_incomplete += 1
            elif status == SUCCESS:
                counts.subwf_succeeded += 1
            else:
                counts.subwf_failed += 1
            restarts = max(
                (s.restart_count for s in self.workflow_states(sub.wf_id)), default=0
            )
            counts.subwf_retries += restarts
        return counts

    def _accumulate_counts(self, wf_id: int, counts: WorkflowSummaryCounts) -> None:
        jobs = self.jobs(wf_id)
        instances = self.job_instances(wf_id)
        by_job: Dict[int, List[JobInstanceRow]] = {}
        for inst in instances:
            by_job.setdefault(inst.job_id, []).append(inst)
        tasks = self.tasks(wf_id)
        task_outcome: Dict[str, Optional[int]] = {}
        for inv in self.invocations(wf_id):
            if inv.abs_task_id is not None:
                prev = task_outcome.get(inv.abs_task_id)
                # Any success wins (a retry may have fixed an earlier failure).
                if prev is None or prev != 0:
                    task_outcome[inv.abs_task_id] = inv.exitcode
        for task in tasks:
            counts.tasks_total += 1
            outcome = task_outcome.get(task.abs_task_id)
            if outcome is None:
                counts.tasks_incomplete += 1
            elif outcome == 0:
                counts.tasks_succeeded += 1
            else:
                counts.tasks_failed += 1
        for job in jobs:
            counts.jobs_total += 1
            attempts = sorted(by_job.get(job.job_id, []), key=lambda i: i.job_submit_seq)
            counts.jobs_retries += max(0, len(attempts) - 1)
            if not attempts or attempts[-1].exitcode is None:
                counts.jobs_incomplete += 1
            elif attempts[-1].exitcode == 0:
                counts.jobs_succeeded += 1
            else:
                counts.jobs_failed += 1

    def cumulative_job_wall_time(
        self, wf_id: int, include_descendants: bool = True
    ) -> float:
        """Sum of invocation durations: 'workflow cumulative job wall time'.

        Invocations of job instances that merely wrap a sub-workflow
        (``subwf_id`` set) are excluded — their duration spans the child
        run, whose own invocations are already counted.
        """
        wf_ids = [wf_id] + (
            [w.wf_id for w in self.descendant_workflows(wf_id)]
            if include_descendants
            else []
        )
        total = 0.0
        for current in wf_ids:
            subwf_instances = {
                inst.job_instance_id
                for inst in self.job_instances(current)
                if inst.subwf_id is not None
            }
            total += sum(
                i.remote_duration
                for i in self.invocations(current)
                if i.job_instance_id not in subwf_instances
            )
        return total
