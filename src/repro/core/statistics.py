"""stampede_statistics: performance metrics for workflow runs (paper §VII).

Provides the workflow-level and job-level statistics the paper lists:

* workflow wall time;
* workflow cumulative job wall time;
* breakdown of jobs by count and by runtime per job type (breakdown.txt,
  Table II);
* per-job rows with try / site / invocation duration / queue time /
  runtime / exit code / host (jobs.txt, Tables III & IV);
* breakdown of tasks and jobs over time on hosts.

:func:`workflow_statistics` serves the bundle from the archive's rollup
rows (:mod:`repro.core.rollup`) and fails loudly where they are missing;
:func:`scan_statistics` recomputes it from the base tables through the
standard query interface, as the reference rollups are verified against.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.rollup import TIERS, RollupCoverageError
from repro.model.entities import (
    RollupHostBucketRow,
    RollupHostRow,
    RollupTypeRow,
    RollupWorkflowRow,
)
from repro.query.api import JobInstanceDetail, StampedeQuery, WorkflowSummaryCounts
from repro.schema.stampede import SUCCESS

__all__ = [
    "TypeBreakdown",
    "HostUsage",
    "WorkflowStatistics",
    "job_type_breakdown",
    "job_rows",
    "host_breakdown",
    "workflow_statistics",
    "scan_statistics",
    "main",
]


@dataclass
class TypeBreakdown:
    """Aggregate runtimes of one job type (one row of breakdown.txt)."""

    type_name: str
    count: int = 0
    succeeded: int = 0
    failed: int = 0
    min_runtime: float = float("inf")
    max_runtime: float = 0.0
    total_runtime: float = 0.0

    @property
    def mean_runtime(self) -> float:
        return self.total_runtime / self.count if self.count else 0.0

    def add(self, runtime: float, success: bool) -> None:
        self.count += 1
        if success:
            self.succeeded += 1
        else:
            self.failed += 1
        self.min_runtime = min(self.min_runtime, runtime)
        self.max_runtime = max(self.max_runtime, runtime)
        self.total_runtime += runtime


@dataclass
class HostUsage:
    """Jobs and runtime executed by one host (optionally per time bin)."""

    hostname: str
    jobs: int = 0
    total_runtime: float = 0.0
    bins: Dict[int, float] = field(default_factory=dict)  # bin index -> runtime


@dataclass
class WorkflowStatistics:
    """Everything stampede_statistics reports for one workflow."""

    wf_id: int
    wf_uuid: str
    wall_time: Optional[float]
    cumulative_job_wall_time: float
    counts: WorkflowSummaryCounts
    breakdown: List[TypeBreakdown]
    jobs: List[JobInstanceDetail]
    hosts: List[HostUsage]


def job_type_breakdown(
    query: StampedeQuery, wf_id: int, include_descendants: bool = False
) -> List[TypeBreakdown]:
    """Per-type count/success/fail/min/max/mean/total over invocations.

    Types follow the paper's Table II: the transformation name of each
    invocation (``exec0``, ``file.Output_0`` …).
    """
    wf_ids = [wf_id] + (
        [w.wf_id for w in query.descendant_workflows(wf_id)]
        if include_descendants
        else []
    )
    table: Dict[str, TypeBreakdown] = {}
    for current in wf_ids:
        for inv in query.invocations(current):
            row = table.setdefault(inv.transformation, TypeBreakdown(inv.transformation))
            row.add(inv.remote_duration, inv.exitcode == 0)
    return sorted(table.values(), key=lambda r: r.type_name)


def job_rows(query: StampedeQuery, wf_id: int) -> List[JobInstanceDetail]:
    """The jobs.txt rows (Tables III and IV) for one workflow."""
    return query.job_details(wf_id)


def host_breakdown(
    query: StampedeQuery,
    wf_id: int,
    include_descendants: bool = True,
    bin_seconds: float = 60.0,
) -> List[HostUsage]:
    """Breakdown of jobs and runtime over hosts (and time bins)."""
    wf_ids = [wf_id] + (
        [w.wf_id for w in query.descendant_workflows(wf_id)]
        if include_descendants
        else []
    )
    usage: Dict[str, HostUsage] = {}
    origin: Optional[float] = None
    for current in wf_ids:
        start = None
        states = query.workflow_states(current)
        if states:
            start = states[0].timestamp
        if origin is None or (start is not None and start < origin):
            origin = start
    origin = origin or 0.0
    for current in wf_ids:
        hosts_by_id = {h.host_id: h for h in query.hosts(current)}
        jobs_by_id = {j.job_id: j for j in query.jobs(current)}
        for inst in query.job_instances(current):
            if inst.job_id not in jobs_by_id:
                continue
            host = hosts_by_id.get(inst.host_id) if inst.host_id else None
            hostname = host.hostname if host else "unknown"
            entry = usage.setdefault(hostname, HostUsage(hostname))
            entry.jobs += 1
            runtime = inst.local_duration or 0.0
            entry.total_runtime += runtime
            for inv in query.invocations_for_instance(inst.job_instance_id):
                bin_index = int((inv.start_time - origin) // bin_seconds)
                entry.bins[bin_index] = entry.bins.get(bin_index, 0.0) + inv.remote_duration
    return sorted(usage.values(), key=lambda u: u.hostname)


def workflow_statistics(
    archive_or_query,
    wf_id: Optional[int] = None,
    wf_uuid: Optional[str] = None,
    include_descendants: bool = True,
    include_jobs: bool = True,
) -> WorkflowStatistics:
    """The full statistics bundle for one workflow run, served from the
    archive's rollup rows (:mod:`repro.core.rollup`).

    O(descendants) point reads whatever the archive's size.  Raises
    :class:`~repro.core.rollup.RollupCoverageError` when the workflow or
    a descendant has no rollup row.  The ``hosts`` breakdown keys its
    ``bins`` by the epoch-aligned 60 s bucket index rather than the
    scan's origin-relative bin; bin *sums* are identical.
    ``include_jobs=False`` skips the per-job-instance detail rows (the
    dashboard summary does not render them, and they are the one
    per-instance query).
    """
    query = StampedeQuery.of(archive_or_query)
    wf = query.resolve(wf_id, wf_uuid)
    archive = query.archive
    wf_id = wf.wf_id
    descendants = query.descendant_workflows(wf_id) if include_descendants else []
    wf_ids = [wf_id] + [w.wf_id for w in descendants]
    rollups: Dict[int, RollupWorkflowRow] = {}
    for current in wf_ids:
        row = archive.query(RollupWorkflowRow).eq("wf_id", current).first()
        if row is None:
            raise RollupCoverageError(current)
        rollups[current] = row

    counts = WorkflowSummaryCounts()
    cumulative = 0.0
    for row in rollups.values():
        counts.tasks_total += row.tasks_total
        counts.tasks_succeeded += row.tasks_succeeded
        counts.tasks_failed += row.tasks_failed
        counts.jobs_total += row.jobs_total
        counts.jobs_succeeded += row.jobs_succeeded
        counts.jobs_failed += row.jobs_failed
        counts.jobs_retries += row.jobs_retries
        cumulative += row.invocation_wall
    counts.tasks_incomplete = (
        counts.tasks_total - counts.tasks_succeeded - counts.tasks_failed
    )
    counts.jobs_incomplete = (
        counts.jobs_total - counts.jobs_succeeded - counts.jobs_failed
    )
    for sub in descendants:
        row = rollups[sub.wf_id]
        counts.subwf_total += 1
        if row.ended is None:
            counts.subwf_incomplete += 1
        elif row.status == SUCCESS:
            counts.subwf_succeeded += 1
        else:
            counts.subwf_failed += 1
        counts.subwf_retries += row.restarts

    root_row = rollups[wf_id]
    wall_time = (
        root_row.ended - root_row.started
        if root_row.started is not None and root_row.ended is not None
        else None
    )

    breakdown: Dict[str, TypeBreakdown] = {}
    hosts: Dict[str, HostUsage] = {}
    for current in wf_ids:
        for trow in archive.query(RollupTypeRow).eq("wf_id", current).all():
            entry = breakdown.setdefault(
                trow.transformation, TypeBreakdown(trow.transformation)
            )
            entry.count += trow.count
            entry.succeeded += trow.succeeded
            entry.failed += trow.failed
            entry.min_runtime = min(entry.min_runtime, trow.min_runtime)
            entry.max_runtime = max(entry.max_runtime, trow.max_runtime)
            entry.total_runtime += trow.total_runtime
        for hrow in archive.query(RollupHostRow).eq("wf_id", current).all():
            if not hrow.jobs and abs(hrow.runtime) <= 1e-9:
                continue  # fully moved off "unknown": an empty residue row
            usage = hosts.setdefault(hrow.hostname, HostUsage(hrow.hostname))
            usage.jobs += hrow.jobs
            usage.total_runtime += hrow.runtime
        for brow in (
            archive.query(RollupHostBucketRow)
            .eq("wf_id", current)
            .eq("tier", TIERS[0])
            .all()
        ):
            if abs(brow.runtime) <= 1e-9 and brow.hostname not in hosts:
                continue  # moved-off residue for a host with no real usage
            usage = hosts.setdefault(brow.hostname, HostUsage(brow.hostname))
            usage.bins[brow.bucket] = usage.bins.get(brow.bucket, 0.0) + brow.runtime

    return WorkflowStatistics(
        wf_id=wf_id,
        wf_uuid=wf.wf_uuid,
        wall_time=wall_time,
        cumulative_job_wall_time=cumulative,
        counts=counts,
        breakdown=sorted(breakdown.values(), key=lambda b: b.type_name),
        jobs=query.job_details(wf_id) if include_jobs else [],
        hosts=sorted(hosts.values(), key=lambda u: u.hostname),
    )


def scan_statistics(
    archive_or_query,
    wf_id: Optional[int] = None,
    wf_uuid: Optional[str] = None,
    include_descendants: bool = True,
    include_jobs: bool = True,
) -> WorkflowStatistics:
    """:func:`workflow_statistics` recomputed from the base tables.

    O(archive): the independent reference that
    :func:`~repro.core.rollup.verify_rollups` checks the served
    statistics against, not a serving path.
    """
    query = StampedeQuery.of(archive_or_query)
    wf = query.resolve(wf_id, wf_uuid)
    wf_id = wf.wf_id
    return WorkflowStatistics(
        wf_id=wf_id,
        wf_uuid=wf.wf_uuid,
        wall_time=query.workflow_wall_time(wf_id),
        cumulative_job_wall_time=query.cumulative_job_wall_time(
            wf_id, include_descendants
        ),
        counts=query.summary_counts(wf_id, include_descendants),
        breakdown=job_type_breakdown(query, wf_id, include_descendants),
        jobs=job_rows(query, wf_id) if include_jobs else [],
        hosts=host_breakdown(query, wf_id, include_descendants),
    )


def main(argv: Optional[list] = None) -> int:
    """Command line: the Tables I-IV report document for each selected run."""
    from repro.core import front
    from repro.core.reports import render_all, write_report_files

    parser = argparse.ArgumentParser(
        prog="stampede-statistics",
        description="Workflow and job statistics from a Stampede archive.",
    )
    front.add_archive_argument(parser)
    parser.add_argument("--wf-uuid", help="workflow to report (default: every root)")
    parser.add_argument(
        "--no-descendants",
        action="store_true",
        help="exclude sub-workflows from aggregates",
    )
    parser.add_argument(
        "-o", "--output-dir",
        help="also write summary.txt / breakdown.txt / jobs.txt / hosts.txt "
        "here, into one <wf_uuid>/ subdirectory per report when there are several",
    )
    args = parser.parse_args(argv)

    def report(archive) -> int:
        workflows = front.selected_workflows(archive, args.wf_uuid)
        for index, wf in enumerate(workflows):
            stats = workflow_statistics(
                archive,
                wf_id=wf.wf_id,
                include_descendants=not args.no_descendants,
            )
            if index:
                print()
            print(render_all(stats))
            if args.output_dir:
                directory = (
                    args.output_dir
                    if len(workflows) == 1
                    else os.path.join(args.output_dir, wf.wf_uuid)
                )
                for path in write_report_files(stats, directory):
                    print(f"wrote {path}")
        return 0

    return front.serve(args.connString, report)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
