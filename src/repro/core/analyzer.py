"""stampede_analyzer: interactive workflow troubleshooting (paper §VII-B).

Connects to the Stampede data store, summarizes how many jobs succeeded
and failed, and for each failed job prints its last known state, the
location of its output and error files, and any captured stdout/stderr.
For hierarchical workflows it identifies failures at the top level and
lets the user drill down into the failed sub-workflows.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import List, Optional

from repro.model.entities import JobInstanceRow, JobRow
from repro.query.api import StampedeQuery
from repro.schema.stampede import SUCCESS

__all__ = ["FailedJobReport", "WorkflowAnalysis", "analyze", "render_analysis", "main"]


@dataclass
class FailedJobReport:
    """Diagnostic bundle for one failed job instance."""

    exec_job_id: str
    try_number: int
    last_state: Optional[str]
    exitcode: Optional[int]
    site: Optional[str]
    hostname: Optional[str]
    stdout_file: Optional[str]
    stderr_file: Optional[str]
    stdout_text: Optional[str]
    stderr_text: Optional[str]


@dataclass
class WorkflowAnalysis:
    """stampede_analyzer output for one workflow (recursively)."""

    wf_id: int
    wf_uuid: str
    dag_file_name: str
    status: Optional[int]  # None = running
    total_jobs: int
    succeeded: int
    failed: int
    incomplete: int
    failed_jobs: List[FailedJobReport] = field(default_factory=list)
    sub_analyses: List["WorkflowAnalysis"] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and all(s.ok for s in self.sub_analyses)


def analyze(
    archive_or_query,
    wf_id: Optional[int] = None,
    wf_uuid: Optional[str] = None,
    recurse: bool = True,
    recurse_into_successful: bool = False,
) -> WorkflowAnalysis:
    """Analyze one workflow; drill down into failed sub-workflows.

    ``recurse_into_successful`` forces full hierarchy traversal; the default
    mirrors the paper's tool, which "first identifies for users the failures
    at the top level workflow and then allows them to drill down".
    """
    query = (
        archive_or_query
        if isinstance(archive_or_query, StampedeQuery)
        else StampedeQuery(archive_or_query)
    )
    if wf_id is None:
        if wf_uuid is None:
            roots = query.root_workflows()
            if len(roots) != 1:
                raise ValueError(
                    f"archive holds {len(roots)} root workflows; specify one"
                )
            wf = roots[0]
        else:
            wf = query.workflow_by_uuid(wf_uuid)
            if wf is None:
                raise ValueError(f"no workflow with uuid {wf_uuid!r}")
        wf_id = wf.wf_id
    else:
        wf = query.workflow(wf_id)
        if wf is None:
            raise ValueError(f"no workflow with wf_id {wf_id}")

    jobs = query.jobs(wf_id)
    instances = query.job_instances(wf_id)
    latest: dict = {}
    for inst in instances:
        prev = latest.get(inst.job_id)
        if prev is None or inst.job_submit_seq > prev.job_submit_seq:
            latest[inst.job_id] = inst

    succeeded = failed = incomplete = 0
    failed_pairs: List[tuple] = []
    for job in jobs:
        inst = latest.get(job.job_id)
        if inst is None or inst.exitcode is None:
            incomplete += 1
        elif inst.exitcode == SUCCESS:
            succeeded += 1
        else:
            failed += 1
            failed_pairs.append((job, inst))

    analysis = WorkflowAnalysis(
        wf_id=wf_id,
        wf_uuid=wf.wf_uuid,
        dag_file_name=wf.dag_file_name,
        status=query.workflow_status(wf_id),
        total_jobs=len(jobs),
        succeeded=succeeded,
        failed=failed,
        incomplete=incomplete,
        failed_jobs=[_failed_report(query, job, inst) for job, inst in failed_pairs],
    )
    if recurse:
        for sub in query.sub_workflows(wf_id):
            sub_status = query.workflow_status(sub.wf_id)
            if recurse_into_successful or sub_status != SUCCESS:
                analysis.sub_analyses.append(
                    analyze(
                        query,
                        wf_id=sub.wf_id,
                        recurse=True,
                        recurse_into_successful=recurse_into_successful,
                    )
                )
    return analysis


def _failed_report(
    query: StampedeQuery, job: JobRow, inst: JobInstanceRow
) -> FailedJobReport:
    last = query.last_job_state(inst.job_instance_id)
    hostname = None
    if inst.host_id is not None:
        host = query.host(inst.host_id)
        hostname = host.hostname if host else None
    return FailedJobReport(
        exec_job_id=job.exec_job_id,
        try_number=inst.job_submit_seq,
        last_state=last.state if last else None,
        exitcode=inst.exitcode,
        site=inst.site,
        hostname=hostname,
        stdout_file=inst.stdout_file,
        stderr_file=inst.stderr_file,
        stdout_text=inst.stdout_text,
        stderr_text=inst.stderr_text,
    )


def render_analysis(analysis: WorkflowAnalysis, depth: int = 0) -> str:
    """Human-readable analyzer output, indented per hierarchy level."""
    pad = "  " * depth
    status = (
        "running"
        if analysis.status is None
        else ("success" if analysis.status == SUCCESS else "FAILED")
    )
    lines = [
        f"{pad}************** Workflow {analysis.wf_uuid} "
        f"({analysis.dag_file_name or 'n/a'}) — {status} **************",
        f"{pad} total jobs: {analysis.total_jobs}   "
        f"succeeded: {analysis.succeeded}   failed: {analysis.failed}   "
        f"incomplete: {analysis.incomplete}",
    ]
    for fj in analysis.failed_jobs:
        lines.append(f"{pad} -- failed job {fj.exec_job_id} (try {fj.try_number})")
        lines.append(
            f"{pad}    last state: {fj.last_state}   exitcode: {fj.exitcode}   "
            f"site: {fj.site}   host: {fj.hostname}"
        )
        if fj.stdout_file or fj.stderr_file:
            lines.append(
                f"{pad}    stdout: {fj.stdout_file or '-'}   "
                f"stderr: {fj.stderr_file or '-'}"
            )
        if fj.stdout_text:
            lines.append(f"{pad}    captured stdout: {fj.stdout_text}")
        if fj.stderr_text:
            lines.append(f"{pad}    captured stderr: {fj.stderr_text}")
    for sub in analysis.sub_analyses:
        lines.append(render_analysis(sub, depth + 1))
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stampede-analyzer",
        description="Debug failed jobs in a Stampede archive.",
    )
    parser.add_argument("connString", help="sqlite:///run.db, a shard directory or a glob")
    parser.add_argument("--wf-uuid", help="workflow to analyze (defaults to the root)")
    parser.add_argument(
        "--all",
        action="store_true",
        help="recurse into successful sub-workflows as well",
    )
    args = parser.parse_args(argv)
    from repro.archive.shard import open_archive

    archive = open_archive(args.connString)
    analysis = analyze(
        archive, wf_uuid=args.wf_uuid, recurse_into_successful=args.all
    )
    print(render_analysis(analysis))
    return 0 if analysis.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
