"""Text renderers for the stampede-statistics outputs.

Reproduces the human-readable formats of the paper's Tables I–IV:
the summary block, ``breakdown.txt`` and both ``jobs.txt`` sections.
"""
from __future__ import annotations

from typing import List

from repro.core.statistics import HostUsage, TypeBreakdown, WorkflowStatistics
from repro.query.api import JobInstanceDetail
from repro.util.text import render_table
from repro.util.timeutil import format_duration

__all__ = [
    "render_summary",
    "render_breakdown",
    "render_jobs",
    "render_jobs_timing",
    "render_hosts",
    "render_host_timeline",
    "render_gantt",
    "render_all",
    "write_report_files",
]


def render_summary(stats: WorkflowStatistics) -> str:
    """The Table I block: outcome counts + wall times."""
    c = stats.counts
    rows = [
        ["Tasks", c.tasks_succeeded, c.tasks_failed, c.tasks_incomplete,
         c.tasks_total, c.tasks_retries, c.tasks_total + c.tasks_retries],
        ["Jobs", c.jobs_succeeded, c.jobs_failed, c.jobs_incomplete,
         c.jobs_total, c.jobs_retries, c.jobs_total + c.jobs_retries],
        ["Sub Workflows", c.subwf_succeeded, c.subwf_failed, c.subwf_incomplete,
         c.subwf_total, c.subwf_retries, c.subwf_total + c.subwf_retries],
    ]
    table = render_table(
        ["Type", "Succeeded", "Failed", "Incomplete", "Total", "Retries",
         "Total+Retries"],
        rows,
    )
    lines = [table, ""]
    if stats.wall_time is not None:
        lines.append(
            f"Workflow wall time                          : "
            f"{format_duration(stats.wall_time)}, ({stats.wall_time:.0f} seconds)"
        )
    else:
        lines.append("Workflow wall time                          : (still running)")
    cum = stats.cumulative_job_wall_time
    lines.append(
        f"Workflow cumulative job wall time           : "
        f"{format_duration(cum)}, ({cum:.0f} seconds)"
    )
    return "\n".join(lines)


def render_breakdown(breakdown: List[TypeBreakdown]) -> str:
    """breakdown.txt (Table II): per-type count/success/fail/min/max/mean/total."""
    rows = [
        [
            b.type_name,
            b.count,
            b.succeeded,
            b.failed,
            f"{b.min_runtime:.1f}",
            f"{b.max_runtime:.1f}",
            f"{b.mean_runtime:.1f}",
            f"{b.total_runtime:.1f}",
        ]
        for b in breakdown
    ]
    return render_table(
        ["Type", "Count", "Success", "Failed", "Min", "Max", "Mean", "Total"], rows
    )


def render_jobs(jobs: List[JobInstanceDetail]) -> str:
    """jobs.txt, first section (Table III): job / try / site / invocation dur."""
    rows = [
        [
            j.exec_job_id,
            j.try_number,
            j.site or "None",
            f"{j.invocation_duration:.1f}" if j.invocation_duration is not None else "-",
        ]
        for j in jobs
    ]
    return render_table(["Job", "Try", "Site", "InvocationDuration"], rows)


def render_jobs_timing(jobs: List[JobInstanceDetail]) -> str:
    """jobs.txt, second section (Table IV): queue time / runtime / exit / host."""
    rows = [
        [
            j.exec_job_id,
            f"{j.queue_time:.2f}" if j.queue_time is not None else "-",
            f"{j.runtime:.1f}" if j.runtime is not None else "-",
            j.exitcode if j.exitcode is not None else "-",
            j.hostname or "None",
        ]
        for j in jobs
    ]
    return render_table(["Job", "QueueTime", "Runtime", "Exit", "Host"], rows)


def render_hosts(hosts: List[HostUsage]) -> str:
    """Breakdown of jobs and total runtime per host."""
    rows = [
        [h.hostname, h.jobs, f"{h.total_runtime:.1f}"]
        for h in hosts
    ]
    return render_table(["Host", "Jobs", "TotalRuntime"], rows)


def render_host_timeline(hosts: List[HostUsage], bin_seconds: float = 60.0) -> str:
    """The "breakdown of tasks and jobs over time on hosts" view: one row
    per host, one column per time bin, cells are the runtime executed in
    that bin (seconds)."""
    if not hosts:
        return "(no host usage recorded)"
    max_bin = max((max(h.bins) for h in hosts if h.bins), default=0)
    headers = ["Host"] + [
        f"t{int(i * bin_seconds)}" for i in range(max_bin + 1)
    ]
    rows = []
    for h in hosts:
        rows.append(
            [h.hostname]
            + [f"{h.bins.get(i, 0.0):.0f}" for i in range(max_bin + 1)]
        )
    return render_table(headers, rows)


def write_report_files(stats: WorkflowStatistics, directory) -> List[str]:
    """Write the stampede-statistics output files the paper describes —
    ``summary.txt``, ``breakdown.txt``, ``jobs.txt`` — into ``directory``.
    Returns the paths written."""
    import os

    os.makedirs(directory, exist_ok=True)
    outputs = {
        "summary.txt": render_summary(stats),
        "breakdown.txt": render_breakdown(stats.breakdown),
        "jobs.txt": render_jobs(stats.jobs) + "\n\n" + render_jobs_timing(stats.jobs),
        "hosts.txt": render_hosts(stats.hosts) + "\n\n"
        + render_host_timeline(stats.hosts),
    }
    paths = []
    for name, text in outputs.items():
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        paths.append(path)
    return paths


def render_gantt(rows, width: int = 60) -> str:
    """ASCII Gantt chart of job instances: '.' queued, '#' running.

    ``rows`` are :class:`~repro.core.timeseries.GanttRow` objects; the time
    axis spans from the earliest submit to the latest end.
    """
    timed = [r for r in rows if r.submit is not None]
    if not timed:
        return "(no timed job instances)"
    t_min = min(r.submit for r in timed)
    t_max = max((r.end if r.end is not None else r.submit) for r in timed)
    span = max(t_max - t_min, 1e-9)

    def col(t: float) -> int:
        return min(width - 1, int((t - t_min) / span * width))

    lines = [f"time {t_min:.0f}s .. {t_max:.0f}s   ('.' queued, '#' running)"]
    for r in timed:
        cells = [" "] * width
        start = r.start if r.start is not None else t_max
        end = r.end if r.end is not None else t_max
        for c in range(col(r.submit), col(start) + 1):
            cells[c] = "."
        if r.start is not None:
            for c in range(col(start), col(end) + 1):
                cells[c] = "#"
        label = f"{r.exec_job_id[:20]:<20} {r.hostname[:14]:<14}"
        lines.append(f"{label} |{''.join(cells)}|")
    return "\n".join(lines)


def render_all(stats: WorkflowStatistics) -> str:
    """Every report in one document (what the CLI prints)."""
    parts = [
        f"# Workflow {stats.wf_uuid} (wf_id={stats.wf_id})",
        "",
        render_summary(stats),
        "",
        "## breakdown.txt",
        render_breakdown(stats.breakdown),
        "",
        "## jobs.txt",
        render_jobs(stats.jobs),
        "",
        render_jobs_timing(stats.jobs),
        "",
        "## hosts",
        render_hosts(stats.hosts),
    ]
    return "\n".join(parts)
