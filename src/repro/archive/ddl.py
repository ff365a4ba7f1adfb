"""Relational schema of the Stampede archive (paper Fig. 3).

Table and column names follow the published Stampede schema: each workflow
run is a ``workflow`` row; the abstract workflow lives in ``task`` /
``task_edge``; the executable workflow in ``job`` / ``job_edge``; execution
attempts in ``job_instance`` with their time-stamped ``jobstate`` rows; and
remote executions in ``invocation``, which link back to ``task``.

Beyond Fig. 3, the archive carries the **rollup tables** maintained by
:mod:`repro.core.rollup`: materialized per-workflow counters
(``rollup_workflow``), per-transformation runtime breakdowns
(``rollup_type``), per-host usage (``rollup_host``) and downsampled
per-host time-series buckets (``rollup_host_bucket``), plus the
``rollup_meta`` commit-sequence row that read caches invalidate on.
Rollup rows are written *inside* the loader's flush transaction, so they
are exactly as durable and exactly as current as the event rows they
summarize.
"""
from __future__ import annotations

from typing import Dict, List

from repro.orm import Boolean, Column, Integer, Real, Table, Text, Unique

__all__ = ["TABLES", "ALL_TABLES"]


WORKFLOW = Table(
    "workflow",
    [
        Column("wf_id", Integer(), primary_key=True),
        Column("wf_uuid", Text(), nullable=False, index=True),
        Column("dag_file_name", Text()),
        Column("timestamp", Real()),
        Column("submit_hostname", Text()),
        Column("submit_dir", Text()),
        Column("planner_version", Text()),
        Column("user", Text()),
        Column("grid_dn", Text()),
        Column("planner_arguments", Text()),
        Column("dax_label", Text()),
        Column("dax_version", Text()),
        Column("dax_file", Text()),
        Column("parent_wf_id", Integer(), index=True),
        Column("root_wf_id", Integer(), index=True),
    ],
)

WORKFLOWSTATE = Table(
    "workflowstate",
    indexes=[("wf_id", "timestamp")],
    columns=[
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("state", Text(), nullable=False),
        Column("timestamp", Real(), nullable=False),
        Column("restart_count", Integer(), default=0),
        Column("status", Integer()),
    ],
)

TASK = Table(
    "task",
    indexes=[("wf_id", "abs_task_id")],
    columns=[
        Column("task_id", Integer(), primary_key=True),
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("abs_task_id", Text(), nullable=False, index=True),
        # Filled by stampede.wf.map.task_job: the EW job this task mapped to.
        Column("job_id", Integer(), index=True),
        Column("transformation", Text()),
        Column("argv", Text()),
        Column("type_desc", Text()),
    ],
)

TASK_EDGE = Table(
    "task_edge",
    [
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("parent_abs_task_id", Text(), nullable=False),
        Column("child_abs_task_id", Text(), nullable=False),
    ],
)

JOB = Table(
    "job",
    [
        Column("job_id", Integer(), primary_key=True),
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("exec_job_id", Text(), nullable=False, index=True),
        Column("submit_file", Text()),
        Column("type_desc", Text()),
        Column("clustered", Boolean(), default=False),
        Column("max_retries", Integer(), default=0),
        Column("executable", Text()),
        Column("argv", Text()),
        Column("task_count", Integer(), default=0),
    ],
)

JOB_EDGE = Table(
    "job_edge",
    [
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("parent_exec_job_id", Text(), nullable=False),
        Column("child_exec_job_id", Text(), nullable=False),
    ],
)

JOB_INSTANCE = Table(
    "job_instance",
    indexes=[("job_id", "job_submit_seq")],
    columns=[
        Column("job_instance_id", Integer(), primary_key=True),
        Column("job_id", Integer(), nullable=False, index=True),
        Column("job_submit_seq", Integer(), nullable=False),
        Column("host_id", Integer(), index=True),
        Column("sched_id", Text()),
        Column("site", Text()),
        Column("user", Text()),
        Column("work_dir", Text()),
        Column("local_duration", Real()),
        Column("subwf_id", Integer(), index=True),
        Column("stdout_file", Text()),
        Column("stdout_text", Text()),
        Column("stderr_file", Text()),
        Column("stderr_text", Text()),
        Column("multiplier_factor", Integer(), default=1),
        Column("exitcode", Integer()),
    ],
)

JOBSTATE = Table(
    "jobstate",
    indexes=[("job_instance_id", "jobstate_submit_seq")],
    columns=[
        Column("job_instance_id", Integer(), nullable=False, index=True),
        Column("state", Text(), nullable=False),
        Column("timestamp", Real(), nullable=False),
        Column("jobstate_submit_seq", Integer(), default=0),
    ],
)

INVOCATION = Table(
    "invocation",
    indexes=[("job_instance_id", "task_submit_seq"), ("wf_id", "invocation_id")],
    columns=[
        Column("invocation_id", Integer(), primary_key=True),
        Column("job_instance_id", Integer(), nullable=False, index=True),
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("task_submit_seq", Integer(), nullable=False),
        Column("start_time", Real()),
        Column("remote_duration", Real()),
        Column("remote_cpu_time", Real()),
        Column("exitcode", Integer()),
        Column("transformation", Text()),
        Column("executable", Text()),
        Column("argv", Text()),
        Column("abs_task_id", Text(), index=True),
    ],
)

HOST = Table(
    "host",
    [
        Column("host_id", Integer(), primary_key=True),
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("site", Text()),
        Column("hostname", Text(), nullable=False),
        Column("ip", Text()),
        Column("uname", Text()),
        Column("total_memory", Integer()),
    ],
)

OBS_EVENT = Table(
    "obs_event",
    [
        Column("obs_id", Integer(), primary_key=True),
        Column("ts", Real(), nullable=False),
        Column("event", Text(), nullable=False, index=True),
        Column("name", Text(), index=True),
        Column("component", Text()),
        Column("value", Real()),
        Column("payload", Text()),
    ],
)

# -- rollup tables (repro.core.rollup) --------------------------------------
# Materialized aggregates maintained incrementally in the loader's flush
# transaction.  Counters are additive; ``started``/``ended``/``min``/``max``
# are monotone merges.  The keyed tables take a flush's deltas as upserts,
# so each declares its key as a Unique index (the upsert's conflict
# target); a retried flush re-applies its deltas to the rows the
# rollback restored.

ROLLUP_WORKFLOW = Table(
    "rollup_workflow",
    [
        Column("wf_id", Integer(), primary_key=True),
        Column("wf_uuid", Text(), nullable=False, index=True),
        Column("parent_wf_id", Integer(), index=True),
        Column("root_wf_id", Integer(), index=True),
        Column("events", Integer(), default=0),
        Column("tasks_total", Integer(), default=0),
        Column("tasks_succeeded", Integer(), default=0),
        Column("tasks_failed", Integer(), default=0),
        Column("jobs_total", Integer(), default=0),
        Column("jobs_succeeded", Integer(), default=0),
        Column("jobs_failed", Integer(), default=0),
        Column("jobs_retries", Integer(), default=0),
        Column("job_instances", Integer(), default=0),
        Column("invocations", Integer(), default=0),
        Column("invocation_wall", Real(), default=0.0),
        Column("started", Real()),
        Column("ended", Real()),
        Column("status", Integer()),
        Column("restarts", Integer(), default=0),
        Column("updated_seq", Integer(), default=0),
    ],
)

ROLLUP_TYPE = Table(
    "rollup_type",
    indexes=[Unique("wf_id", "transformation")],
    columns=[
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("transformation", Text(), nullable=False),
        Column("count", Integer(), default=0),
        Column("succeeded", Integer(), default=0),
        Column("failed", Integer(), default=0),
        Column("min_runtime", Real(), default=0.0),
        Column("max_runtime", Real(), default=0.0),
        Column("total_runtime", Real(), default=0.0),
    ],
)

ROLLUP_HOST = Table(
    "rollup_host",
    indexes=[Unique("wf_id", "hostname")],
    columns=[
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("hostname", Text(), nullable=False),
        Column("jobs", Integer(), default=0),
        Column("runtime", Real(), default=0.0),
    ],
)

ROLLUP_HOST_BUCKET = Table(
    "rollup_host_bucket",
    indexes=[Unique("wf_id", "hostname", "tier", "bucket")],
    columns=[
        Column("wf_id", Integer(), nullable=False, index=True),
        Column("hostname", Text(), nullable=False),
        # bucket width in seconds (the downsampling tier) and the
        # epoch-aligned bucket index floor(ts / tier)
        Column("tier", Integer(), nullable=False),
        Column("bucket", Integer(), nullable=False),
        Column("runtime", Real(), default=0.0),
    ],
)

ROLLUP_META = Table(
    "rollup_meta",
    [
        Column("key", Text(), primary_key=True),
        Column("value", Real(), default=0.0),
    ],
)

ALL_TABLES: List[Table] = [
    WORKFLOW,
    WORKFLOWSTATE,
    TASK,
    TASK_EDGE,
    JOB,
    JOB_EDGE,
    JOB_INSTANCE,
    JOBSTATE,
    INVOCATION,
    HOST,
    OBS_EVENT,
    ROLLUP_WORKFLOW,
    ROLLUP_TYPE,
    ROLLUP_HOST,
    ROLLUP_HOST_BUCKET,
    ROLLUP_META,
]

TABLES: Dict[str, Table] = {t.name: t for t in ALL_TABLES}
