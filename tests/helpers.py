"""Shared test fixtures: hand-built Stampede event streams.

``diamond_events`` builds the full, schema-valid event stream of a small
diamond workflow (4 tasks mapped 1:1 onto 4 jobs) without using either
engine, so loader/query tests do not depend on engine correctness.
"""
from __future__ import annotations

import os
import queue
import threading
from pathlib import Path
from typing import IO, Dict, List, Optional

from repro.netlogger.events import NLEvent
from repro.schema.stampede import Events

XWF = "11111111-2222-4333-8444-555555555555"

#: fixture matrix of the database/archive unit tests — the two storage
#: modes of the sqlite backend: "sqlite" is a WAL file under tmp_path
#: (what every CLI writes), "memory" is sqlite's ``:memory:`` (anonymous
#: shard sets, the long-term tier's reader)
STORAGE_MODES = ["sqlite", "memory"]


def sqlite_path(mode: str, tmp_path: Path) -> str:
    return ":memory:" if mode == "memory" else str(tmp_path / "unit.db")

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that must import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def await_line(stream: IO[str], containing: str, timeout: float = 30.0) -> str:
    """First line of a running child's pipe that contains ``containing``.

    Read on a helper thread, so a child that buffers its output until
    exit (or never writes) fails the test at the deadline instead of
    hanging it; ``""`` means the pipe closed first.
    """
    found: "queue.Queue[str]" = queue.Queue()

    def pump() -> None:
        for line in stream:
            if containing in line:
                found.put(line)
                return
        found.put("")

    threading.Thread(target=pump, daemon=True).start()
    try:
        return found.get(timeout=timeout)
    except queue.Empty:
        raise AssertionError(
            f"no line containing {containing!r} within {timeout:g}s"
        ) from None


def _ev(name: str, ts: float, **attrs) -> NLEvent:
    attrs.setdefault("xwf.id", XWF)
    return NLEvent(name, ts, attrs)


def diamond_events(
    fail_job: Optional[str] = None,
    retries: Dict[str, int] = None,
    xwf: str = XWF,
) -> List[NLEvent]:
    """Event stream of a diamond workflow a->(b,c)->d on host 'node1'.

    ``fail_job``: exec job id whose final attempt exits 1.
    ``retries``: per-job count of extra failed attempts before the final one.
    """
    retries = retries or {}
    jobs = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    events: List[NLEvent] = []
    t = 0.0

    def ev(name: str, **attrs) -> None:
        attrs.setdefault("xwf.id", xwf)
        events.append(NLEvent(name, t, attrs))

    ev(
        Events.WF_PLAN,
        **{
            "submit.hostname": "submit01",
            "dag.file.name": "diamond.dag",
            "planner.version": "test-1.0",
            "submit_dir": "/runs/diamond",
            "root.xwf.id": xwf,
            "user": "tester",
        },
    )
    ev(Events.STATIC_START)
    for j in jobs:
        ev(
            Events.TASK_INFO,
            **{"task.id": j, "type_desc": "compute", "transformation": f"tr_{j}"},
        )
    for p, c in edges:
        ev(Events.TASK_EDGE, **{"parent.task.id": p, "child.task.id": c})
    for j in jobs:
        ev(
            Events.JOB_INFO,
            **{
                "job.id": j,
                "type_desc": "compute",
                "clustered": 0,
                "max_retries": 3,
                "executable": f"/bin/{j}",
                "task_count": 1,
            },
        )
    for p, c in edges:
        ev(Events.JOB_EDGE, **{"parent.job.id": p, "child.job.id": c})
    for j in jobs:
        ev(Events.MAP_TASK_JOB, **{"task.id": j, "job.id": j})
    ev(Events.STATIC_END)

    t = 10.0
    ev(Events.XWF_START, restart_count=0)

    any_failed = False
    for j in jobs:
        attempts = retries.get(j, 0) + 1
        for attempt in range(1, attempts + 1):
            final = attempt == attempts
            failed = (j == fail_job and final) or not final
            any_failed = any_failed or (j == fail_job and final)
            t += 1.0
            ev(
                Events.JOB_INST_SUBMIT_START,
                **{"job.id": j, "job_inst.id": attempt, "sched.id": f"{j}.{attempt}"},
            )
            ev(
                Events.JOB_INST_SUBMIT_END,
                **{"job.id": j, "job_inst.id": attempt, "status": 0},
            )
            t += 0.5  # queue delay
            ev(
                Events.JOB_INST_HOST_INFO,
                **{
                    "job.id": j,
                    "job_inst.id": attempt,
                    "site": "local",
                    "hostname": "node1",
                    "ip": "10.0.0.1",
                },
            )
            ev(Events.JOB_INST_MAIN_START, **{"job.id": j, "job_inst.id": attempt})
            start = t
            t += 4.0  # runtime
            ev(
                Events.INV_START,
                **{"job.id": j, "job_inst.id": attempt, "inv.id": 1, "task.id": j},
            )
            ev(
                Events.INV_END,
                **{
                    "job.id": j,
                    "job_inst.id": attempt,
                    "inv.id": 1,
                    "task.id": j,
                    "start_time": start,
                    "dur": 4.0,
                    "remote_cpu_time": 3.6,
                    "exitcode": 1 if failed else 0,
                    "transformation": f"tr_{j}",
                    "executable": f"/bin/{j}",
                    "status": -1 if failed else 0,
                    "site": "local",
                    "hostname": "node1",
                },
            )
            ev(
                Events.JOB_INST_MAIN_TERM,
                **{"job.id": j, "job_inst.id": attempt, "status": -1 if failed else 0},
            )
            ev(
                Events.JOB_INST_MAIN_END,
                **{
                    "job.id": j,
                    "job_inst.id": attempt,
                    "site": "local",
                    "status": -1 if failed else 0,
                    "exitcode": 1 if failed else 0,
                    "local.dur": 4.0,
                    "stdout.text": f"out of {j}",
                    "stderr.text": "boom" if failed else "",
                },
            )
    t += 1.0
    ev(Events.XWF_END, restart_count=0, status=-1 if any_failed else 0)
    return events
