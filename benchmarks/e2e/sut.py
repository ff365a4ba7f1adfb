"""The system under test as child processes, in its deployment shape.

``stampede-bus serve``, ``nl-load`` and ``stampede-dashboard`` each run
as their console-script ``main`` in a process of their own, with every
knob at its default.  Ports are ephemeral (``--announce``, ``--port 0``),
all files live in one work directory, and :meth:`Sut.stop` kills and
reaps every child whatever happened before it.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

ENTRY = {
    "broker": "repro.bus.cli:main",
    "loader": "repro.loader.nl_load:main",
    "dashboard": "repro.core.dashboard:main",
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """user+sys CPU seconds of a live process (OSError once it is gone)."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class InvalidRun(RuntimeError):
    """A validity guard tripped: the run yields no number."""


def child_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the dashboard prints its URL with a plain print(); without this the
    # line sits in a block buffer and never reaches the file
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


class Sut:
    """Spawns, observes and reaps the SUT processes of one run."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.procs: Dict[str, subprocess.Popen] = {}
        self._files: List = []
        #: roles that end by themselves with exit code 0 (``nl-load FILE``)
        self.may_exit: set = set()
        #: role -> (cpu seconds, peak RSS MB) of a process that has ended
        self._ended: Dict[str, Tuple[float, float]] = {}

    # -- lifecycle -----------------------------------------------------------
    def spawn(self, role: str, *args: str) -> subprocess.Popen:
        module, func = ENTRY[role].split(":")
        if self.traced:
            cmd = [sys.executable, str(HERE / "traced_entry.py"), ENTRY[role], *args]
            env = child_env(E2E_ROLE=role, E2E_SPANS_OUT=str(self.spans_path(role)))
        else:
            # what the console script does; `python -m repro.core.dashboard`
            # would be a silent no-op (no __main__ guard, README "src/ defects")
            cmd = [sys.executable, "-c",
                   f"import sys; from {module} import {func}; sys.exit({func}())", *args]
            env = child_env()
        out = open(self.workdir / f"{role}.out", "wb")
        err = open(self.workdir / f"{role}.err", "wb")
        self._files += [out, err]
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=self.workdir)
        self.procs[role] = proc
        return proc

    def spans_path(self, role: str) -> Path:
        return self.workdir / f"spans-{role}.jsonl"

    def output(self, role: str, stream: str = "out") -> str:
        path = self.workdir / f"{role}.{stream}"
        return path.read_text(errors="replace") if path.exists() else ""

    def ended(self, role: str) -> bool:
        """Reap ``role`` if it has ended; True when it has.  ``wait4``
        hands over its CPU time and peak RSS, which ``/proc`` forgets
        the moment a process is reaped."""
        proc = self.procs[role]
        if proc.returncode is not None:
            return True
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if not pid:
            return False
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._ended[role] = (rusage.ru_utime + rusage.ru_stime, rusage.ru_maxrss / 1024.0)
        return True

    def assert_alive(self) -> None:
        """Every child still runs — or, for a role in ``may_exit``
        (``nl-load FILE``), has ended with exit code 0."""
        for role, proc in self.procs.items():
            if not self.ended(role):
                continue
            if proc.returncode != 0 or role not in self.may_exit:
                raise InvalidRun(
                    f"{role} exited with code {proc.returncode} during the run:\n"
                    + self.output(role, "err")[-2000:]
                )

    def wait_for(self, what: str, check: Callable[[], object], timeout: float):
        """Poll ``check`` until it returns something truthy; a dead child
        or the deadline ends the run instead."""
        deadline = time.monotonic() + timeout
        while True:
            value = check()
            if value:
                return value
            self.assert_alive()
            if time.monotonic() >= deadline:
                raise InvalidRun(f"timed out after {timeout:g}s waiting for {what}")
            time.sleep(0.005)

    def stop(self) -> None:
        """Terminate and reap every child; the loader first, because its
        shutdown path still talks to the broker."""
        for role in ("loader", "dashboard", "broker"):
            proc = self.procs.get(role)
            if proc is None or self.ended(role):
                continue
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for fh in self._files:
            fh.close()
        self._files = []

    # -- observation ---------------------------------------------------------
    def usage(self, role: str) -> Tuple[float, float]:
        """(user+sys CPU seconds, peak RSS in MB) of one process so far."""
        if role in self._ended:
            return self._ended[role]
        pid = self.procs[role].pid
        try:
            cpu = cpu_seconds(pid)
            rss = 0.0
            with open(f"/proc/{pid}/status", "r") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        rss = int(line.split()[1]) / 1024.0
                        break
        except (OSError, IndexError):
            raise InvalidRun(f"{role} (pid {pid}) is gone") from None
        return cpu, rss

    def tracebacks(self) -> List[str]:
        """Roles whose stderr holds a Python traceback."""
        return [
            role for role in self.procs
            if "Traceback (most recent call last)" in self.output(role, "err")
        ]


def tcp_established(port: int) -> int:
    """Established connections whose local port is ``port`` (/proc/net/tcp)."""
    count = 0
    with open("/proc/net/tcp", "r") as fh:
        next(fh)
        for line in fh:
            fields = line.split()
            if fields[3] == "01" and int(fields[1].rsplit(":", 1)[1], 16) == port:
                count += 1
    return count
