"""The probe thread: one SSE connection, plus an optional dashboard reader.

*Visible* means: shown in a ``progress`` frame of ``GET /api/stream``.
Each frame carries per-workflow ``invocations``, which moves 1:1 with
``stampede.inv.end`` events, so the k-th ``inv.end`` of a workflow is
visible at the arrival time of the first frame whose ``invocations`` for
that workflow is >= k.  The probe stamps a frame when its last byte
arrives, before parsing it.

The same thread runs, through one ``selectors`` loop (the host has two
cores; the benchmark process must stay small):

* the *viewer*: a closed-loop reader of the JSON endpoints, one request
  in flight, ``think`` seconds between a reply and the next request;
* in traced runs the *commit poll*: a read-only sqlite connection asking
  every 10 ms how many invocation rows are readable, which splits
  due -> visible into due -> committed and committed -> frame;
* the *speed gauge*: every 100 ms a fixed ~1.5 ms piece of interpreter
  work is timed (:func:`spin`).  The seed host is a shared two-vCPU VM
  whose speed for identical work flips between two states ~1.5x apart
  for minutes at a time; the gauge is what lets CPU-bound results from
  different minutes be compared (README, "Host speed").
"""
from __future__ import annotations

import json
import selectors
import socket
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Tuple

from sut import cpu_seconds

_mono = time.monotonic

#: the viewer cycles these, per workflow id
READ_KINDS = ("workflows", "workflow", "progress", "jobs")

_SPIN_EVENT = {
    "ts": "2012-03-13T12:35:38.000000Z", "event": "stampede.inv.end", "level": "Info",
    "xwf.id": "ea17e8ac-02ac-4909-b5e3-16e367392556", "job_inst.id": 7,
    "job.id": "merge_ID000012", "inv.id": 3, "start_time": 1331642138.0, "dur": 12.5,
    "exitcode": 0, "transformation": "mProjectPP", "executable": "/usr/bin/mProjectPP",
    "argv": "-X -x 0.9 a.fits b.fits", "task.id": "ID000012",
}


def spin() -> float:
    """Seconds a fixed piece of work takes: the kind the pipeline does all
    day (JSON both ways, formatting and splitting a BP-like line), best
    of five back-to-back rounds so a cold cache or a preemption is not
    what gets timed."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(20):
            attrs = json.loads(json.dumps(_SPIN_EVENT))
            " ".join(f"{k}={v}" for k, v in attrs.items()).split(" ")
        best = min(best, time.perf_counter() - start)
    return best


class Probe(threading.Thread):
    def __init__(self, host: str, port: int, commit_db: Optional[str] = None):
        super().__init__(name="e2e-probe", daemon=True)
        self._addr = (host, port)
        self._halt = threading.Event()
        self.error: Optional[BaseException] = None
        # -- SSE state, written by this thread only -------------------------
        self._sse_buf = b""
        self._sse_headers_done = False
        self._counts: Dict[str, int] = {}
        #: (arrival time, wf_uuid, invocations before, invocations now)
        self.advances: List[Tuple[float, str, int, int]] = []
        #: (arrival time, bytes) of every progress frame
        self.frames: List[Tuple[float, int]] = []
        self.visible = 0  # sum of invocations in the newest frame
        self.commit_seq = 0
        self.wf_ids: List[int] = []
        # -- viewer ---------------------------------------------------------
        self._think = 0.0
        self._reads_left = 0  # requests still to issue; -1 = until told to stop
        self._read_sock: Optional[socket.socket] = None
        self._read_buf = b""
        self._read_t0 = 0.0
        self._read_kind = ""
        self._next_read = 0.0
        self._read_index = 0
        #: (start time, seconds, ok, endpoint kind)
        self.reads: List[Tuple[float, float, bool, str]] = []
        # -- commit poll (traced runs) --------------------------------------
        self._commit_db = commit_db
        #: (poll time, invocation rows readable)
        self.commits: List[Tuple[float, int]] = []
        #: (time, seconds) of every speed-gauge sample
        self.spins: List[Tuple[float, float]] = []
        # -- slice marks ------------------------------------------------------
        #: ascending totals of visible inv.end events; when the newest frame
        #: reaches the next one, the CPU time of ``pids`` is read at once
        self.marks: List[int] = []
        self.pids: Dict[str, int] = {}
        #: (frame arrival time, {role: cpu seconds}) per mark reached
        self.mark_samples: List[Tuple[float, Dict[str, float]]] = []

    # -- control, from the main thread -------------------------------------------
    def start_viewer(self, think: float, count: int = -1) -> None:
        self._think = think
        self._next_read = _mono()
        self._reads_left = count

    def stop_viewer(self) -> None:
        self._reads_left = 0

    def viewer_idle(self) -> bool:
        return self._reads_left == 0 and self._read_sock is None

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)

    # -- the loop ----------------------------------------------------------------
    def run(self) -> None:
        sel = selectors.DefaultSelector()
        sse = None
        poll_conn = None
        try:
            sse = socket.create_connection(self._addr, timeout=10.0)
            # timeout=120 is the server's cap: the stream must outlive quiet
            # stretches of set-up, not idle-close after the default 30 s
            sse.sendall(b"GET /api/stream?timeout=120 HTTP/1.0\r\nHost: e2e\r\n\r\n")
            sse.setblocking(False)
            sel.register(sse, selectors.EVENT_READ, self._on_sse)
            next_poll = next_spin = 0.0
            if self._commit_db is not None:
                poll_conn = sqlite3.connect(
                    f"file:{self._commit_db}?mode=ro", uri=True, timeout=0.0,
                    isolation_level=None,
                )
            while not self._halt.is_set():
                now = _mono()
                wake = now + 0.1
                if self._reads_left and self._read_sock is None:
                    if now >= self._next_read:
                        self._start_read(sel, now)
                    else:
                        wake = min(wake, self._next_read)
                if now >= next_spin:
                    self.spins.append((now, spin()))
                    next_spin = now + 0.1
                if poll_conn is not None:
                    if now >= next_poll:
                        self._poll_commits(poll_conn, now)
                        next_poll = now + 0.01
                    wake = min(wake, next_poll)
                for key, _events in sel.select(max(0.0, wake - _mono())):
                    key.data(sel, key.fileobj)
        except BaseException as exc:  # surfaced by the main thread
            self.error = exc
        finally:
            for sock in (sse, self._read_sock):
                if sock is not None:
                    sock.close()
            if poll_conn is not None:
                poll_conn.close()
            sel.close()

    # -- SSE -----------------------------------------------------------------------
    def _on_sse(self, sel: selectors.BaseSelector, sock: socket.socket) -> None:
        try:
            chunk = sock.recv(1 << 20)
        except BlockingIOError:
            return
        now = _mono()
        if not chunk:
            raise RuntimeError("the dashboard closed the SSE stream")
        buf = self._sse_buf + chunk
        if not self._sse_headers_done:
            head, sep, rest = buf.partition(b"\r\n\r\n")
            if not sep:
                self._sse_buf = buf
                return
            if b" 200 " not in head.split(b"\r\n", 1)[0]:
                raise RuntimeError(f"SSE request refused: {head[:80]!r}")
            self._sse_headers_done = True
            buf = rest
        while True:
            frame, sep, rest = buf.partition(b"\n\n")
            if not sep:
                break
            buf = rest
            if frame.startswith(b"event: progress"):
                self._on_progress(now, frame)
        self._sse_buf = buf

    def _on_progress(self, now: float, frame: bytes) -> None:
        payload = json.loads(frame[frame.index(b"\ndata: ") + 7:])
        counts = self._counts
        total = 0
        wf_ids = []
        for row in payload["workflows"]:
            uuid = row["wf_uuid"]
            count = row["invocations"]
            total += count
            wf_ids.append(row["wf_id"])
            before = counts.get(uuid, 0)
            if count > before:
                counts[uuid] = count
                self.advances.append((now, uuid, before, count))
        self.frames.append((now, len(frame)))
        self.commit_seq = payload["commit_seq"]
        self.wf_ids = wf_ids
        while len(self.mark_samples) < len(self.marks) and \
                total >= self.marks[len(self.mark_samples)]:
            cpu = {}
            for role, pid in list(self.pids.items()):
                try:
                    cpu[role] = cpu_seconds(pid)
                except OSError:
                    pass  # ended by itself; the run supplies its final figure
            self.mark_samples.append((now, cpu))
        self.visible = total

    # -- viewer ----------------------------------------------------------------------
    def _start_read(self, sel: selectors.BaseSelector, now: float) -> None:
        index = self._read_index
        self._read_index += 1
        kind = READ_KINDS[index % len(READ_KINDS)]
        if kind == "workflows" or not self.wf_ids:
            kind, path = "workflows", "/api/workflows"
        else:
            wf_id = self.wf_ids[(index // len(READ_KINDS)) % len(self.wf_ids)]
            path = f"/api/workflow/{wf_id}" + ("" if kind == "workflow" else f"/{kind}")
        if self._reads_left > 0:
            self._reads_left -= 1
        sock = socket.create_connection(self._addr, timeout=10.0)
        self._read_t0 = _mono()
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: e2e\r\n\r\n".encode())
        sock.setblocking(False)
        self._read_sock, self._read_buf, self._read_kind = sock, b"", kind
        sel.register(sock, selectors.EVENT_READ, self._on_read)

    def _on_read(self, sel: selectors.BaseSelector, sock: socket.socket) -> None:
        try:
            chunk = sock.recv(1 << 20)
        except BlockingIOError:
            return
        except ConnectionResetError:
            chunk = b""
        if chunk:
            self._read_buf += chunk
            return
        now = _mono()
        sel.unregister(sock)
        sock.close()
        self._read_sock = None
        head, _sep, body = self._read_buf.partition(b"\r\n\r\n")
        ok = head.startswith(b"HTTP/1.0 200") and _content_length(head) == len(body) > 0
        self.reads.append((self._read_t0, now - self._read_t0, ok, self._read_kind))
        self._next_read = now + self._think

    # -- commit poll -------------------------------------------------------------------
    def _poll_commits(self, conn: sqlite3.Connection, now: float) -> None:
        try:
            row = conn.execute("SELECT MAX(invocation_id) FROM invocation").fetchone()
        except sqlite3.OperationalError:
            return  # writer holds the file this instant; next tick
        count = row[0] or 0
        if not self.commits or self.commits[-1][1] != count:
            self.commits.append((now, count))


def _content_length(head: bytes) -> int:
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            return int(value)
    return -1
