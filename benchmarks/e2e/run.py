"""End-to-end benchmark of the monitoring path: emit -> visible.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--quick] [-o OUT.json]

Engine event -> BP -> ``stampede-bus`` over TCP -> ``nl-load`` -> sqlite
archive -> rollup -> dashboard SSE frame, with the three programs as
separate child processes at their default settings and this process
holding only the load (the generator on the main thread, the probe on
one other).  README.md in this directory defines every workload, metric
and guard; BENCHMARK.json at the repository root names them.

With ``--workload`` the last line of standard output is the one-line
JSON result the benchmark driver reads; without it all workloads run
and a table is printed.  The exit code is 0 only for a valid, correct
run; a run that trips a validity guard is made again, up to three
times, before that is final.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import shutil
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (sibling modules, found through the line above)
import measure  # noqa: E402
import spans  # noqa: E402
from measure import DueIndex, Metric, Recording  # noqa: E402
from probe import Probe  # noqa: E402
from sut import InvalidRun, Sut, child_env, tcp_established  # noqa: E402

_mono = time.monotonic

INV_END = "stampede.inv.end"
#: events published unpaced before the timed window of a paced workload:
#: each copy of the mixed trace opens with ~2,100 static events that
#: carry no inv.end, so without it a short trickle run would have
#: nothing to probe until its last seconds
PREROLL_EVENTS = 3000
#: probe samples due in the first seconds of a paced window are dropped
#: (connection set-up, statement caches)
WARMUP_S = 2.0
#: dashboard reads issued after the window on workloads without a viewer
QUIET_READS = 300
VIEWER_THINK_S = 0.02

# validity limits
MAX_BEHIND_S = 0.050
MAX_BEHIND_SHARE = 0.02
MAX_TAIL_S = 2.5
MIN_DRAIN_WINDOW_S = 1.0
#: a run that trips a guard is made again, this many times in all ...
ATTEMPTS = 3
#: ... while a single-workload invocation (the driver's, which must end
#: within 180 s) can still finish another before this many seconds
RUN_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "tcp": publish to the bus; "file": nl-load reads a BP file
    rate: float  # offered events/s; 0 = unpaced drain
    size_rate: float  # events in the timed window per second of --seconds
    viewer: bool = False

    @property
    def paced(self) -> bool:
        return self.rate > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("steady_tcp", "tcp", 1000.0, 1000.0),
        Workload("trickle_tcp", "tcp", 300.0, 300.0),
        Workload("drain_tcp", "tcp", 0.0, 3000.0),
        Workload("drain_file", "file", 0.0, 20000.0),
        Workload("steady_viewers", "tcp", 1000.0, 1000.0, viewer=True),
    )
}


@dataclass
class Options:
    seed: int
    seconds: float
    quick: bool
    inject: Optional[str]
    attempts: int = ATTEMPTS
    deadline: float = math.inf  # on time.monotonic: no attempt starts that may outlast it


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def host_facts() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def stored_digest(seed: int) -> Optional[str]:
    """sha256 of the first copy of the mixed trace for the default seed."""
    with open(HERE / "digests.json", "r", encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored["seed_digest"] if seed == stored["seed"] else None


def index_inv_ends(lines: List[str]) -> DueIndex:
    from repro.netlogger.events import NLEvent

    index = DueIndex()
    marker = f"event={INV_END} "
    for i, line in enumerate(lines):
        if marker in line:
            index.add(i, str(NLEvent.from_bp(line).attrs["xwf.id"]))
    return index


class Run:
    """One workload, once: set-up, timed window, checks, teardown."""

    def __init__(self, workload: Workload, opts: Options, traced: bool, work_root: Path):
        self.wl = workload
        self.opts = opts
        self.traced = traced
        self.t_start = _mono()
        self.warmup_s = (0.25 if opts.quick else WARMUP_S) if workload.paced else 0.0
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
        self.sut = Sut(self.workdir, traced)
        self.probe: Optional[Probe] = None
        self.gen_child: Optional[subprocess.Popen] = None
        self.recorder: Optional[spans.Recorder] = None
        self.db = self.workdir / "run.db"
        self.n_pre = PREROLL_EVENTS if workload.paced else 0
        self.n_window = max(1, int(workload.size_rate * opts.seconds))
        self.dashboard_url = ""
        self.meta: Dict[str, Any] = {}
        #: canonical dump of the sequential load of the same stream (TCP workloads)
        self.reference: Dict[str, list] = {}
        #: generator facts for the per-layer table
        self.gen_max_behind = 0.0
        #: traced runs: the merged (name, parent) span table and sampled spans
        self.span_table: List[Dict[str, Any]] = []
        self.result: Dict[str, Any] = {}

    # -- set-up ------------------------------------------------------------------
    def generate(self) -> None:
        """Start the input child; returns as soon as the BP file is
        complete (the reference load carries on beside the SUT start-up)."""
        cmd = [sys.executable, str(HERE / "gen_input.py"),
               "--seed", str(self.opts.seed),
               "--events", str(self.n_pre + self.n_window),
               "--out", str(self.workdir / "events.bp")]
        if self.wl.path == "tcp":
            cmd += ["--reference", str(self.workdir / "reference.pkl")]
        self.gen_child = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=child_env(), text=True
        )
        line = self.gen_child.stdout.readline()
        if not line:
            raise InvalidRun(f"input generator failed (exit {self.gen_child.wait()})")
        self.meta = json.loads(line)
        want = stored_digest(self.opts.seed)
        if want is not None and want != self.meta["seed_digest"]:
            raise InvalidRun(
                f"mixed_trace(seed={self.opts.seed}) hashes to {self.meta['seed_digest']}, "
                f"digests.json says {want}: the generated stream changed"
            )

    def finish_generate(self) -> None:
        code = self.gen_child.wait(timeout=120)
        self.gen_child.stdout.close()
        if code != 0:
            raise InvalidRun(f"input generator exited with code {code}")

    def read_lines(self) -> List[str]:
        with open(self.workdir / "events.bp", "r", encoding="utf-8") as fh:
            return fh.read().splitlines()

    def start_dashboard(self) -> None:
        self.sut.spawn("dashboard", f"sqlite:///{self.db}", "--port", "0")
        marker = "stampede dashboard at "

        def url() -> Optional[str]:
            for line in self.sut.output("dashboard").splitlines():
                if line.startswith(marker):
                    return line[len(marker):].strip()
            return None

        self.dashboard_url = self.sut.wait_for("the dashboard URL", url, 30.0)
        host, port = self.dashboard_url[len("http://"):].rsplit(":", 1)
        self.probe = Probe(host, int(port), commit_db=str(self.db) if self.traced else None)
        self.probe.start()
        self.wait_for("the first SSE frame", lambda: self.probe.frames, 30.0)

    def check_probe(self) -> None:
        if self.probe is not None and self.probe.error is not None:
            raise InvalidRun(f"probe failed: {self.probe.error!r}")

    def wait_for(self, what: str, check, timeout: float):
        def checked():
            self.check_probe()
            return check()

        return self.sut.wait_for(what, checked, timeout)

    def settle(self) -> None:
        """Wait until no frame has arrived for a quarter second: the end
        of the pre-roll is committed and shown."""
        self.wait_for("frames to settle", lambda: _mono() - self.probe.frames[-1][0] > 0.25, 30.0)

    def wait_for_tail(self) -> None:
        """Events after the last inv.end sit in the loader's buffer until
        its next idle flush, which a slow host can delay past any fixed
        pause.  They belong to this run's work and rows: wait (up to 10 s)
        until the archive holds as many rows per table as the reference.
        What is still missing then is the row check's to report."""
        with open(self.workdir / "reference.pkl", "rb") as fh:
            self.reference = pickle.load(fh)  # written by our own gen_input.py child
        conn = sqlite3.connect(f"file:{self.db}?mode=ro", uri=True)
        try:
            def complete() -> bool:
                try:
                    return all(
                        conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0] >= len(rows)
                        for table, rows in self.reference.items()
                    )
                except sqlite3.OperationalError:
                    return False  # the writer holds the file this instant

            deadline = _mono() + 10.0
            while not complete() and _mono() < deadline:
                self.sut.assert_alive()
                time.sleep(0.02)
        finally:
            conn.close()

    def plan(self, due_index: DueIndex) -> List[measure.Slice]:
        """Cut the window into slices and tell the probe where they end."""
        slices = measure.plan_slices(
            self.wl.paced, self.n_pre, self.n_window, self.meta["base_events"],
            due_index.positions, warm_events=int(self.warmup_s * self.wl.rate),
        )
        if not slices:
            raise InvalidRun("the timed window holds no inv.end event to probe")
        self.probe.pids = {role: proc.pid for role, proc in self.sut.procs.items()}
        marks = [piece.last for piece in slices]
        if self.wl.paced:  # sampled from the end of its warm-up; a drain from its start
            marks.insert(0, slices[0].first)
        self.probe.marks = marks
        return slices

    # -- the workloads ---------------------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        if self.traced:
            self.recorder = spans.Recorder("gen")
        try:
            self.generate()
            rec = self._run_tcp() if self.wl.path == "tcp" else self._run_file()
            return self.finish(rec)
        except measure.Invalid as exc:
            raise InvalidRun(str(exc)) from None
        except OSError as exc:  # a connection of the harness (publisher, /metrics) broke
            raise InvalidRun(f"{type(exc).__name__}: {exc}") from None
        finally:
            if self.recorder is not None:
                self.recorder.unpatch()
            if self.probe is not None:
                self.probe.halt()
            self.sut.stop()
            if self.gen_child is not None and self.gen_child.poll() is None:
                self.gen_child.kill()
                self.gen_child.wait()

    def _run_tcp(self) -> Recording:
        from repro.bus.net import RemotePublisher
        from repro.netlogger.events import NLEvent
        from repro.replay.shape import ConstantRate, Pacer

        wl, sut = self.wl, self.sut
        announce = self.workdir / "bus.url"
        sut.spawn("broker", "serve", "--port", "0", "--announce", str(announce))
        bus_url = sut.wait_for(
            "the bus to announce its URL",
            lambda: announce.read_text().strip() if announce.exists() else None, 30.0,
        )
        bus_port = int(bus_url.rsplit(":", 1)[1])
        sut.spawn("loader", "--bus", bus_url, "stampede_loader", f"connString=sqlite:///{self.db}")
        lines = self.read_lines()
        events = [NLEvent.from_bp(line) for line in lines]
        due_index = index_inv_ends(lines)
        # nl-load opens the archive (DDL) before it connects to the bus, and
        # subscribes in the same breath as it connects; there is no other
        # outside sign of "subscribed".  A publish that beats the subscription
        # is lost, which the pre-roll wait and the row check then catch.
        sut.wait_for("nl-load to connect to the bus", lambda: tcp_established(bus_port), 30.0)
        self.start_dashboard()
        self.finish_generate()
        slices = self.plan(due_index)
        publisher = RemotePublisher(bus_url)
        try:
            if self.n_pre:
                for event in events[: self.n_pre]:
                    publisher.publish(event)
                publisher.flush()
                pre_inv = sum(1 for pos in due_index.positions if pos < self.n_pre)
                self.wait_for("the pre-roll to become visible",
                              lambda: self.probe.visible >= pre_inv, 60.0)
                self.settle()
            if self.recorder is not None:
                spans.instrument(self.recorder)
            window = events[self.n_pre:]
            usage0 = {role: sut.usage(role) for role in sut.procs}
            if wl.viewer:
                self.probe.start_viewer(VIEWER_THINK_S)
            # a collection of this process's ~100k event objects would stall
            # the generator for tens of milliseconds mid-window
            gc.collect()
            gc.disable()
            origin = _mono()
            behind_events = 0
            if wl.paced:
                pacer = Pacer(origin)
                shape = ConstantRate(wl.rate)
                stall_at = len(window) // 2 if self.opts.inject == "stall" else -1
                kill_at = len(window) // 2 if self.opts.inject == "kill-loader" else -1
                publish, wait_until, offset = publisher.publish, pacer.wait_until, shape.offset
                max_behind = 0.0
                for i, event in enumerate(window):
                    off = offset(i, 0.0)
                    wait_until(off)
                    behind = _mono() - origin - off
                    if behind > MAX_BEHIND_S:
                        behind_events += 1
                    if behind > max_behind:
                        max_behind = behind
                    publish(event)
                    if i == stall_at:
                        time.sleep(1.0)
                    if i == kill_at:
                        sut.procs["loader"].kill()
                self.gen_max_behind = max_behind
            else:
                for event in window:
                    publisher.publish(event)
            publisher.flush()
            t_published = _mono()
        finally:
            gc.enable()
            publisher.close()
        self.wait_for_visible(len(due_index), t_published + (10.0 if wl.paced else 170.0))
        if wl.viewer:
            self.probe.stop_viewer()
        self.wait_for_tail()
        usage1 = {role: sut.usage(role) for role in sut.procs}
        if behind_events > MAX_BEHIND_SHARE * len(window):
            raise InvalidRun(
                f"generator sent {behind_events} of {len(window)} events more than "
                f"{MAX_BEHIND_S * 1e3:.0f} ms behind schedule (worst "
                f"{self.gen_max_behind * 1e3:.0f} ms; limit {MAX_BEHIND_SHARE:.0%} of events): "
                "the open loop was not open"
            )
        if wl.paced and t_published - origin < self.opts.seconds / 2:
            raise InvalidRun("the generator finished in under half the target length")
        dues = [origin + (pos - self.n_pre) / wl.rate if wl.paced else origin
                for pos in due_index.positions]
        return self.recording(origin, due_index, dues, slices, usage0, usage1)

    def _run_file(self) -> Recording:
        self.finish_generate()
        self.start_dashboard()
        due_index = index_inv_ends(self.read_lines())
        slices = self.plan(due_index)
        usage0 = {role: self.sut.usage(role) for role in self.sut.procs}
        usage0["loader"] = (0.0, 0.0)
        self.sut.may_exit.add("loader")
        origin = _mono()
        loader = self.sut.spawn("loader", str(self.workdir / "events.bp"), "stampede_loader",
                                f"connString=sqlite:///{self.db}")
        self.probe.pids["loader"] = loader.pid
        self.wait_for_visible(len(due_index), origin + 170.0)
        self.sut.wait_for("nl-load to exit", lambda: self.sut.ended("loader"), 30.0)
        usage1 = {role: self.sut.usage(role) for role in self.sut.procs}
        return self.recording(origin, due_index, [origin] * len(due_index), slices, usage0, usage1)

    def recording(self, origin, due_index, dues, slices, usage0, usage1) -> Recording:
        return Recording(
            paced=self.wl.paced, viewer=self.wl.viewer, seconds=self.opts.seconds,
            quick=self.opts.quick, n_pre=self.n_pre, n_window=self.n_window,
            t_start=self.t_start, warmup_s=self.warmup_s, origin=origin,
            due_index=due_index, dues=dues, slices=slices,
            advances=self.probe.advances, mark_samples=self.probe.mark_samples,
            reads=self.probe.reads, spins=self.probe.spins, usage0=usage0, usage1=usage1,
        )

    def wait_for_visible(self, total: int, deadline: float) -> None:
        """Wait until the probe has seen ``total`` inv.end events, a child
        dies, or the deadline passes (events then count as failed)."""
        probe = self.probe
        while probe.visible < total and _mono() < deadline:
            self.check_probe()
            self.sut.assert_alive()
            time.sleep(0.005)
        if probe.visible > total:
            raise InvalidRun(
                f"probe mismatch: frames show {probe.visible} invocations, "
                f"{total} inv.end events were emitted"
            )

    # -- after the window ----------------------------------------------------------
    def finish(self, rec: Recording) -> Dict[str, Any]:
        wl, probe, sut = self.wl, self.probe, self.sut
        sut.assert_alive()
        if not wl.viewer:
            # dashboard request latency on the now-quiet archive, outside the window
            probe.start_viewer(0.0, count=40 if self.opts.quick else QUIET_READS)
        self.wait_for("the dashboard reads", probe.viewer_idle, 60.0)
        cache = self.scrape_cache() if self.traced else None
        probe.halt()
        self.check_probe()
        sut.stop()
        crashed = sut.tracebacks()
        if crashed:
            raise InvalidRun(
                f"traceback on stderr of {', '.join(crashed)}:\n"
                + sut.output(crashed[0], "err")[-2000:]
            )
        measured = measure.end_to_end(rec, MAX_TAIL_S, MIN_DRAIN_WINDOW_S)
        row_diff, diff_detail = self.row_diff()
        attempted = measured["probe_events"] + measured["reads"]
        failed = measured["never_visible"] + measured["bad_reads"]
        checks: Dict[str, Metric] = {
            "late_share": (measured["late_share"], "share", measured["probe_events"]),
            "failed_share": (failed / attempted, "share", attempted),
            "row_diff": (float(row_diff), "count", 1),
        }
        result: Dict[str, Any] = {
            "workload": wl.name,
            "traced": self.traced,
            "workload_digest": self.meta["digest"],
            "events": self.n_window,
            "preroll_events": self.n_pre,
            "attempted": attempted,
            "failed": failed,
            "correct": row_diff == 0 and failed == 0,
            "diff_detail": diff_detail,
            "checks": checks,
        }
        result.update(measured)
        if self.traced:
            records: List[Dict[str, Any]] = self.recorder.records()
            for role in sut.procs:
                path = sut.spans_path(role)
                if not path.exists():
                    raise InvalidRun(f"{role} wrote no span file")
                with open(path, "r", encoding="utf-8") as fh:
                    records.extend(json.loads(line) for line in fh)
            result["per_layer"] = layers.merge(
                records, rec,
                speed=measured["host_speed"], rate=wl.rate, sut_roles=list(sut.procs),
                gen_emitted=self.n_window, gen_max_behind_s=self.gen_max_behind,
                commits=probe.commits, commit_seq=probe.commit_seq,
                db_bytes=sum(p.stat().st_size for p in (self.db, Path(f"{self.db}-wal"))
                             if p.exists()),
                cache=cache,
            )
            self.span_table = [r for r in records if r["kind"] in ("agg", "sample")]
        return result

    def scrape_cache(self) -> Tuple[float, float]:
        """Dashboard cache (hits, misses) from its /metrics exposition."""
        with urllib.request.urlopen(self.dashboard_url + "/metrics", timeout=10) as resp:
            text = resp.read().decode()
        values = {}
        for line in text.splitlines():
            for kind in ("hits", "misses"):
                if line.startswith(f"stampede_dashboard_cache_{kind}_total "):
                    values[kind] = float(line.split()[1])
        if len(values) != 2:
            raise InvalidRun("dashboard /metrics has no cache hit/miss counters")
        return values["hits"], values["misses"]

    def row_diff(self) -> Tuple[int, List[str]]:
        """Archive correctness, outside the timed window.

        TCP workloads: canonical dump of the run's archive against the
        sequential in-process load of the same stream.  ``drain_file``:
        per-table row counts and rollup totals against counts derived
        from the stream (each of these tables gets one row per event of
        one type).
        """
        if self.wl.path == "tcp":
            from repro.archive.merge import canonical_dump, diff_canonical
            from repro.archive.store import StampedeArchive

            archive = StampedeArchive.open(f"sqlite:///{self.db}")
            try:
                problems = diff_canonical(self.reference, canonical_dump(archive))
            finally:
                archive.close()
            return len(problems), problems
        by_type = self.meta["by_type"]
        expect = {
            "SELECT COUNT(*) FROM workflow": by_type.get("stampede.wf.plan", 0),
            "SELECT COUNT(*) FROM task": by_type.get("stampede.task.info", 0),
            "SELECT COUNT(*) FROM task_edge": by_type.get("stampede.task.edge", 0),
            "SELECT COUNT(*) FROM job": by_type.get("stampede.job.info", 0),
            "SELECT COUNT(*) FROM job_edge": by_type.get("stampede.job.edge", 0),
            "SELECT COUNT(*) FROM job_instance": by_type.get("stampede.job_inst.submit.start", 0),
            "SELECT COUNT(*) FROM invocation": by_type.get(INV_END, 0),
            "SELECT SUM(invocations) FROM rollup_workflow": by_type.get(INV_END, 0),
            "SELECT SUM(tasks_total) FROM rollup_workflow": by_type.get("stampede.task.info", 0),
            "SELECT SUM(jobs_total) FROM rollup_workflow": by_type.get("stampede.job.info", 0),
        }
        problems = []
        conn = sqlite3.connect(f"file:{self.db}?mode=ro", uri=True)
        try:
            for sql, want in expect.items():
                got = conn.execute(sql).fetchone()[0] or 0
                if got != want:
                    problems.append(f"{sql}: {got}, stream says {want}")
        finally:
            conn.close()
        return len(problems), problems


# -- driving runs, printing --------------------------------------------------------------

def valid_run(wl: Workload, opts: Options, traced: bool, work_root: Path) -> Run:
    """The workload, run until no validity guard trips.

    A tripped guard says the observations cannot support a number, not
    that the system failed; on the shared seed host it is a stall of the
    generator about one run in thirty.  The run is made again from
    set-up, while attempts and time last, and every discarded attempt
    is told on stderr and kept in the result.  Wrong outputs (``row_diff``,
    events never visible) are results, not guards: they are never retried.
    """
    discarded: List[str] = []
    while True:
        started = _mono()
        run = Run(wl, opts, traced, work_root)
        try:
            run.result = run.execute()
            run.result["discarded_attempts"] = discarded
            return run
        except InvalidRun as exc:
            discarded.append(str(exc))
            next_one = 1.5 * max(_mono() - started, 10.0 + 2.0 * opts.seconds)
            if len(discarded) >= opts.attempts or _mono() + next_one > opts.deadline:
                raise
            print(f"INVALID RUN, attempt {len(discarded)} of {opts.attempts} discarded: {exc}",
                  file=sys.stderr)
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)


def run_workload(wl: Workload, opts: Options, trace: bool, work_root: Path) -> Dict[str, Any]:
    """The untraced run, and with ``trace`` the traced rerun merged in."""
    result = valid_run(wl, opts, False, work_root).result
    if not trace:
        return result
    traced_run = valid_run(wl, opts, True, work_root)
    traced = traced_run.result
    per_layer = dict(traced["per_layer"])
    per_layer.update(result["informative"])  # /proc and read figures: the untraced run's
    # over the whole window: a quick run's slices are too short to time
    base = result["whole_window_cpu_s_per_kev"] * result["host_speed"]
    with_spans = traced["whole_window_cpu_s_per_kev"] * traced["host_speed"]
    per_layer["trace.overhead_pct"] = (100.0 * (with_spans / base - 1.0), "%", 2)
    result["per_layer"] = per_layer
    result["traced_end_to_end"] = traced["end_to_end"]
    result["span_table"] = traced_run.span_table
    result["correct"] = result["correct"] and traced["correct"]
    for key in ("failed", "attempted", "diff_detail", "discarded_attempts"):
        result[key] += traced[key]
    return result


def check_names(spec: Dict[str, Any], result: Dict[str, Any], trace: bool) -> None:
    """Every metric BENCHMARK.json names is emitted, with its unit and a
    sample count — and nothing it does not name."""
    groups = [("end_to_end", result["end_to_end"])]
    if trace:
        groups.append(("per_layer", result["per_layer"]))
    for group, emitted in groups:
        for metric in spec[group]:
            got = emitted.get(metric["name"])
            if got is None:
                raise InvalidRun(f"{result['workload']}: {metric['name']} was not emitted")
            value, unit, n = got
            if unit != metric["unit"]:
                raise InvalidRun(
                    f"{result['workload']}: {metric['name']} has unit {unit!r}, "
                    f"BENCHMARK.json says {metric['unit']!r}"
                )
            if not isinstance(n, int) or (n < 1 and group == "end_to_end"):
                raise InvalidRun(f"{result['workload']}: {metric['name']} has no sample count")
            if not math.isfinite(value):
                raise InvalidRun(f"{result['workload']}: {metric['name']} is {value}")
        extra = set(emitted) - {m["name"] for m in spec[group]}
        if extra:
            raise InvalidRun(f"{result['workload']}: not in BENCHMARK.json: {sorted(extra)}")


def print_table(result: Dict[str, Any], quick: bool) -> None:
    name = result["workload"]
    print(f"\n== {name}: {result['events']} events, digest {result['workload_digest'][:16]}, "
          f"window {result['window_s']:.2f} s, host speed {result['host_speed']:.2f}, "
          f"{len(result['discarded_attempts'])} invalid attempts discarded")
    groups = [result["end_to_end"], result["checks"]]
    groups.append(result.get("per_layer", result["informative"]))
    for group in groups:
        for metric, (value, unit, n) in group.items():
            shown = "ok" if quick else f"{value:.6g}"
            print(f"{name:15s} {metric:34s} {shown:>12s} {unit:6s} n={n}")
    for line in result["diff_detail"]:
        print(f"{name}: ROW DIFF {line}")


def driver_line(spec: Dict[str, Any], result: Dict[str, Any], trace: bool) -> str:
    group = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": result[group][m["name"]][0], "unit": m["unit"]} for m in spec[group]
    }
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="length of the timed window "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="also run traced and report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny runs that only check every metric is emitted")
    parser.add_argument("-o", "--output", help="write the full result as JSON")
    parser.add_argument("--inject", choices=("stall", "kill-loader"),
                        help="trip a validity guard on purpose; no second attempt (see README)")
    args = parser.parse_args(argv)
    started = _mono()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: {ROOT / 'src' / 'repro'} is missing: nothing to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    trace = bool(args.trace) or args.quick
    opts = Options(
        seed=args.seed,
        seconds=1.5 if args.quick else (args.seconds or float(spec["run_seconds"])),
        quick=args.quick,
        inject=args.inject,
        attempts=1 if args.inject else ATTEMPTS,
        deadline=started + RUN_LIMIT_S if args.workload and not args.quick else math.inf,
    )
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    work_root = ROOT / ".e2e_work"
    work_root.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            result = run_workload(WORKLOADS[name], opts, trace, work_root)
            check_names(spec, result, trace)
            results.append(result)
            print_table(result, args.quick)
    except InvalidRun as exc:
        print(f"\nINVALID RUN: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print(f"\ninterrupted ({exc}); children reaped", file=sys.stderr)
        return 130
    finally:
        try:
            work_root.rmdir()
        except OSError:
            pass

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump({
                "host": host_facts(),
                "settings": {"seed": opts.seed, "seconds": opts.seconds, "quick": opts.quick,
                             "trace": trace},
                "workloads": results,
            }, fh, indent=1)
    ok = all(r["correct"] for r in results)
    if args.quick:
        print(f"\nquick check: every metric of BENCHMARK.json emitted on {len(results)} workloads"
              + ("" if ok else "; OUTPUTS INCORRECT"))
    elif args.workload:
        print(driver_line(spec, results[0], bool(args.trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
