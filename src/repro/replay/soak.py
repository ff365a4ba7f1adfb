"""The soak driver: a shaped storm through a real loader, with teeth.

``run_soak`` is the harness the ROADMAP's robustness story converges
on.  One run:

1. builds the **baseline**: the trace loaded sequentially, unshaped and
   fault-free, into its own archive — the ground truth for row identity;
2. replays the same trace as **live traffic** through a (optionally
   chaos-wrapped) broker into a checkpointing loader behind a bounded
   backpressure queue, while
3. **arming** a PR 3 fault plan mid-replay (the chaos switches on while
   traffic is flowing, not at a convenient boundary), and
4. **killing** the loader mid-storm — an exception mid-batch, in-flight
   messages requeued, uncommitted work lost — then resuming a fresh
   loader from the PR 2 checkpoint on the same queue;
5. gates the outcome: canonical row-identity vs the baseline, zero
   DLQ/stranded-message leakage, minimum throughput, p99
   publish→commit latency from the PR 5 PipelineClock, and a peak-RSS
   ceiling sampled across the storm.

The report serializes to the ``BENCH_soak.json`` artifact the CI
``soak-smoke`` job commits and compares across PRs.

Composition helpers here (:func:`mixed_trace`, :func:`storm_stream`)
build the standard storm: all five workloads — CyberShake, Montage,
Epigenomics, LIGO inspiral, DART — interleaved on one timeline, then
multiplied into distinct workflow trees per copy.
"""
from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.store import StampedeArchive
from repro.bus.broker import DEAD_LETTER_QUEUE, Broker
from repro.faults.bus import ChaosBroker
from repro.faults.plan import FaultPlan
from repro.loader.checkpoint import CheckpointManager
from repro.loader.nl_load import load_from_bus
from repro.loader.stampede_loader import StampedeLoader
from repro.netlogger.events import NLEvent
from repro.obs.metrics import MetricsRegistry
from repro.replay.replayer import Replayer
from repro.replay.shape import Shape
from repro.replay.trace import TraceRecord, compose_traces, remap_workflow_ids, trace_from_events

__all__ = [
    "GateCheck",
    "SoakReport",
    "mixed_trace",
    "storm_stream",
    "run_soak",
]

#: queue the soak loader consumes; named so checkpoints key off it
SOAK_QUEUE = "soak.ingest"


class _SoakKill(RuntimeError):
    """Injected loader death; deliberately outside every recovery path."""


# -- trace composition ---------------------------------------------------------

def _spread(records: List[TraceRecord], duration: float) -> List[TraceRecord]:
    """Give a trace a uniform synthetic timeline over ``duration`` seconds.

    Engine-simulated timestamps span simulated hours at wildly different
    densities per workload; a uniform spread makes :func:`compose_traces`
    interleave the workloads instead of concatenating them.
    """
    n = len(records)
    if n <= 1:
        return records
    step = duration / (n - 1)
    return [
        TraceRecord(i * step, r.routing_key, r.body, r.headers)
        for i, r in enumerate(records)
    ]


def mixed_trace(seed: int = 11, scale: int = 1) -> List[TraceRecord]:
    """The standard mixed-workload trace: all five workloads, one stream.

    ``scale`` multiplies each generator's size knob.  Workflow ids are
    already distinct (different generators, different seeds), so the
    composition keeps identities; storm multiplication is what remaps.

    The byte stream depends on ``PYTHONHASHSEED`` (a set of strings is
    iterated below this function), so it differs between processes for
    one ``seed``; ``benchmarks/e2e`` pins the hash seed to 0 and checks a
    digest of its input.
    """
    from repro.dart.pegasus_variant import run_dart_pegasus
    from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
    from repro.triana.appender import MemoryAppender
    from repro.workloads import cybershake, epigenomics, ligo_inspiral, montage

    catalog = SiteCatalog(
        [Site("pool", slots=16, mean_queue_delay=1.0, hosts_per_site=4)]
    )
    workflows = [
        cybershake(n_ruptures=2 * scale),
        montage(n_images=3 * scale),
        epigenomics(n_lanes=2 * scale),
        ligo_inspiral(n_blocks=2 * scale),
    ]
    traces: List[List[TraceRecord]] = []
    for i, aw in enumerate(workflows):
        sink = MemoryAppender()
        run_pegasus_workflow(
            aw,
            sink,
            catalog=catalog,
            planner_config=PlannerConfig(cluster_size=4),
            seed=seed + i,
        )
        traces.append(_spread(trace_from_events(sink.events), 1.0))
    dart_sink = MemoryAppender()
    run_dart_pegasus(dart_sink, seed=seed + len(workflows), n_nodes=2, chunk_size=32)
    traces.append(_spread(trace_from_events(dart_sink.events), 1.0))
    return compose_traces(*traces, remap=False)


def storm_stream(
    base: Sequence[TraceRecord], times: int, salt: str = "storm"
) -> Iterator[TraceRecord]:
    """Stream ``times`` remapped copies of a base trace, one after another.

    Copies are generated lazily (one copy's remap in memory at a time),
    which is what lets a ~1M-event storm replay within a bounded RSS —
    the property the soak gate then measures.  Copies are sequential on
    the trace timeline; rate shaping comes from the replay
    :class:`~repro.replay.shape.Shape`, which schedules by index.
    """
    span = (base[-1].t - base[0].t) if base else 0.0
    for k in range(times):
        offset = k * span
        for r in remap_workflow_ids(base, f"{salt}/{k}"):
            yield TraceRecord(r.t + offset, r.routing_key, r.body, r.headers)


# -- the report ----------------------------------------------------------------

@dataclass
class GateCheck:
    """One pass/fail measurement against its limit."""

    name: str
    value: float
    limit: float
    kind: str  # 'min': value >= limit passes; 'max': value <= limit passes

    @property
    def ok(self) -> bool:
        return self.value >= self.limit if self.kind == "min" else self.value <= self.limit

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "value": round(self.value, 6),
            "limit": self.limit,
            "kind": self.kind,
            "ok": self.ok,
        }


@dataclass
class SoakReport:
    """Everything a soak run measured, plus the gate verdicts."""

    events: int = 0
    duration: float = 0.0
    throughput: float = 0.0
    baseline_rate: float = 0.0
    replay_rate: float = 0.0
    shape: str = ""
    p99_commit_s: float = 0.0
    p99_deliver_s: float = 0.0
    latency_samples: int = 0
    peak_rss_mb: float = 0.0
    dlq_events: int = 0
    broker_dlq_depth: int = 0
    stranded_messages: int = 0
    row_diff: List[str] = field(default_factory=list)
    events_processed: int = 0
    duplicates_skipped: int = 0
    redelivered: int = 0
    reconnects: int = 0
    killed: bool = False
    resumed: bool = False
    faults: Dict[str, int] = field(default_factory=dict)
    gates: List[GateCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(g.ok for g in self.gates)

    def to_dict(self) -> Dict[str, object]:
        return {
            "events": self.events,
            "duration_s": round(self.duration, 3),
            "throughput_ev_s": round(self.throughput, 1),
            "baseline_rate_ev_s": round(self.baseline_rate, 1),
            "replay_rate_ev_s": round(self.replay_rate, 1),
            "shape": self.shape,
            "p99_commit_s": round(self.p99_commit_s, 4),
            "p99_deliver_s": round(self.p99_deliver_s, 4),
            "latency_samples": self.latency_samples,
            "peak_rss_mb": round(self.peak_rss_mb, 1),
            "dlq_events": self.dlq_events,
            "broker_dlq_depth": self.broker_dlq_depth,
            "stranded_messages": self.stranded_messages,
            "row_diff": self.row_diff[:20],
            "row_identical": not self.row_diff,
            "events_processed": self.events_processed,
            "duplicates_skipped": self.duplicates_skipped,
            "redelivered": self.redelivered,
            "reconnects": self.reconnects,
            "killed": self.killed,
            "resumed": self.resumed,
            "faults": dict(self.faults),
            "gates": [g.to_dict() for g in self.gates],
            "passed": self.passed,
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)


# -- plumbing ------------------------------------------------------------------

def _rss_bytes() -> int:
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _RssSampler(threading.Thread):
    def __init__(self, interval: float = 0.05):
        super().__init__(daemon=True)
        self.interval = interval
        self.peak = 0
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.is_set():
            self.peak = max(self.peak, _rss_bytes())
            self._halt.wait(self.interval)
        self.peak = max(self.peak, _rss_bytes())

    def stop(self) -> int:
        self._halt.set()
        self.join(timeout=5.0)
        return self.peak


TraceSource = Union[Sequence[TraceRecord], Callable[[], Iterable[TraceRecord]]]


def _iter_trace(trace: TraceSource) -> Iterator[TraceRecord]:
    return iter(trace()) if callable(trace) else iter(trace)


# -- the driver ----------------------------------------------------------------

def run_soak(
    trace: TraceSource,
    workdir: str,
    total: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
    shape: Optional[Shape] = None,
    arm_at: float = 0.3,
    kill_at: float = 0.55,
    kill: bool = True,
    batch_size: int = 500,
    queue_max: int = 20_000,
    poll_timeout: float = 0.02,
    min_throughput: float = 1_000.0,
    max_p99_commit: float = 8.0,
    max_rss_mb: float = 1_500.0,
    progress: Optional[Callable[[str], None]] = None,
) -> SoakReport:
    """Run the full storm scenario; see the module docstring.

    ``trace`` is a record sequence or a re-invocable factory (a factory
    streams huge storms without materializing them twice).  ``plan``
    starts disarmed and arms at ``arm_at`` of the replay; ``kill_at``
    fires the loader kill.  The archive/baseline sqlite files land in
    ``workdir``.
    """
    say = progress or (lambda _msg: None)
    if total is None:
        if callable(trace):
            total = sum(1 for _ in trace())
        else:
            total = len(trace)
    report = SoakReport(events=total)

    # 1. baseline: sequential, unshaped, fault-free ---------------------------
    say(f"baseline: loading {total} events sequentially")
    os.makedirs(workdir, exist_ok=True)
    baseline_path = os.path.join(workdir, "baseline.db")
    baseline_archive = StampedeArchive.open(f"sqlite:///{baseline_path}")
    baseline_loader = StampedeLoader(baseline_archive, batch_size=batch_size)
    t0 = time.monotonic()
    for record in _iter_trace(trace):
        baseline_loader.process(record.as_event())
    baseline_loader.flush()
    baseline_elapsed = time.monotonic() - t0
    report.baseline_rate = total / baseline_elapsed if baseline_elapsed else 0.0
    baseline = canonical_dump(baseline_archive)
    baseline_archive.close()

    # 2. the storm ------------------------------------------------------------
    broker: Broker = (
        ChaosBroker(plan) if plan is not None and plan.bus.active else Broker()
    )
    if plan is not None:
        plan.disarm()
    # declare + bind before any publish so nothing dead-letters as
    # unroutable; bounded with 'block' so the queue is a backpressure
    # boundary (this is what the RSS ceiling leans on)
    broker.declare_queue(
        SOAK_QUEUE, durable=True, max_length=queue_max, overflow="block"
    )
    broker.bind_queue(SOAK_QUEUE, "#")
    queue = broker.queue(SOAK_QUEUE)
    metrics = MetricsRegistry()
    conn = f"sqlite:///{os.path.join(workdir, 'soak.db')}"

    kill_signal = threading.Event()
    replay_done = threading.Event()
    loaders: List[StampedeLoader] = []
    ingest_errors: List[BaseException] = []

    def drained(_loader: StampedeLoader) -> bool:
        return replay_done.is_set() and len(queue) == 0

    def ingest() -> None:
        archive = StampedeArchive.open(conn)
        loader = StampedeLoader(
            archive,
            batch_size=batch_size,
            checkpoint=CheckpointManager(archive, SOAK_QUEUE),
        )
        original_process = loader.process

        def dying_process(event: NLEvent) -> None:
            if kill_signal.is_set():
                raise _SoakKill("injected loader kill mid-storm")
            original_process(event)

        if kill:
            # instance-attribute override, the same seam the kill/resume
            # loader tests use
            setattr(loader, "process", dying_process)
        try:
            try:
                load_from_bus(
                    broker,
                    pattern="#",
                    queue_name=SOAK_QUEUE,
                    loader=loader,
                    durable=True,
                    until=drained,
                    poll_timeout=poll_timeout,
                    dead_letter=True,
                    metrics=metrics,
                )
                loaders.append(loader)
                archive.close()
            except _SoakKill:
                report.killed = True
                loaders.append(loader)
                archive.close()
                # resume: fresh process semantics — new archive handle,
                # new loader, state only from the durable checkpoint
                archive2 = StampedeArchive.open(conn)
                loader2 = StampedeLoader(
                    archive2,
                    batch_size=batch_size,
                    checkpoint=CheckpointManager(archive2, SOAK_QUEUE),
                )
                load_from_bus(
                    broker,
                    pattern="#",
                    queue_name=SOAK_QUEUE,
                    loader=loader2,
                    durable=True,
                    until=drained,
                    poll_timeout=poll_timeout,
                    dead_letter=True,
                    metrics=metrics,
                    resume=True,
                )
                report.resumed = True
                loaders.append(loader2)
                archive2.close()
        except BaseException as exc:  # surfaced to the caller after join
            ingest_errors.append(exc)

    marks = []
    if plan is not None:
        marks.append((arm_at, lambda _n: plan.arm()))
    if kill:
        marks.append((kill_at, lambda _n: kill_signal.set()))

    say(
        f"storm: replaying {total} events"
        + (f" (chaos arms at {arm_at:.0%}" if plan is not None else " (no chaos")
        + (f", kill at {kill_at:.0%})" if kill else ")")
    )
    sampler = _RssSampler()
    sampler.start()
    ingest_thread = threading.Thread(target=ingest, daemon=True)
    storm_t0 = time.monotonic()
    ingest_thread.start()
    replayer = Replayer(broker)
    stats = replayer.run(_iter_trace(trace), shape=shape, marks=marks, total=total)
    replay_done.set()
    report.replay_rate = stats.rate
    report.shape = stats.shape
    ingest_thread.join(timeout=600.0)
    report.duration = time.monotonic() - storm_t0
    report.peak_rss_mb = sampler.stop() / (1024.0 * 1024.0)
    if ingest_errors:
        raise ingest_errors[0]
    if ingest_thread.is_alive():
        raise RuntimeError("soak ingest did not drain within 600s")

    # 3. verdicts -------------------------------------------------------------
    say("verify: canonical diff + leakage + latency gates")
    report.throughput = total / report.duration if report.duration else 0.0
    final = loaders[-1] if loaders else None
    if final is not None:
        report.events_processed = final.stats.events_processed
        report.duplicates_skipped = sum(
            ld.stats.duplicates_skipped for ld in loaders
        )
        report.redelivered = sum(ld.stats.redelivered_events for ld in loaders)
        report.reconnects = sum(ld.stats.reconnects for ld in loaders)
        report.dlq_events = sum(ld.stats.dlq_events for ld in loaders)
    if DEAD_LETTER_QUEUE in broker.queue_names():
        report.broker_dlq_depth = len(broker.queue(DEAD_LETTER_QUEUE))
    report.stranded_messages = len(queue) + queue.unacked_count
    if plan is not None:
        report.faults = plan.stats.to_dict()

    commit_hist = metrics.histogram(
        "stampede_pipeline_latency_seconds",
        "Publish-to-stage latency of bus-delivered events.",
        labels={"stage": "commit"},
    )
    deliver_hist = metrics.histogram(
        "stampede_pipeline_latency_seconds",
        "Publish-to-stage latency of bus-delivered events.",
        labels={"stage": "deliver"},
    )
    report.p99_commit_s = commit_hist.quantile(0.99)
    report.p99_deliver_s = deliver_hist.quantile(0.99)
    report.latency_samples = commit_hist.count

    storm_archive = StampedeArchive.open(conn)
    report.row_diff = diff_canonical(baseline, canonical_dump(storm_archive))
    storm_archive.close()

    report.gates = [
        GateCheck("row_diff", float(len(report.row_diff)), 0.0, "max"),
        GateCheck(
            "dlq_leakage",
            float(report.dlq_events + report.broker_dlq_depth),
            0.0,
            "max",
        ),
        GateCheck("stranded", float(report.stranded_messages), 0.0, "max"),
        GateCheck("throughput_ev_s", report.throughput, min_throughput, "min"),
        GateCheck("p99_commit_s", report.p99_commit_s, max_p99_commit, "max"),
        GateCheck("peak_rss_mb", report.peak_rss_mb, max_rss_mb, "max"),
    ]
    if kill:
        report.gates.append(
            GateCheck("kill_resume", float(report.killed and report.resumed), 1.0, "min")
        )
    return report
