"""From what one run observed to its end-to-end metrics.

The seed host is a shared two-vCPU VM.  Identical work runs up to 1.5x
slower for minutes at a time, wake-ups stall for up to 100 ms, and the
unpaced flood of ``drain_tcp`` ends after a different number of seconds
in every run.  Whole-run totals therefore swing +-20 % between runs of
one commit, which no regression bound survives.  Three devices make the
figures repeat (README, "How the numbers are made steady"):

* the timed window is cut into up to :data:`SLICES` slices and every
  metric is computed per slice.  A paced workload reports the **median
  over its slices**; a drain — where disturbances only ever slow a slice
  down — the **median over the faster half of its slices**;
* CPU-bound figures (set-up time among them) are scaled by the run's
  speed gauge (``probe.spin``) to the speed of the reference host;
* the generator's lateness guard counts late events, not the worst one.
"""
from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: slices the timed window is cut into, at most
SLICES = 8
MIN_SLICE_EVENTS = 2000
#: what probe.spin() takes on the seed host in its fast state.  Results
#: that are made of CPU work are reported at this speed: a run whose
#: gauge reads 1.5x this is taken to have run on a host 1.5x slower.
REFERENCE_SPIN_S = 235e-6
#: an event is late when it is not visible this long after it was due
LATE_LIMIT_S = 0.5

Metric = Tuple[float, str, int]  # value, unit, samples behind it


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class DueIndex:
    """The inv.end events of a stream, in stream order.

    ``keys[j]`` is (workflow uuid, how many inv.end of that workflow came
    before) — what a frame's ``invocations`` counter is matched against —
    and ``positions[j]`` the event's index in the stream.
    """

    def __init__(self) -> None:
        self.keys: List[Tuple[str, int]] = []
        self.positions: List[int] = []
        self._per_wf: Dict[str, int] = {}

    def add(self, position: int, uuid: str) -> None:
        k = self._per_wf.get(uuid, 0)
        self._per_wf[uuid] = k + 1
        self.keys.append((uuid, k))
        self.positions.append(position)

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class Slice:
    """A stretch of the timed window, ending on an inv.end event."""

    start: int  # stream position of its first event
    end: int  # stream position just past its last inv.end
    first: int  # its inv.end events are due_index[first:last]
    last: int

    @property
    def events(self) -> int:
        return self.end - self.start


def plan_slices(paced: bool, n_pre: int, n_window: int, copy_events: int,
                positions: Sequence[int], warm_events: int = 0) -> List[Slice]:
    """Cut the window ``[n_pre, n_pre + n_window)`` of the stream.

    A paced window, after its first ``warm_events`` (connection set-up,
    statement caches), is cut into up to :data:`SLICES` equal stretches
    of at least :data:`MIN_SLICE_EVENTS` — several 500-row batches each,
    because what the probe sees moves a batch at a time.  A drain is cut
    at copy boundaries of the base trace, so that every slice holds the
    same mix of event types and their rates can be compared: about
    :data:`SLICES` slices of k whole copies each, a trailing part copy
    left out; a drain shorter than one copy is a single slice.  Every
    slice ends on its last inv.end, the only thing the probe sees.
    """
    stop_at = n_pre + n_window
    if paced:
        begin = min(n_pre + warm_events, stop_at)
        count = min(SLICES, max(1, (stop_at - begin) // MIN_SLICE_EVENTS))
        ends = [begin + round(j * (stop_at - begin) / count) for j in range(1, count + 1)]
    else:
        begin = n_pre
        copies = n_window // copy_events
        per_slice = max(1, copies // SLICES)
        ends = [n_pre + j * per_slice * copy_events
                for j in range(1, copies // per_slice + 1)] or [stop_at]
    slices: List[Slice] = []
    start, first = begin, bisect.bisect_left(positions, begin)
    for end in ends:
        last = bisect.bisect_left(positions, end)
        if last > first:
            stop = positions[last - 1] + 1
            slices.append(Slice(start, stop, first, last))
            start, first = stop, last
    return slices


@dataclass
class Recording:
    """What one run observed, before any arithmetic."""

    paced: bool
    viewer: bool
    seconds: float
    quick: bool
    n_pre: int
    n_window: int
    t_start: float  # run.py started
    warmup_s: float  # start of a paced window that is not sampled
    origin: float  # the timed window started
    due_index: DueIndex
    dues: List[float]  # per inv.end; before ``origin`` for the pre-roll
    slices: List[Slice]
    #: (time, wf uuid, invocations before, invocations now) per frame and workflow
    advances: List[Tuple[float, str, int, int]]
    #: (time, {role: cpu seconds then}) when the last inv.end before the first
    #: slice (paced workloads only) and of each slice became visible
    mark_samples: List[Tuple[float, Dict[str, float]]]
    #: (start time, seconds, ok, endpoint kind) per dashboard read
    reads: List[Tuple[float, float, bool, str]]
    spins: List[Tuple[float, float]]  # (time, seconds) per speed-gauge sample
    usage0: Dict[str, Tuple[float, float]]  # role -> (cpu s, peak RSS MB) at origin
    usage1: Dict[str, Tuple[float, float]]  # ... after the last event
    visible_at: Dict[Tuple[str, int], float] = field(default_factory=dict)


class Invalid(RuntimeError):
    """The observations cannot support a number (re-raised as InvalidRun)."""


def _slice_stats(rec: Recording, piece: Slice, t0: float, cpu0: float, t1: float, cpu1: float,
                 late_limit: float) -> Optional[Dict[str, float]]:
    """One slice's figures; None when nothing in it became visible."""
    lat: List[float] = []
    late = 0
    for j in range(piece.first, piece.last):
        seen = rec.visible_at.get(rec.due_index.keys[j])
        if seen is None:
            late += 1
            continue
        # every event of a drain is due when its slice starts
        delay = seen - (rec.dues[j] if rec.paced else t0)
        lat.append(delay)
        if delay > late_limit:
            late += 1
    timed = t1 > t0  # two marks can fall into one frame; a drain slice needs its time
    if not lat or not (timed or rec.paced):
        return None
    lat.sort()
    return {
        "rate": piece.events / (t1 - t0) if timed else 0.0,
        "p50": percentile(lat, 0.50), "p95": percentile(lat, 0.95), "p99": percentile(lat, 0.99),
        "ontime": 1.0 - late / (piece.last - piece.first),
        "cpu_per_kev": (cpu1 - cpu0) / (piece.events / 1000.0),
        "samples": float(len(lat)),
    }


def end_to_end(rec: Recording, max_tail_s: float, min_drain_s: float) -> Dict[str, object]:
    """The end-to-end metrics of one run, plus what decides ``failed``."""
    for t, uuid, before, now in rec.advances:
        for k in range(before, now):
            rec.visible_at[(uuid, k)] = t
    keys, dues = rec.due_index.keys, rec.dues
    window = [j for j in range(len(keys)) if dues[j] >= rec.origin]
    seen_times = [rec.visible_at[keys[j]] for j in window if keys[j] in rec.visible_at]
    never = len(window) - len(seen_times)
    if not seen_times:
        raise Invalid("no probe event became visible")
    t_end = max(seen_times)
    window_s = t_end - rec.origin
    if rec.paced:
        tail = t_end - max(dues)
        if tail > max_tail_s:
            raise Invalid(
                f"last event visible {tail:.2f} s after it was due (limit {max_tail_s} s): "
                "a backlog was still draining"
            )
    elif window_s < min_drain_s and not rec.quick:
        raise Invalid(f"drain took {window_s:.2f} s: too short to time")

    # per-slice figures
    late_limit = LATE_LIMIT_S if rec.paced else 2.0 * rec.seconds
    cpu_at_origin = sum(cpu for cpu, _rss in rec.usage0.values())
    cpu_at_end = sum(cpu for cpu, _rss in rec.usage1.values())

    def cpu_then(by_role: Dict[str, float]) -> float:
        # a process that has already ended (nl-load FILE) reads as its final figure
        return sum(by_role.get(role, rec.usage1[role][0]) for role in rec.usage1)

    marks = list(rec.mark_samples)
    if rec.paced:
        if not marks:
            raise Invalid("nothing became visible after the warm-up")
        t0, cpu0 = marks[0][0], cpu_then(marks[0][1])
        marks = marks[1:]
    else:
        t0, cpu0 = rec.origin, cpu_at_origin
    per_slice: List[Dict[str, float]] = []
    for i, piece in enumerate(rec.slices):
        if i < len(marks):
            t1, cpu1 = marks[i][0], cpu_then(marks[i][1])
        else:  # never reached: its events count as never visible
            t1, cpu1 = t_end, cpu_at_end
        stats = _slice_stats(rec, piece, t0, cpu0, t1, cpu1, late_limit)
        if stats is not None:
            per_slice.append(stats)
        t0, cpu0 = t1, cpu1
    if not per_slice:
        raise Invalid("no slice of the window became visible")

    if rec.paced:
        used = per_slice
    else:
        # disturbances only slow a slice down; the faster half repeats
        ranked = sorted(per_slice, key=lambda s: s["rate"], reverse=True)
        used = ranked[: (len(ranked) + 1) // 2]

    def pick(name: str) -> float:
        return statistics.median(s[name] for s in used)

    samples = int(sum(s["samples"] for s in used))
    spins = [sec for t, sec in rec.spins if rec.origin <= t <= t_end] or \
        [sec for _t, sec in rec.spins]
    speed = REFERENCE_SPIN_S / statistics.median(spins)
    # A paced window is made of waiting (batch fill, polls): its wall-clock
    # figures stay as measured.  A drain is busy from end to end: its are
    # reported as the reference host would have shown them.
    wall = 1.0 if rec.paced else speed
    rss = sum(usage[1] for usage in rec.usage1.values())
    # the stream up to its last inv.end: what t_end is the visible time of
    probed_events = rec.due_index.positions[-1] + 1 - rec.n_pre
    as_measured: Dict[str, Metric] = {
        "setup_s": (rec.origin - rec.t_start, "s", 1),
        # pinned by the generator on a paced workload (it only falls when a
        # backlog forms), so there the whole window is the steadier reading
        "throughput_eps": (probed_events / window_s if rec.paced else pick("rate"),
                           "1/s", len(per_slice)),
        "visible_p50_ms": (pick("p50") * 1e3, "ms", samples),
        "visible_p95_ms": (pick("p95") * 1e3, "ms", samples),
        "visible_p99_ms": (pick("p99") * 1e3, "ms", samples),
        "ontime_share": (pick("ontime"), "share", samples),
        "peak_rss_mb": (rss, "MB", len(rec.usage1)),
    }
    # Set-up is interpreter start-up, imports and trace generation on every
    # workload — CPU work from end to end, so it is reported like a drain.
    factor = {"setup_s": speed, "throughput_eps": 1.0 / wall, "visible_p50_ms": wall,
              "visible_p95_ms": wall, "visible_p99_ms": wall}
    metrics: Dict[str, Metric] = {
        name: (value * factor.get(name, 1.0), unit, n)
        for name, (value, unit, n) in as_measured.items()
    }

    # dashboard reads: during the window beside the writer (viewer), or the
    # back-to-back series on the quiet archive after it
    if rec.viewer:
        reads = [r for r in rec.reads if rec.origin + rec.warmup_s <= r[0] <= max(dues)]
    else:
        reads = list(rec.reads)
    if not reads:
        raise Invalid("no dashboard read completed")
    read_s = sorted(r[1] for r in reads)
    cpu_total = cpu_at_end - cpu_at_origin
    informative: Dict[str, Metric] = {
        "host.speed": (speed, "share", len(spins)),
        "proc.cpu_s_per_kev": (pick("cpu_per_kev") * speed, "s/kev", len(used)),
        "dashboard.read_p50_ms": (percentile(read_s, 0.50) * 1e3 * speed, "ms", len(read_s)),
        "dashboard.read_p95_ms": (percentile(read_s, 0.95) * 1e3 * speed, "ms", len(read_s)),
        "dashboard.read_p99_ms": (percentile(read_s, 0.99) * 1e3 * speed, "ms", len(read_s)),
    }
    for role in ("broker", "loader", "dashboard"):  # drain_file has no broker
        seconds = rec.usage1[role][0] - rec.usage0[role][0] if role in rec.usage1 else 0.0
        informative[f"proc.{role}_cpu_s"] = (seconds * speed, "s", 1)
        informative[f"proc.{role}_cpu_share"] = (seconds / window_s, "share", 1)
    late_all = never + sum(
        1 for j in window
        if keys[j] in rec.visible_at
        and rec.visible_at[keys[j]] - (dues[j] if rec.paced else rec.origin) > late_limit
    )
    return {
        "end_to_end": metrics,
        "as_measured": as_measured,
        "informative": informative,
        "host_speed": speed,
        "window_s": window_s,
        "whole_window_eps": probed_events / window_s,
        "whole_window_cpu_s_per_kev": cpu_total / (rec.n_window / 1000.0),
        "slices": per_slice,
        "never_visible": never,
        "late_share": late_all / len(window),
        "probe_events": len(window),
        "reads": len(reads),
        "bad_reads": sum(1 for r in reads if not r[2]),
    }
