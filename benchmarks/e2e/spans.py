"""Span recorder for the traced benchmark run — lives outside ``src/``.

The benchmark wraps the public functions at each layer boundary of the
system under test from here, so the traced run needs no change to the
program.  When spans land inside ``src/`` (a later issue) the metric
names stay and only this file goes away.

A span is (name, start, end, parent, pid, thread).  Per-event spans
(parse, process, publish, ...) are aggregated in memory per
(name, parent) as count / total / self / cpu, where *self* is the
duration minus the part covered by child spans and *cpu* is thread CPU
time, taken for root spans only (it answers "what share of the process's
CPU time is inside some span").  Per-batch spans (flush, transaction,
rollup apply, snapshot, frame) are also kept one by one.  One in 256
per-event spans whose call carries an ``x-trace`` header is kept
individually, chosen by the id itself so every process keeps the same
events.  Everything is written as JSON lines by :meth:`Recorder.dump`.

All clocks are ``time.monotonic`` (CLOCK_MONOTONIC on Linux), so
timestamps from different processes on one host are comparable.
"""
from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_mono = time.monotonic
_cpu = time.thread_time

TRACE_HEADER = "x-trace"


def _sampled(trace_id: object) -> bool:
    """``new_trace_id`` is ``<pid hex>-<counter hex>``: keep counter % 256 == 0."""
    if not isinstance(trace_id, str):
        return False
    try:
        return int(trace_id.rsplit("-", 1)[-1], 16) & 0xFF == 0
    except ValueError:
        return False


class _ThreadState:
    __slots__ = ("stack", "agg")

    def __init__(self) -> None:
        #: open spans, innermost last: [name, seconds covered by children]
        self.stack: List[List[Any]] = []
        #: (name, parent name) -> [count, total_s, self_s, cpu_s]
        self.agg: Dict[Tuple[str, Optional[str]], List[float]] = {}


class Recorder:
    """Collects spans of one process; threads record without locking."""

    def __init__(self, role: str):
        self.role = role
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self.batches: List[Tuple[str, Optional[str], float, float, int]] = []
        self.samples: List[Tuple[str, str, float, float]] = []
        #: extra JSONL records produced at dump time (stats, depth series)
        self.extras: List[Callable[[], List[Dict[str, Any]]]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Replace ``owner.attr``, remembering the original for :meth:`unpatch`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Undo every :meth:`patch` (the benchmark process runs several
        workloads; the SUT processes just exit)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    # -- recording -----------------------------------------------------------
    def begin(self, name: str) -> Tuple[_ThreadState, List[Any], Optional[List[Any]], float, float]:
        state = self._state()
        stack = state.stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        return state, frame, parent, (_cpu() if parent is None else 0.0), _mono()

    def end(self, token, batch: bool = False, trace_id: object = None) -> None:
        end = _mono()
        state, frame, parent, cpu0, start = token
        state.stack.pop()
        duration = end - start
        parent_name = None
        if parent is not None:
            parent[1] += duration
            parent_name = parent[0]
        name = frame[0]
        rec = state.agg.get((name, parent_name))
        if rec is None:
            rec = state.agg[(name, parent_name)] = [0, 0.0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]
        if parent is None:
            rec[3] += _cpu() - cpu0
        if batch:
            self.batches.append((name, parent_name, start, end, threading.get_ident()))
        if trace_id is not None and _sampled(trace_id):
            self.samples.append((name, trace_id, start, end))

    def span(
        self,
        fn: Callable,
        name: str,
        batch: bool = False,
        on_enter: Optional[Callable[[float, tuple], None]] = None,
        trace_of: Optional[Callable[[tuple, dict, Any], object]] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call is one span called ``name``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = begin(name)
            if on_enter is not None:
                on_enter(token[4], args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(
                    token,
                    batch,
                    trace_of(args, kwargs, result) if trace_of is not None else None,
                )

        return wrapper

    def span_scope(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn``, which returns a context manager: the span is the
        ``with`` body, kept individually (scopes are per batch)."""
        recorder = self

        class _Scope:
            def __init__(self, inner):
                self._inner = inner

            def __enter__(self):
                self._token = recorder.begin(name)
                return self._inner.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return self._inner.__exit__(*exc_info)
                finally:
                    recorder.end(self._token, batch=True)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _Scope(fn(*args, **kwargs))

        return wrapper

    # -- output --------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        merged: Dict[Tuple[str, Optional[str]], List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, rec in list(state.agg.items()):
                into = merged.setdefault(key, [0, 0.0, 0.0, 0.0])
                for i, value in enumerate(rec):
                    into[i] += value
        head = {"role": self.role, "pid": os.getpid()}
        out: List[Dict[str, Any]] = [
            dict(head, kind="agg", name=name, parent=parent, count=int(rec[0]),
                 total_s=rec[1], self_s=rec[2], cpu_s=rec[3])
            for (name, parent), rec in sorted(
                merged.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]
        out.extend(
            dict(head, kind="batch", name=name, parent=parent, start=start, end=end, tid=tid)
            for name, parent, start, end, tid in list(self.batches)
        )
        out.extend(
            dict(head, kind="sample", name=name, trace=trace, start=start, end=end)
            for name, trace, start, end in list(self.samples)
        )
        for extra in self.extras:
            out.extend(dict(head, **rec) for rec in extra())
        return out

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
        os.replace(tmp, path)


# -- which calls become spans ---------------------------------------------------

def _header_trace(headers: object) -> object:
    return headers.get(TRACE_HEADER) if isinstance(headers, dict) else None


def _trace_publish(args: tuple, kwargs: dict, _result: Any) -> object:
    # Broker.publish(self, routing_key, body, exchange=, headers=)
    return _header_trace(kwargs.get("headers", args[4] if len(args) > 4 else None))


def _trace_result_message(_args: tuple, _kwargs: dict, result: Any) -> object:
    return _header_trace(getattr(result, "headers", None))


def _trace_arg_message(args: tuple, _kwargs: dict, _result: Any) -> object:
    return _header_trace(getattr(args[1], "headers", None)) if len(args) > 1 else None


def instrument(recorder: Recorder) -> None:
    """Wrap the layer boundaries of ``repro`` in this process.

    Methods are patched on their classes and module-level functions in
    the namespace of the module that calls them, so the program itself is
    untouched.  Wrapping what a process never calls costs nothing.
    """
    from repro.archive.store import StampedeArchive
    from repro.bus import net
    from repro.bus.broker import Broker
    from repro.core import dashboard, live
    from repro.core.rollup import RollupMaintainer
    from repro.loader.stampede_loader import StampedeLoader
    from repro.netlogger.events import NLEvent

    def wrap(owner: Any, attr: str, name: str, **options: Any) -> None:
        recorder.patch(owner, attr, recorder.span(getattr(owner, attr), name, **options))

    # repro.netlogger
    recorder.patch(
        NLEvent, "from_bp",
        classmethod(recorder.span(NLEvent.from_bp.__func__, "netlogger.parse")),
    )
    wrap(NLEvent, "to_bp", "netlogger.format")

    # repro.bus.net
    wrap(net, "encode_body", "bus.net.encode")
    wrap(net, "decode_body", "bus.net.decode")
    wrap(net._Framed, "send", "bus.net.send")
    wrap(net._Framed, "recv", "bus.net.recv")
    consumers: List[Any] = []

    def saw_consumer(_t0: float, args: tuple) -> None:
        if not consumers:
            consumers.append(args[0])

    wrap(net.RemoteConsumer, "get_message", "bus.net.get_message",
         on_enter=saw_consumer, trace_of=_trace_result_message)
    wrap(net.RemoteConsumer, "ack", "bus.net.ack", trace_of=_trace_arg_message)
    wrap(net.RemotePublisher, "publish", "gen.publish")

    # repro.bus.broker: spans on publish, and a sampled queue-depth series
    depth: List[Tuple[float, int]] = []
    brokers: List[Broker] = []

    def sample_depth() -> None:
        while True:
            total = sum(len(queue) for queue in brokers[0].queues())
            if not depth or depth[-1][1] != total:
                depth.append((_mono(), total))
            time.sleep(0.02)

    def saw_broker(_t0: float, args: tuple) -> None:
        if not brokers:
            brokers.append(args[0])
            threading.Thread(target=sample_depth, name="e2e-depth", daemon=True).start()

    wrap(Broker, "publish", "bus.broker.publish", on_enter=saw_broker, trace_of=_trace_publish)

    # repro.loader: process / flush, plus how long events sit buffered
    loaders: List[StampedeLoader] = []
    buffered: List[float] = []
    wait = [0.0, 0]  # seconds summed over events, events

    def entered_process(t0: float, args: tuple) -> None:
        if not loaders:
            loaders.append(args[0])
        buffered.append(t0)

    def entered_flush(t0: float, _args: tuple) -> None:
        if buffered:
            wait[0] += len(buffered) * t0 - sum(buffered)
            wait[1] += len(buffered)
            buffered.clear()

    wrap(StampedeLoader, "process", "loader.process", on_enter=entered_process)
    wrap(StampedeLoader, "flush", "loader.flush", batch=True, on_enter=entered_flush)

    # repro.archive / repro.orm
    recorder.patch(
        StampedeArchive, "transaction",
        recorder.span_scope(StampedeArchive.transaction, "archive.transaction"),
    )
    wrap(StampedeArchive, "insert_many", "archive.insert_many")
    wrap(StampedeArchive, "update", "archive.update")

    # repro.core.rollup
    wrap(RollupMaintainer, "observe_insert", "rollup.observe")
    wrap(RollupMaintainer, "observe_update", "rollup.observe")
    wrap(RollupMaintainer, "apply", "rollup.apply", batch=True)

    # repro.core.live
    wrap(live, "commit_seq", "live.version")
    wrap(live.LiveFeed, "snapshot", "live.snapshot", batch=True)
    frame_bytes = [0]
    plain_frame = live._sse_frame

    def sized_frame(event: str, payload: Dict[str, Any]) -> bytes:
        data = plain_frame(event, payload)
        frame_bytes[0] += len(data)
        return data

    recorder.patch(live, "_sse_frame", recorder.span(sized_frame, "live.frame", batch=True))

    # repro.core.dashboard: the /metrics hit/miss counters only exist when
    # the dashboard is given a registry, which its main() never does (see
    # README "src/ defects"); hand it the process registry here
    wrap(dashboard._Handler, "_route", "dashboard.request")
    plain_init = dashboard.Dashboard.__init__

    @functools.wraps(plain_init)
    def init_with_metrics(self, archive, host="127.0.0.1", port=0, metrics=None):
        from repro.obs.metrics import get_registry

        plain_init(self, archive, host=host, port=port,
                   metrics=metrics if metrics is not None else get_registry())

    recorder.patch(dashboard.Dashboard, "__init__", init_with_metrics)

    def stats() -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        if loaders:
            snap = loaders[0].stats
            out.append({
                "kind": "stats", "name": "loader",
                "values": {
                    "flushes": snap.flushes,
                    "retries": snap.retries,
                    "dlq": snap.dlq_events,
                    "rows_inserted": snap.rows_inserted,
                    "rows_updated": snap.rows_updated,
                    "redelivered": snap.redelivered_events,
                    "duplicates_skipped": snap.duplicates_skipped,
                    "batch_wait_s": wait[0],
                    "batch_wait_events": wait[1],
                },
            })
        if consumers:
            out.append({
                "kind": "stats", "name": "consumer",
                "values": {"reconnects": consumers[0].reconnects},
            })
        if frame_bytes[0]:
            out.append({
                "kind": "stats", "name": "live", "values": {"frame_bytes": frame_bytes[0]},
            })
        out.extend({"kind": "depth", "t": t, "depth": d} for t, d in list(depth))
        return out

    recorder.extras.append(stats)
