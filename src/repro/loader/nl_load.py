"""nl_load: the loading front-end (paper §IV-E).

Reads normalized BP events from a file or an AMQP queue and hands them to
the ``stampede_loader`` module, mirroring the paper's invocation::

    nl_load --amqp-host=... -A queue=stampede stampede_loader \
        connString=sqlite:///test.db

One front-end, two sources, each handing events to a sink with
``process`` / ``flush`` / ``position`` / ``resume`` (a
:class:`StampedeLoader` or a sharded loader) and starting where
``sink.resume()`` says — 0 without a checkpoint:

* :func:`load_file` — a path or stream of BP lines, decoded (optionally
  through the ``--lint`` quarantine step); :func:`load_events` is the
  same for an in-memory iterable;
* :func:`load_from_bus` — a broker queue (in-process or ``tcp://``),
  drained or followed until a predicate says stop, through a
  :class:`BusSource` that turns at-least-once deliveries into
  exactly-once rows;

and :func:`main`, the ``nl-load`` command line over both.
"""
from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.archive.store import StampedeArchive
from repro.bus.broker import Broker, ConnectionLostError
from repro.bus.client import EventConsumer
from repro.bus.groups import GroupConsumer
from repro.bus.queues import Message
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ, Resequencer
from repro.lint.config import LintConfig
from repro.lint.report import render_text
from repro.lint.rules import Finding, Severity
from repro.lint.stream import StreamLinter
from repro.loader.checkpoint import CheckpointManager
from repro.loader.dlq import DeadLetterQueue
from repro.loader.spill import SpillBuffer
from repro.loader.stampede_loader import (
    MAX_PENDING_AGE,
    LoaderError,
    StampedeLoader,
)
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import Decode, OnError, PathOrFile, bp_decoder, read_raw
from repro.obs.instrument import bind_broker, bind_faults, bind_loader
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import PipelineClock

__all__ = [
    "BusSource",
    "load_events",
    "load_file",
    "load_from_bus",
    "make_loader",
    "main",
    "positioned",
]


def make_loader(
    conn_string: str = "sqlite:///:memory:",
    archive: Optional[StampedeArchive] = None,
    batch_size: int = 500,
    strict: bool = True,
    validate: bool = False,
    checkpoint_source: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> StampedeLoader:
    """Construct a StampedeLoader over a new or existing archive.

    Every flush commits the archive's rollups with its rows, so whatever
    the loader writes is readable by ``workflow_statistics`` and the
    dashboard as soon as it commits.

    ``checkpoint_source`` names the input (a file path, a queue name) in
    the archive's checkpoint table: every flush then records the source
    position with the rows it made durable, and every driver starts
    where :meth:`~StampedeLoader.resume` says.

    ``metrics`` attaches a self-monitoring registry: the archive's
    transactions are timed, the loader's flush latency is observed into
    a histogram, and every :class:`LoaderStats` counter is exported
    through a scrape-time collector (see :mod:`repro.obs`).
    """
    if archive is None:
        archive = StampedeArchive.open(conn_string)
    if metrics is not None:
        archive.instrument(metrics)
    checkpoint = (
        CheckpointManager(archive, checkpoint_source)
        if checkpoint_source is not None
        else None
    )
    loader = StampedeLoader(
        archive,
        batch_size=batch_size,
        strict=strict,
        validate=validate,
        checkpoint=checkpoint,
        metrics=metrics,
    )
    if metrics is not None:
        bind_loader(metrics, loader)
    return loader


def load_events(
    events: Iterable[NLEvent],
    loader: Optional[StampedeLoader] = None,
    **loader_kwargs,
) -> StampedeLoader:
    """Load an event iterable; returns the loader (archive + stats inside)."""
    if loader is None:
        loader = make_loader(**loader_kwargs)
    loader.process_all(events)
    return loader


def parse_fast(parse_mode: str) -> bool:
    """A ``parse_mode`` ('fast' or 'strict') as the decoders' ``fast`` flag."""
    if parse_mode not in ("fast", "strict"):
        raise ValueError(f"parse_mode must be 'fast' or 'strict', got {parse_mode!r}")
    return parse_mode == "fast"


def positioned(sink, lines: Iterable, decode: Decode) -> Iterator[NLEvent]:
    """The per-event step every file driver shares.

    Decodes ``(line, offset)`` pairs and, just before handing each event
    over, stamps the sink's source position with the offset after its
    line — what a checkpointing sink persists with the batch.
    """
    for line, offset in lines:
        event = decode(line, offset)
        if event is not None:
            sink.position = offset
            yield event


def load_file(
    source: PathOrFile,
    sink=None,
    *,
    on_error: OnError = "raise",
    parse_mode: str = "fast",
    lint: Optional[Decode] = None,
    **loader_kwargs,
):
    """Load a BP log (a path, or a stream such as stdin) into ``sink``.

    ``sink`` is a :class:`StampedeLoader` (built from ``loader_kwargs``
    when omitted) or a :class:`repro.archive.shard.ShardedLoader`; the
    byte offset after each event's line is its source position, which a
    checkpointing sink commits with every flush.  The load starts where
    ``sink.resume()`` says — 0 without a checkpoint; a sharded sink's
    lowest shard floor — so loading a file again continues it.

    ``on_error`` is the :func:`~repro.netlogger.stream.bp_decoder`
    policy for malformed lines, called with the byte offset as position;
    ``parse_mode='strict'`` selects the reference BP scanner.  ``lint``
    replaces that decode step with another ``(line, offset) -> event or
    None`` callable — the quarantining :class:`_LintDecode` of
    ``nl-load --lint``, which the caller closes afterwards.
    """
    decode = lint if lint is not None else bp_decoder(on_error, parse_fast(parse_mode))
    if sink is None:
        sink = make_loader(**loader_kwargs)
    sink.process_all(positioned(sink, read_raw(source, sink.resume()), decode))
    return sink


class _LintDecode:
    """The ``--lint`` decode step: lint every line, quarantine the bad.

    Every line runs through the :class:`StreamLinter` analyzers; one
    that triggers an error-severity finding (malformed BP, schema
    violations, illegal lifecycle transitions, orphan references,
    duplicate delivery, ...) is written verbatim to the ``quarantine``
    file and dropped instead of being silently archived.  After
    :meth:`close`, :attr:`findings` and :attr:`quarantined` hold the
    outcome.
    """

    def __init__(
        self,
        path: str = "<stream>",
        quarantine: Optional[str] = None,
        config: Optional[LintConfig] = None,
    ):
        self._linter = StreamLinter(config=config, path=path)
        self._qfh = open(quarantine, "w", encoding="utf-8") if quarantine else None
        self._lineno = 0
        self.findings: List[Finding] = []
        self.quarantined = 0

    def __call__(self, line: str, position: int) -> Optional[NLEvent]:
        self._lineno += 1
        event, findings = self._linter.feed_line(line, self._lineno)
        if not findings:
            return event  # clean event, or None for a blank line or comment
        self.findings.extend(findings)
        if event is None or any(f.severity >= Severity.ERROR for f in findings):
            self.quarantined += 1
            if self._qfh is not None:
                self._qfh.write(line.rstrip("\n") + "\n")
            return None
        return event

    def close(self) -> None:
        """End of stream: add the unmatched-start findings, close the file."""
        self.findings.extend(self._linter.finish())
        if self._qfh is not None:
            self._qfh.close()


#: what a poison payload raises: dead-lettered, never retried
POISON = (LoaderError, TypeError, ValueError, KeyError)


class BusSource:
    """One consumer's at-least-once deliveries as exactly-once rows (§IV-C).

    The source owns everything between the consumer and the loader: the
    open batch's deliveries, acked together by :meth:`commit` (the
    loader's ``on_flush``); the :class:`~repro.bus.reliable.Resequencer`
    that restores publish order and drops duplicates, and the floors it
    gives the checkpoint (:meth:`floors`); the ``PipelineClock`` hooks;
    :meth:`settle` for deliveries acked outside a commit; and
    :meth:`lost` for reconnects.  One failure rule holds on the live
    path, in the spill drain and on a reconnect: poison goes to the
    dead-letter queue, a transient error past the retry ladder goes to
    the spill, and recovery runs on the probe deadline.  A spill left by
    an earlier process drains before anything new commits.
    """

    def __init__(
        self,
        consumer: Any,
        loader: StampedeLoader,
        clock: Optional[PipelineClock] = None,
        dead_letter: Optional[DeadLetterQueue] = None,
        spill: Optional[SpillBuffer] = None,
        poll_timeout: float = MAX_PENDING_AGE,
        fast: bool = True,
    ):
        self.consumer = consumer
        self.loader = loader
        self.clock = clock
        self.dead_letter = dead_letter
        self.spill = spill
        self.poll_timeout = poll_timeout
        self.fast = fast
        self.transient = loader.archive.db.TRANSIENT_ERRORS
        #: deliveries whose events the open batch holds
        self.batch: List[Message] = []
        self.dry = False  # the consumer held nothing more at the last delivery
        #: deliveries spill: the archive is down, or an old spill drains first
        self.degraded = bool(spill)
        self.probe_at = 0.0  # degraded: monotonic time of the next probe
        self._replayed = 0  # spilled lines the loader already holds
        # start where the checkpoint says: tags at or below it were archived
        # before a crash, and the resequencer resumes from the persisted
        # floors rather than hold every delivery behind committed sequences
        self._skip_to = loader.resume()
        self.reseq = Resequencer()
        self._floors: Dict[str, int] = dict(loader.resumed_reseq)
        for pub, nxt in self._floors.items():
            if nxt > 1:
                self.reseq.seed(pub, nxt)

    # -- the loader's hooks -------------------------------------------------
    def commit(self, _loader: StampedeLoader) -> None:
        """``on_flush``: the batch's rows are durable, so ack its deliveries."""
        if self.clock is not None:
            self.clock.on_committed(self.batch)
        try:
            self.consumer.ack_many(self.batch)
        except ConnectionLostError:
            pass  # every tag is stale; see settle
        self.batch.clear()

    def floors(self) -> Dict[str, int]:
        """``reseq_state``: each publisher's next sequence, the open batch
        folded in — the flush persisting them makes that batch durable."""
        for m in self.batch:
            hdrs = m.headers or {}
            pub, seq = hdrs.get(HEADER_PUBLISHER), hdrs.get(HEADER_SEQ)
            if pub is not None and seq is not None:
                self._floors[str(pub)] = max(self._floors.get(str(pub), 1), int(seq) + 1)
        return dict(self._floors)

    # -- deliveries ---------------------------------------------------------
    def settle(self, msg: Message) -> None:
        """Ack a delivery outside any commit (skipped, duplicate,
        dead-lettered or spilled)."""
        if self.clock is not None:
            self.clock.on_dropped(msg)
        try:
            self.consumer.ack(msg)
        except (ConnectionLostError, ValueError):
            pass  # stale after a disconnect: the redelivery settles instead

    def deliver(self, msg: Message) -> None:
        """One delivery from ``get_message``: account, resequence, consume."""
        stats = self.loader.stats
        depth = self.consumer.depth()
        self.dry = depth == 0
        stats.record_queue_depth(depth)
        if self.clock is not None:
            self.clock.on_delivered(msg)
        if msg.redelivered:
            stats.redelivered_events += 1
        released, duplicates = self.reseq.offer(msg)
        for dup in duplicates:
            stats.duplicates_skipped += 1
            if self.degraded:
                self.batch.append(dup)  # its original may be in the stuck batch
            else:
                self.settle(dup)
        for ready in released:
            self.consume(ready)
        if self.degraded and time.monotonic() >= self.probe_at:
            self.recover()  # on the deadline too, not only when idle

    def consume(self, msg: Message) -> None:
        """Hand one released delivery to the loader under the failure rule."""
        if msg.delivery_tag <= self._skip_to:
            self.settle(msg)
            return
        if self.degraded:
            self._spill(msg)
            return
        loader = self.loader
        self.batch.append(msg)
        processed = loader.stats.events_processed
        loader.position = msg.delivery_tag
        try:
            if self._hand_over(msg.body, msg.routing_key, EventConsumer.as_event, msg, self.fast):
                loader.flush_if_due(self.dry)
            else:
                self.batch.remove(msg)
                self.settle(msg)
        except self.transient:
            if loader.stats.events_processed != processed:
                self._degrade()  # the commit failed; the journal keeps the batch
                return
            # a read-through lookup failed before the journal took the
            # event, so no commit may settle it: spilled ahead of every
            # later event (its seq is released), or raised, unacked
            self.batch.remove(msg)
            self._degrade()
            self._spill(msg)

    def _hand_over(
        self, body: object, routing_key: str, parse: Callable[..., NLEvent], *args: Any
    ) -> bool:
        """Process ``parse(*args)``; a poison payload goes to the
        dead-letter queue (False) or, without one, raises.  Transient
        errors propagate."""
        try:
            self.loader.process(parse(*args))
        except POISON as exc:
            if self.dead_letter is None:
                raise
            self.dead_letter.quarantine(body, f"{type(exc).__name__}: {exc}", routing_key)
            self.loader.stats.dlq_events += 1
            return False
        return True

    # -- outages ------------------------------------------------------------
    def _degrade(self) -> None:  # the archive outlasted the retry ladder
        self.loader.stats.archive_outages += 1
        if self.spill is None:
            raise  # noqa: PLE0704 - re-raise the active transient error
        self.degraded = True
        self.probe_at = time.monotonic() + self.poll_timeout

    def _spill(self, msg: Message) -> None:
        body = msg.body
        assert self.spill is not None  # degraded implies a spill
        self.spill.append(body if isinstance(body, str) else EventConsumer.as_event(msg).to_bp())
        self.loader.stats.spilled_events += 1
        self.settle(msg)  # on disk is durable enough to settle

    def recover(self) -> None:
        """Probe the archive: commit the stuck batch, then replay the spill
        under the failure rule; a transient error waits for the next probe,
        which continues after the last line the loader took."""
        loader, spill = self.loader, self.spill
        assert spill is not None  # degraded implies a spill
        try:
            loader.flush()  # the stuck batch arrived before anything spilled
            for line in spill.lines()[self._replayed:]:
                processed = loader.stats.events_processed
                try:
                    self._hand_over(line, "", NLEvent.from_bp, line)
                except self.transient:
                    if loader.stats.events_processed != processed:
                        self._replayed += 1  # journalled; its commit failed
                    raise
                self._replayed += 1
            loader.flush()
        except self.transient:
            self.probe_at = time.monotonic() + self.poll_timeout
            return
        if self._replayed:
            spill.clear()
            self._replayed = 0
            loader.stats.spill_drains += 1
        self.degraded = False

    def idle(self) -> None:
        """The batch's deadline or an idle tick: commit the partial batch
        (degraded: probe the archive instead)."""
        if self.degraded:
            self.recover()
            return
        try:
            self.loader.flush()
        except self.transient:
            self._degrade()

    def lost(self) -> None:
        """The broker requeued everything unacked: commit the open batch
        (degraded, that waits for the probe), forget the requeued
        deliveries and re-subscribe; redeliveries dedupe as duplicates."""
        if not self.degraded:
            self.idle()
        self.batch.clear()
        self.reseq.reset_held()
        self.consumer.reconnect()
        self.loader.stats.reconnects += 1

    def finish(self) -> None:
        """End of stream: release what is held for a gap that will never
        fill, then make the tail durable."""
        for held in self.reseq.release_pending():
            self.consume(held)
        if self.degraded:
            self.recover()
        self.loader.flush()


def load_from_bus(
    broker: Union[Broker, str],
    pattern: str = "stampede.#",
    queue_name: Optional[str] = None,
    loader: Optional[StampedeLoader] = None,
    until: Optional[Callable[[StampedeLoader], bool]] = None,
    durable: bool = False,
    poll_timeout: float = MAX_PENDING_AGE,
    dead_letter: Union[DeadLetterQueue, bool, None] = None,
    spill: Union[SpillBuffer, str, None] = None,
    parse_mode: str = "fast",
    metrics: Optional[MetricsRegistry] = None,
    group: Optional[str] = None,
    member_id: Optional[str] = None,
    partitions: int = 8,
    on_subscribed: Optional[Callable[[str], None]] = None,
    **loader_kwargs,
) -> StampedeLoader:
    """Consume events from a broker queue into the archive.

    Drains whatever is queued; with ``until``, keeps consuming until
    ``until(loader)`` is true on an idle tick (e.g. "the
    workflow-terminated state has been recorded") — real-time loading
    concurrent with a run.  A :class:`BusSource` turns the deliveries
    into exactly-once rows (docs/loader.md, docs/resilience.md).  Batches
    commit on the sink's live flush rule
    (:meth:`~StampedeLoader.flush_if_due`); ``get`` blocks no longer than
    the open batch can still wait, and at most ``poll_timeout``, the idle
    tick on which ``until`` is consulted and a degraded source probes.

    ``dead_letter`` (a :class:`~repro.loader.dlq.DeadLetterQueue`, or True
    for one over this loader's archive) takes poison payloads; ``spill``
    (a :class:`~repro.loader.spill.SpillBuffer` or a path) parks events
    on disk while the archive is down.  ``broker`` may be a
    ``tcp://host:port`` url; ``group`` joins a consumer group
    (:mod:`repro.bus.groups`), ``member_id`` pins this member's
    partitions across a restart, ``partitions`` sizes a new group.  A
    checkpointing loader is refused on both: its position is a delivery
    tag, which only an in-process private queue keeps.
    ``on_subscribed(queue_name)`` is called once the subscription is
    held, the cue that publishing may start.
    """
    remote = isinstance(broker, str)
    if loader is None:
        loader = make_loader(metrics=metrics, **loader_kwargs)
    elif metrics is not None:
        bind_loader(metrics, loader)
    if loader.checkpoint is not None and (remote or group is not None):
        # group and tcp:// delivery tags are member- and subscription-local:
        # a checkpointed tag from an earlier run means nothing to them
        raise ValueError("a checkpointing loader needs an in-process private-queue consumer")
    if metrics is not None and isinstance(broker, Broker):
        bind_broker(metrics, broker)
    consumer: Union[EventConsumer, GroupConsumer, "RemoteConsumer"]
    if remote:
        from repro.bus.net import RemoteConsumer

        consumer = RemoteConsumer(
            broker,  # type: ignore[arg-type]
            pattern=pattern,
            queue_name=queue_name,
            durable=durable,
            group=group,
            member_id=member_id,
            partitions=partitions,
        )
    elif group is not None:
        consumer = GroupConsumer(
            broker,  # type: ignore[arg-type]
            group,
            pattern=pattern,
            partitions=partitions,
            member_id=member_id,
        )
    else:
        consumer = EventConsumer(
            broker,  # type: ignore[arg-type]
            pattern=pattern,
            queue_name=queue_name,
            durable=durable,
        )
    if on_subscribed is not None:
        on_subscribed(consumer.queue_name)
    if dead_letter is True:
        dead_letter = DeadLetterQueue(
            loader.archive,
            source=consumer.queue_name,
            # republishing quarantined events onto the bus needs a local
            # broker handle; remote loaders keep the archive-table side
            broker=broker if isinstance(broker, Broker) else None,
        )
    source = BusSource(
        consumer,
        loader,
        clock=PipelineClock(metrics) if metrics is not None else None,
        dead_letter=dead_letter or None,
        spill=spill if spill is None or isinstance(spill, SpillBuffer) else SpillBuffer(spill),
        poll_timeout=poll_timeout,
        fast=parse_fast(parse_mode),
    )
    previous = loader.on_flush, loader.reseq_state
    loader.on_flush, loader.reseq_state = source.commit, source.floors
    started = time.perf_counter()
    try:
        while True:
            # block no longer than the open batch can still wait (degraded,
            # the stuck batch is past waiting: deliveries check the probe
            # deadline instead)
            due = None if source.degraded else loader.commit_wait()
            wait = poll_timeout if due is None else min(poll_timeout, due)
            try:
                msg = consumer.get_message(timeout=wait, auto_ack=False)
            except ConnectionLostError:
                source.lost()
                continue
            if msg is not None:
                source.deliver(msg)
                continue
            source.idle()
            # only after a full poll_timeout without a message consult the
            # stop predicate (or stop, the backlog drained)
            if wait >= poll_timeout and (until is None or until(loader)):
                break
        source.finish()
    finally:
        loader.stats.wall_seconds += time.perf_counter() - started
        loader.on_flush, loader.reseq_state = previous
        consumer.cancel()  # requeues anything not acked (crash semantics)
    return loader


def main(argv: Optional[list] = None) -> int:
    """Command-line nl_load: a BP file, stdin, or a bus url into an archive.

    Examples::

        nl-load workflow.bp stampede_loader connString=sqlite:///run.db
        nl-load --bus tcp://host:port stampede_loader connString=sqlite:///run.db
    """
    parser = argparse.ArgumentParser(
        prog="nl-load", description="Load NetLogger BP logs into a Stampede archive."
    )
    parser.add_argument(
        "input",
        nargs="?",
        default=None,
        help="BP log file to load ('-' for stdin); omit with --bus",
    )
    parser.add_argument(
        "module",
        nargs="?",
        default=None,
        help="loader module (only 'stampede_loader' is supported)",
    )
    parser.add_argument(
        "params",
        nargs="*",
        help="module parameters, e.g. connString=sqlite:///out.db",
    )
    parser.add_argument("-b", "--batch-size", type=int, default=500)
    parser.add_argument(
        "--parse-mode",
        choices=("fast", "strict"),
        default="fast",
        help="BP parser: 'fast' C-speed tokenizers with automatic "
        "fallback (default), or 'strict' reference scanner",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="nl-load.pstats",
        metavar="PATH",
        help="profile the load, dump pstats to PATH "
        "(default nl-load.pstats) and print the top 20 entries",
    )
    parser.add_argument(
        "--tolerant",
        action="store_true",
        help="synthesize placeholders for out-of-order events instead of failing",
    )
    parser.add_argument(
        "--validate", action="store_true", help="validate events against the schema"
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the stampede-lint stream analyzers and quarantine events "
        "with error-severity findings instead of archiving them",
    )
    parser.add_argument(
        "--quarantine",
        metavar="PATH",
        help="with --lint: write quarantined BP lines to this file",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="record crash-safe progress checkpoints in the archive "
        "(keyed by the input path); a checkpointed load continues after "
        "its last committed offset",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="fault-injection plan (JSON file, see repro.faults.FaultPlan): "
        "archive faults apply to this load; used to rehearse outage recovery",
    )
    parser.add_argument(
        "--shard-dir",
        metavar="DIR",
        help="load into a sharded archive in DIR (shard-NNN.db files + "
        "shards.json manifest) instead of a single connString database; "
        "events route by root workflow id — crc32, the bus partitioner",
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="with --shard-dir: shard count when creating a new set "
        "(opening an existing set with a different N fails loudly)",
    )
    parser.add_argument(
        "--tier-finished",
        action="store_true",
        help="with --shard-dir: after the load, move finished root "
        "workflows from the hot shards into the long-term tier, "
        "DIR/longterm/longterm.db: one more sqlite archive",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "during (and after, see --metrics-linger) the load; 0 picks an "
        "ephemeral port — the resolved URL is printed to stderr",
    )
    parser.add_argument(
        "--metrics-linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --metrics-port: keep serving for this long after the "
        "load finishes so scrapers can read the final state (default 0)",
    )
    parser.add_argument(
        "--self-log",
        metavar="PATH",
        help="after the load, write the metrics registry as "
        "stampede.obs.* BP events to PATH (loadable by nl-load itself)",
    )
    parser.add_argument(
        "--bus",
        metavar="URL",
        help="consume from a running stampede-bus server (tcp://host:port) "
        "instead of a file; see also --group/--idle-exit",
    )
    parser.add_argument(
        "--pattern",
        default="stampede.#",
        help="with --bus: topic pattern to subscribe (default: stampede.#)",
    )
    parser.add_argument(
        "--queue",
        metavar="NAME",
        help="with --bus: bind a named durable queue instead of an "
        "anonymous one (ignored with --group)",
    )
    parser.add_argument(
        "--group",
        metavar="NAME",
        help="with --bus: join this consumer group — concurrent nl-load "
        "processes sharing the name split the stream by root workflow "
        "id, each committing its partitions exactly once",
    )
    parser.add_argument(
        "--member-id",
        metavar="ID",
        help="with --group: fix this loader's member identity so a "
        "restart resumes the same partitions",
    )
    parser.add_argument(
        "--partitions",
        type=int,
        default=8,
        help="with --group: partition count if this join creates the "
        "group (default: 8)",
    )
    parser.add_argument(
        "--idle-exit",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="with --bus: exit after this long with no new events "
        "(default 10; 0 = drain what is queued and exit immediately)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    # Positional normalization: with --bus the file argument is omitted,
    # so what argparse parsed into the `input` slot may really be the
    # module name.  Sort the positionals by shape instead — module
    # parameters always carry '=' — then validate what remains.
    positionals = [p for p in (args.input, args.module, *args.params) if p is not None]
    param_args = [p for p in positionals if "=" in p]
    names = [p for p in positionals if "=" not in p]
    if args.bus is not None:
        args.input = None
        if args.checkpoint:
            parser.error(
                "--checkpoint applies to file loads; bus consumers "
                "get crash-safety from redelivery + dedupe instead"
            )
        if args.lint:
            parser.error(
                "--lint decodes the BP lines of a file load; poison bus "
                "payloads go to the dead-letter queue instead"
            )
    else:
        if args.group or args.member_id:
            parser.error("--group/--member-id require --bus")
        if not names:
            parser.error("need an input file or --bus URL")
        args.input = names.pop(0)
    module = names.pop(0) if names else "stampede_loader"
    if names:
        parser.error(f"unexpected arguments: {names!r}")
    if module != "stampede_loader":
        parser.error(f"unknown loader module {module!r}")
    if args.quarantine and not args.lint:
        parser.error("--quarantine requires --lint")
    if args.checkpoint and args.input == "-":
        parser.error("--checkpoint needs a seekable file, not stdin")
    if args.checkpoint and args.lint:
        parser.error(
            "--checkpoint cannot be combined with --lint: the "
            "linter's stream state is not checkpointed"
        )
    params = dict(p.split("=", 1) for p in param_args)
    conn_string = params.get("connString", "sqlite:///:memory:")
    if args.shards is not None and args.shard_dir is None:
        parser.error("--shards requires --shard-dir")
    if args.tier_finished and args.shard_dir is None:
        parser.error("--tier-finished requires --shard-dir")
    if args.shard_dir is not None:
        if args.bus:
            parser.error(
                "--shard-dir applies to file loads; bus consumers shard "
                "via --group partitions (same crc32 router) instead"
            )
        if "connString" in params:
            parser.error(
                "connString conflicts with --shard-dir (shards own their "
                "database files)"
            )

    # Self-monitoring: a fresh registry per invocation (the process
    # default stays untouched), served over HTTP and/or dumped as BP.
    observed = args.metrics_port is not None or args.self_log
    registry = MetricsRegistry() if observed else None
    server = None

    # -- sink ---------------------------------------------------------------
    # In lint mode the analyzers are the strictness layer: events that would
    # crash a strict loader are quarantined before it sees them, and the
    # loader runs tolerantly so a quarantined event's survivors (e.g. a
    # main.end whose submit.start was quarantined) cannot take it down.
    sink: Any  # a StampedeLoader or a ShardedLoader: same sink contract
    sink_options: Dict[str, Any] = dict(
        batch_size=args.batch_size,
        strict=not (args.tolerant or args.lint),
        validate=args.validate,
        checkpoint_source=args.input if args.checkpoint else None,
    )
    shard_set = plan = None
    if args.shard_dir is not None:
        # import lazily: repro.archive.shard imports from this package
        from repro.archive.shard import ShardedLoader, ShardSet
        from repro.obs.instrument import bind_shards

        shard_set = (
            ShardSet.create(args.shard_dir, args.shards)
            if args.shards is not None
            else ShardSet.open(args.shard_dir)
        )
        sink = ShardedLoader(shard_set, **sink_options)
        loaders = sink.loaders
        if registry is not None:
            bind_shards(registry, sink)
    else:
        sink = make_loader(conn_string, metrics=registry, **sink_options)
        loaders = [sink]
    if args.faults:
        from repro.faults import FaultPlan

        # one plan, one injector: its attempt count runs across every
        # archive the load writes, in the order the flushes commit
        plan = FaultPlan.from_file(args.faults)
        for loader in loaders:
            loader.archive.db = plan.wrap_database(loader.archive.db)
        if registry is not None:
            bind_faults(registry, plan.stats)
    if registry is not None and args.metrics_port is not None:
        from repro.obs.export import MetricsServer

        server = MetricsServer(registry, port=args.metrics_port).start()
        print(f"metrics: {server.url}", file=sys.stderr, flush=True)

    # -- source -------------------------------------------------------------
    lint: Optional[_LintDecode] = None
    if args.bus:
        until: Optional[Callable[[StampedeLoader], bool]] = None
        if args.idle_exit > 0:
            progress = [-1, 0.0]  # events processed, and when that last changed

            def idle(ldr: StampedeLoader) -> bool:
                # consulted only on idle ticks: stop once nothing new has
                # arrived for idle_exit seconds (a live follower's stop
                # condition; the publisher side decides when a run ends)
                now = time.monotonic()
                if ldr.stats.events_processed != progress[0]:
                    progress[:] = ldr.stats.events_processed, now
                return now - progress[1] >= args.idle_exit

            until = idle

        def run() -> None:
            load_from_bus(
                args.bus,
                pattern=args.pattern,
                queue_name=args.queue,
                durable=bool(args.queue),
                group=args.group,
                member_id=args.member_id,
                partitions=args.partitions,
                loader=sink,
                until=until,
                dead_letter=True,
                parse_mode=args.parse_mode,
                metrics=registry,
                on_subscribed=lambda queue: print(
                    f"subscribed: {queue}", file=sys.stderr, flush=True
                ),
            )

    else:
        if args.lint:
            # BP permits engine-specific extras, so unknown attrs stay
            # quiet; hard schema errors still quarantine.
            lint = _LintDecode(
                "<stdin>" if args.input == "-" else args.input,
                quarantine=args.quarantine,
                config=LintConfig(allow_unknown_attrs=True),
            )

        def run() -> None:
            load_file(
                sys.stdin if args.input == "-" else args.input,
                sink,
                parse_mode=args.parse_mode,
                lint=lint,
            )

    try:
        if args.profile:
            _profiled(run, args.profile)
        else:
            run()
    finally:
        if lint is not None:
            lint.close()

    # -- report -------------------------------------------------------------
    if shard_set is not None:
        sink.close()
        if args.tier_finished:
            from repro.archive.tier import tier_finished

            report = tier_finished(shard_set)
            print(
                f"tiered {report.tiered_roots} finished root workflow(s) "
                f"({report.rows_moved} rows) into the long-term store; "
                f"{report.skipped_roots} still running",
                file=sys.stderr,
            )
    if lint is not None:
        if lint.findings:
            print(render_text(lint.findings), file=sys.stderr)
        if lint.quarantined:
            where = f" -> {args.quarantine}" if args.quarantine else ""
            print(f"quarantined {lint.quarantined} event(s){where}", file=sys.stderr)
    if args.verbose:
        if shard_set is not None:
            _print_shard_stats(sink.stats())
        else:
            _print_stats(sink)
        if plan is not None:
            print(f"faults injected  : {plan.stats.total_injected}", file=sys.stderr)
    _finish_obs(registry, server, args)
    if shard_set is not None:
        shard_set.close()
    return 1 if lint is not None and lint.quarantined else 0


def _finish_obs(registry, server, args) -> None:
    """Publish the final self-monitoring state, then linger and shut down.

    The ``stampede_obs_load_complete`` gauge flips to 1 only here, so a
    scraper polling ``/metrics`` can tell "mid-load" from "final"
    without racing the load itself.
    """
    if registry is None:
        return
    registry.gauge(
        "stampede_obs_load_complete",
        "1 once the load finished and the final metric state is visible.",
    ).set(1)
    if args.self_log:
        from repro.obs.export import BPSelfLogger

        count = BPSelfLogger(registry).write(args.self_log)
        print(f"self-log: {count} events -> {args.self_log}", file=sys.stderr)
    if server is not None:
        if args.metrics_linger > 0:
            server.wait(args.metrics_linger)
        server.stop()


def _profiled(fn, path: str) -> None:
    """Run ``fn`` under cProfile; dump pstats to ``path`` and print the
    top 20 cumulative entries to stderr."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(20)
        print(f"profile written to {path}", file=sys.stderr)


def _print_shard_stats(snap: Dict[str, object]) -> None:
    print(f"shards           : {snap['shards']}")
    print(f"events processed : {snap['events_processed']}")
    print(f"rows inserted    : {snap['rows_inserted']}")
    print(f"flushes          : {snap['flushes']}")
    print(f"retries          : {snap['retries']}")
    for shard in snap["per_shard"]:  # type: ignore[attr-defined]
        print(
            f"  shard {shard['shard']} : routed={shard['routed']} "
            f"rows={shard['rows_inserted']} flushes={shard['flushes']}"
        )
    wall = float(snap["wall_seconds"])  # type: ignore[arg-type]
    events = int(snap["events_processed"])  # type: ignore[arg-type]
    print(f"wall seconds     : {wall:.3f}")
    print(f"events/second    : {(events / wall if wall else 0.0):,.0f}")


def _print_stats(loader: StampedeLoader) -> None:
    # One atomic snapshot: field reads spread over several statements
    # could mix two batches' state while a metrics server is still up.
    snap = loader.stats.snapshot()
    pct = snap["latency_percentiles"]
    print(f"events processed : {snap['events_processed']}")
    print(f"rows inserted    : {snap['rows_inserted']}")
    print(f"rows updated     : {snap['rows_updated']}")
    print(f"flushes          : {snap['flushes']}")
    print(
        "flush latency    : "
        f"p50={pct['p50'] * 1000:.2f}ms "
        f"p95={pct['p95'] * 1000:.2f}ms "
        f"p99={pct['p99'] * 1000:.2f}ms"
    )
    wall = snap["wall_seconds"]
    print(
        "commit cost      : "
        f"{loader.commit_cost * 1000:.2f}ms "
        f"(dry deadline {loader.commit_deadline() * 1000:.1f}ms, "
        f"{(snap['flushes'] / wall if wall else 0.0):.1f} commits/s)"
    )
    print(f"retries          : {snap['retries']}")
    print(
        "checkpoints      : "
        f"{snap['checkpoints_written']} (resumes: {snap['resumes']})"
    )
    print(f"cached workflows : {len(loader._workflows)}")
    if snap["queue_depth_samples"]:
        print(
            "queue depth      : "
            f"max={snap['queue_depth_max']} avg={snap['queue_depth_avg']:.1f}"
        )
    if snap["redelivered_events"] or snap["duplicates_skipped"] or snap["reconnects"]:
        print(
            "redelivery       : "
            f"redelivered={snap['redelivered_events']} "
            f"duplicates_skipped={snap['duplicates_skipped']} "
            f"reconnects={snap['reconnects']}"
        )
    if snap["dlq_events"]:
        print(f"dead-lettered    : {snap['dlq_events']}")
    if snap["archive_outages"]:
        print(
            "archive outages  : "
            f"{snap['archive_outages']} "
            f"(spilled={snap['spilled_events']} drains={snap['spill_drains']})"
        )
    print(f"wall seconds     : {snap['wall_seconds']:.3f}")
    print(f"events/second    : {snap['events_per_second']:,.0f}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
