"""Loader resilience: dead-lettering, spill-to-disk degradation, and
redelivery accounting on the bus-consumption path.
"""
import os
import sqlite3
import threading
import time
from contextlib import contextmanager

import pytest

from repro.archive import ALL_TABLES
from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.store import StampedeArchive
from repro.bus.broker import DEAD_LETTER_QUEUE, Broker
from repro.bus.client import EventConsumer, EventPublisher
from repro.core.rollup import verify_rollups
from repro.faults import FaultPlan
from repro.loader import (
    DeadLetterQueue,
    SpillBuffer,
    SpillOverflowError,
    load_events,
    load_from_bus,
    make_loader,
)
from repro.loader.checkpoint import CheckpointManager
from repro.loader.dlq import DLQ_TABLE
from repro.loader.stampede_loader import StampedeLoader
from repro.model.entities import WorkflowRow
from repro.util.retry import RetryPolicy

from tests.archive.test_shard import workload_events
from tests.bus.test_net import wait_until, wire_events
from tests.helpers import diamond_events, rollup_dump
from tests.loader.test_checkpoint_resume import dump_archive

QUEUE = "stampede"


def bound_broker():
    """A broker with the loader queue declared and bound up front, so
    publishes made before the loader attaches are never unroutable."""
    broker = Broker()
    broker.declare_queue(QUEUE, durable=True)
    broker.bind_queue(QUEUE, "stampede.#")
    return broker


def publish_diamond(broker, poison_at=()):
    """Publish the diamond stream, injecting poison bodies at the given
    event indexes."""
    publisher = EventPublisher(broker)
    for i, event in enumerate(diamond_events()):
        if i in poison_at:
            broker.publish("stampede.inv.end", "ts=garbage not a BP line")
        publisher.publish(event)
    return publisher


def baseline_dump():
    loader = load_events(diamond_events())
    return dump_archive(loader.archive)


class TestSpillBuffer:
    def test_append_lines_clear_roundtrip(self, tmp_path):
        buf = SpillBuffer(tmp_path / "spill.bp")
        assert not buf and len(buf) == 0
        buf.append("line one")
        buf.append("line two\n")
        assert list(buf) == ["line one", "line two"]
        assert len(buf) == 2 and buf
        buf.clear()
        assert len(buf) == 0
        assert not os.path.exists(buf.path)
        assert buf.appended == 2  # lifetime counter survives clear

    def test_existing_file_is_counted_on_open(self, tmp_path):
        path = tmp_path / "spill.bp"
        path.write_text("a\nb\n\n")
        buf = SpillBuffer(path)
        assert len(buf) == 2  # blank lines don't count

    def test_overflow_raises(self, tmp_path):
        buf = SpillBuffer(tmp_path / "spill.bp", max_events=2)
        buf.append("a")
        buf.append("b")
        with pytest.raises(SpillOverflowError):
            buf.append("c")


class TestDeadLetterQueue:
    def test_quarantine_records_and_republishes(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        broker = Broker()
        dlq = DeadLetterQueue(archive, source="test-q", broker=broker)
        dlq_id = dlq.quarantine("bad body", "BPParseError: no ts", "stampede.x")
        assert dlq_id == 1
        assert dlq.count() == 1
        (entry,) = dlq.entries()
        assert entry.body == "bad body"
        assert entry.error == "BPParseError: no ts"
        assert entry.routing_key == "stampede.x"
        assert entry.source == "test-q"
        dead = broker.queue(DEAD_LETTER_QUEUE).get()
        assert dead.body == "bad body"
        assert dead.header("x-death") == "poison"
        assert "no ts" in dead.header("x-error")

    def test_ids_continue_across_instances(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        DeadLetterQueue(archive).quarantine("a", "e1")
        dlq = DeadLetterQueue(archive)  # a restarted loader re-attaches
        assert dlq.quarantine("b", "e2") == 2
        assert [e.body for e in dlq.entries()] == ["a", "b"]

    def test_broker_is_optional(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        dlq = DeadLetterQueue(archive)
        dlq.quarantine("x", "err")
        assert dlq.count() == 1


class TestPoisonEvents:
    def test_poison_event_is_quarantined_not_fatal(self):
        broker = bound_broker()
        publish_diamond(broker, poison_at=(5, 40))
        loader = load_from_bus(
            broker, queue_name=QUEUE, durable=True, dead_letter=True
        )
        assert loader.stats.dlq_events == 2
        # the batch survived: the archive matches a clean file load
        assert dump_archive(loader.archive) == baseline_dump()
        # quarantined rows are recoverable from the ancillary table
        assert loader.archive.db.count(DLQ_TABLE) == 2
        # and the poison stream is observable on the broker DLQ
        dead = broker.queue(DEAD_LETTER_QUEUE).drain()
        assert len(dead) == 2
        assert all(m.header("x-death") == "poison" for m in dead)
        assert all("BPParseError" in m.header("x-error") for m in dead)

    def test_without_dead_letter_poison_raises(self):
        broker = bound_broker()
        publish_diamond(broker, poison_at=(5,))
        with pytest.raises(ValueError):
            load_from_bus(broker, queue_name=QUEUE, durable=True)

    def test_prebuilt_dead_letter_queue_is_used(self):
        broker = bound_broker()
        loader = make_loader()
        dlq = DeadLetterQueue(loader.archive, source="custom")
        publish_diamond(broker, poison_at=(3,))
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader,
            dead_letter=dlq,
        )
        assert dlq.quarantined == 1
        assert dlq.entries()[0].source == "custom"


class TestRedeliveryStats:
    def test_crash_redelivery_is_visible_in_stats(self):
        # a consumer "crashes" holding unacked messages; the resumed
        # loader must see them redelivered, count them, and still build
        # the exact archive
        broker = bound_broker()
        crashed = broker.subscribe(
            "stampede.#", queue_name=QUEUE, durable=True, auto_delete=False
        )
        publish_diamond(broker)
        taken = [crashed.get(timeout=0.0, auto_ack=False) for _ in range(7)]
        assert all(m is not None for m in taken)
        crashed.disconnect()  # requeues all 7, flagged redelivered

        loader = load_from_bus(broker, queue_name=QUEUE, durable=True)
        assert loader.stats.redelivered_events == 7
        assert loader.stats.duplicates_skipped == 0  # requeue, not copies
        assert dump_archive(loader.archive) == baseline_dump()


class TestDegradedMode:
    def chaos_loader(self, fail_transactions, batch_size=25):
        plan = FaultPlan.from_dict(
            {"archive": {"fail_transactions": list(fail_transactions)}}
        )
        archive = StampedeArchive.open("sqlite:///:memory:")
        archive.db = plan.wrap_database(archive.db)
        loader = StampedeLoader(
            archive,
            batch_size=batch_size,
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0),
        )
        return loader, plan

    def test_outage_spills_then_drains_on_recovery(self, tmp_path):
        # attempts 1-3 fail: the first flush exhausts its whole retry
        # ladder, so the loop degrades to spilling; attempt 4 (recovery
        # probe) succeeds and drains the spill back
        loader, plan = self.chaos_loader([1, 2, 3])
        spill_path = tmp_path / "spill.bp"
        broker = bound_broker()
        publish_diamond(broker)
        result = load_from_bus(
            broker,
            queue_name=QUEUE,
            durable=True,
            loader=loader,
            spill=str(spill_path),
        )
        assert plan.stats.archive_faults == 3
        assert result.stats.archive_outages == 1
        assert result.stats.spilled_events > 0
        assert result.stats.spill_drains == 1
        assert not os.path.exists(spill_path)  # cleared after the drain
        assert dump_archive(result.archive) == baseline_dump()

    def test_recovery_is_not_starved_by_steady_traffic(self, tmp_path):
        """A transient outage under a publisher that never pauses for
        ``poll_timeout``: recovery runs on the commit deadline, not only
        on an idle tick, so the spill drains while traffic continues."""
        # disarmed: while armed, every write transaction fails
        plan = FaultPlan.from_dict(
            {"archive": {"fail_transactions": list(range(1, 5000))}, "armed": False}
        )
        archive = StampedeArchive.open("sqlite:///:memory:")
        archive.db = plan.wrap_database(archive.db)
        loader = StampedeLoader(
            archive,
            batch_size=25,  # full batches fail too, not only due ones
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.0, max_delay=0.0),
        )
        events = wire_events("wf-aaaa", "wf-bbbb", "wf-cccc", "wf-dddd")
        broker = bound_broker()
        done = threading.Event()
        thread = threading.Thread(
            target=load_from_bus,
            args=(broker,),
            kwargs=dict(
                queue_name=QUEUE, durable=True, loader=loader,
                spill=str(tmp_path / "spill.bp"), poll_timeout=0.05,
                until=lambda _ld: done.is_set(),
            ),
        )
        thread.start()
        drained_at = None
        try:
            publisher = EventPublisher(broker)
            for i, event in enumerate(events):
                if i == 60:
                    plan.arm()  # the archive goes away ...
                elif i == 120:
                    plan.disarm()  # ... and is back 0.3 s later
                publisher.publish(event)
                time.sleep(0.005)  # 200 ev/s: no idle tick until the end
                if drained_at is None and loader.stats.spill_drains:
                    drained_at = i
            queue = broker.queue(QUEUE)
            wait_until(lambda: queue.stats.acked == len(events))
        finally:
            done.set()
            thread.join(timeout=15)
        assert not thread.is_alive()
        assert loader.stats.archive_outages >= 1
        assert loader.stats.spilled_events > 0
        assert drained_at is not None and 120 <= drained_at < len(events) - 20
        assert loader.stats.spill_drains == 1
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []

    def test_poison_during_an_outage_is_dead_lettered_by_the_drain(self, tmp_path):
        """A poison payload that arrives while the archive is down is
        spilled unparsed; the drain puts it through the same failure rule
        as a live delivery, so it lands in the DLQ, not in an exception."""
        loader, _ = self.chaos_loader([1, 2, 3])
        spill_path = tmp_path / "spill.bp"
        broker = bound_broker()
        publish_diamond(broker, poison_at=(30,))
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader,
            spill=str(spill_path), dead_letter=True,
        )
        assert loader.stats.archive_outages == 1
        assert loader.stats.dlq_events == 1
        assert dump_archive(loader.archive) == baseline_dump()
        assert not os.path.exists(spill_path)

    def test_reconnect_while_degraded_stays_degraded(self, tmp_path, monkeypatch):
        """A connection drop during an outage must not push the stuck batch
        through the retry ladder again: the source stays degraded and
        recovers on the probe deadline."""
        loader, _ = self.chaos_loader(range(1, 8))
        broker = bound_broker()
        publish_diamond(broker)
        get_message = EventConsumer.get_message
        dropped = []

        def drop_once(consumer, *args, **kwargs):
            if loader.stats.archive_outages and not dropped:
                dropped.append(True)
                consumer._consumer.disconnect()
            return get_message(consumer, *args, **kwargs)

        monkeypatch.setattr(EventConsumer, "get_message", drop_once)
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader,
            spill=str(tmp_path / "spill.bp"), poll_timeout=0.05,
        )
        assert loader.stats.reconnects == 1
        assert dump_archive(loader.archive) == baseline_dump()
        assert len(broker.queue(QUEUE)) == 0  # every redelivery settled

    def test_redeliveries_of_the_stuck_batch_wait_for_its_commit(
        self, tmp_path, monkeypatch
    ):
        """The archive never comes back: every delivery must still be in
        the spill or back on the queue — the redelivered copies of the
        stuck batch are not acked before that batch commits."""
        loader, _ = self.chaos_loader(range(1, 10_000))
        broker = bound_broker()
        publish_diamond(broker)
        get_message = EventConsumer.get_message

        def drop_once(consumer, *args, **kwargs):
            if loader.stats.archive_outages and not loader.stats.reconnects:
                consumer._consumer.disconnect()
            return get_message(consumer, *args, **kwargs)

        monkeypatch.setattr(EventConsumer, "get_message", drop_once)
        spill_path = tmp_path / "spill.bp"
        with pytest.raises(sqlite3.OperationalError):
            load_from_bus(
                broker, queue_name=QUEUE, durable=True, loader=loader,
                spill=str(spill_path), poll_timeout=0.05,
            )
        assert loader.stats.reconnects == 1
        assert loader.stats.duplicates_skipped > 0
        held = len(broker.queue(QUEUE)) + len(SpillBuffer(spill_path))
        assert held == len(diamond_events())

    def test_a_drain_cut_short_continues_where_it_stopped(self, tmp_path):
        """The drain's first commit fails past the retry ladder: the next
        probe commits what the loader already took and replays only the
        rest of the spill, so no spilled event is handed over twice."""
        # 1-3: the first flush degrades; 4: the stuck batch commits on the
        # first probe; 5-7: the drain's first full batch fails
        loader, plan = self.chaos_loader([1, 2, 3, 5, 6, 7], batch_size=5)
        spill_path = tmp_path / "spill.bp"
        broker = bound_broker()
        publish_diamond(broker)
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader,
            spill=str(spill_path), poll_timeout=0.05,
        )
        assert plan.stats.archive_faults == 6
        assert loader.stats.archive_outages == 1
        assert loader.stats.spill_drains == 1
        assert dump_archive(loader.archive) == baseline_dump()
        assert not os.path.exists(spill_path)

    def test_a_spill_left_by_an_earlier_process_drains_first(self, tmp_path):
        """A loader that died degraded leaves acked events only in its
        spill file; the next loader on that file archives them before
        anything it consumes."""
        events = diamond_events()
        spill = SpillBuffer(tmp_path / "spill.bp")
        for event in events[:30]:
            spill.append(event.to_bp())
        broker = bound_broker()
        publisher = EventPublisher(broker)
        for event in events[30:]:
            publisher.publish(event)
        loader = load_from_bus(
            broker, queue_name=QUEUE, durable=True, spill=spill, dead_letter=True
        )
        assert loader.stats.spill_drains == 1
        assert loader.stats.dlq_events == 0
        assert dump_archive(loader.archive) == baseline_dump()
        assert not spill

    def test_outage_without_spill_is_fatal(self):
        loader, _ = self.chaos_loader([1, 2, 3])
        broker = bound_broker()
        publish_diamond(broker)
        with pytest.raises(sqlite3.OperationalError):
            load_from_bus(broker, queue_name=QUEUE, durable=True, loader=loader)

    def test_spill_overflow_propagates(self, tmp_path):
        loader, _ = self.chaos_loader(range(1, 50))
        spill = SpillBuffer(tmp_path / "tiny.bp", max_events=3)
        broker = bound_broker()
        publish_diamond(broker)
        with pytest.raises(SpillOverflowError):
            load_from_bus(
                broker, queue_name=QUEUE, durable=True, loader=loader,
                spill=spill,
            )


class FailAtCommit:
    """Database proxy whose Nth flush fails *after* its statements ran —
    a commit-time "database is locked" — so the transaction underneath
    has rows to roll back (``ChaosDatabase`` only fails at entry)."""

    def __init__(self, inner, fail_attempt):
        self._inner = inner
        self._fail_attempt = fail_attempt
        self.attempts = 0
        self.uncommitted_rows = 0  # rows the failed attempt had written

    def _rows(self):
        return sum(self._inner.count(table) for table in ALL_TABLES)

    @contextmanager
    def transaction(self):
        with self._inner.transaction():
            # nested scopes (archive.insert_many) join the flush's own
            outermost = self._inner._txn_depth == 1
            before = self._rows() if outermost else 0
            yield self
            if outermost:
                self.attempts += 1
                if self.attempts == self._fail_attempt:
                    self.uncommitted_rows = self._rows() - before
                    raise sqlite3.OperationalError(
                        "database is locked [injected at commit]"
                    )

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMidTransactionFailure:
    """A flush that dies after its inserts, updates, rollup deltas and
    checkpoint row were written must roll all of them back and replay
    the batch exactly once."""

    @staticmethod
    def checkpointed_load(events, fail_attempt=None, batch_size=50):
        archive = StampedeArchive.open("sqlite:///:memory:")
        if fail_attempt is not None:
            archive.db = FailAtCommit(archive.db, fail_attempt)
        loader = StampedeLoader(
            archive,
            batch_size=batch_size,
            checkpoint=CheckpointManager(archive, "stream"),
            retry_policy=RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0),
        )
        for position, event in enumerate(events, start=1):
            loader.position = position
            loader.process(event)
        loader.flush()
        return loader

    def test_rolled_back_flush_replays_exactly_once(self):
        events = workload_events()
        clean = self.checkpointed_load(events)
        # the third flush is mid-stream: it carries inserts, coalesced
        # updates of rows from earlier batches, and rollup increments
        failed = self.checkpointed_load(events, fail_attempt=3)

        assert failed.archive.db.uncommitted_rows > 0  # it really ran
        assert failed.stats.retries == 1
        assert failed.stats.flushes == clean.stats.flushes
        assert failed.stats.rows_inserted == clean.stats.rows_inserted
        assert failed.stats.rows_updated == clean.stats.rows_updated
        assert diff_canonical(
            canonical_dump(clean.archive), canonical_dump(failed.archive)
        ) == []
        assert verify_rollups(failed.archive) == []
        want = clean.checkpoint.load()
        got = failed.checkpoint.load()
        assert got.position == want.position == len(events)
        assert got.state == want.state

    def test_rolled_back_folded_flush_replays_exactly_once(self):
        """One batch: every update folds into the insert of its row, and
        the only flush fails after writing them; the retry folds again."""
        events = workload_events()
        clean = self.checkpointed_load(events, batch_size=10**6)
        failed = self.checkpointed_load(events, fail_attempt=1, batch_size=10**6)

        assert failed.archive.db.uncommitted_rows > 0
        assert failed.stats.retries == 1
        assert failed.stats.flushes == clean.stats.flushes == 1
        assert diff_canonical(
            canonical_dump(clean.archive), canonical_dump(failed.archive)
        ) == []
        assert rollup_dump(failed.archive) == rollup_dump(clean.archive)
        assert verify_rollups(failed.archive) == []


class FailWorkflowRead:
    """Database proxy whose Nth read of ``table`` outside a transaction
    raises "database is locked" once — a loader's read-through lookup
    (or the warm behind it) meeting a busy archive."""

    def __init__(self, inner, fail_read, table="workflow"):
        self._inner = inner
        self._fail_read = fail_read
        self._table = table
        self.reads = 0

    def select(self, query):
        if query.table.name == self._table and self._inner._txn_depth == 0:
            self.reads += 1
            if self.reads == self._fail_read:
                raise sqlite3.OperationalError(
                    "database is locked [injected at read]"
                )
        return self._inner.select(query)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestReadThroughFailure:
    """A lookup that fails inside ``process()`` raises before the event
    reaches the journal, so the next commit must not settle its message."""

    @staticmethod
    def failing_loader(fail_read, table="workflow"):
        archive = StampedeArchive.open("sqlite:///:memory:")
        archive.db = FailWorkflowRead(archive.db, fail_read, table)
        return StampedeLoader(archive, batch_size=25)

    @staticmethod
    def publish(broker, events):
        publisher = EventPublisher(broker)
        for event in events:
            publisher.publish(event)

    def test_unjournalled_event_is_spilled_not_acked(self, tmp_path):
        events = workload_events()
        # the third workflow's plan event misses the cache mid-stream
        loader = self.failing_loader(fail_read=3)
        broker = bound_broker()
        self.publish(broker, events)
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader,
            spill=str(tmp_path / "spill.bp"), dead_letter=True,
        )
        assert loader.archive.db.reads >= 3  # the read really failed
        assert loader.stats.archive_outages == 1
        assert loader.stats.spill_drains == 1
        assert loader.archive.db.count(DLQ_TABLE) == 0
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []
        assert verify_rollups(loader.archive) == []
        assert broker.queue(QUEUE).stats.acked == len(events)

    def test_without_spill_the_error_propagates_unacked(self):
        events = workload_events()
        loader = self.failing_loader(fail_read=3)
        broker = bound_broker()
        self.publish(broker, events)
        with pytest.raises(sqlite3.OperationalError, match="at read"):
            load_from_bus(broker, queue_name=QUEUE, durable=True, loader=loader)
        # the failed event and everything after it are back on the queue
        # for the next consumer; the rows committed before it are intact
        queue = broker.queue(QUEUE)
        acked = queue.stats.acked
        assert acked < len(events)
        assert len(queue.drain()) == len(events) - acked
        plan_uuid = events[0]["xwf.id"]
        assert loader.archive.query(WorkflowRow).eq("wf_uuid", plan_uuid).count() == 1

    def test_failed_warm_leaves_no_state_behind(self):
        """A warm that dies midway caches nothing and tracks nothing, so
        the retried event warms afresh."""
        events = diamond_events()
        half = len(events) // 2
        archive = StampedeArchive.open("sqlite:///:memory:")
        first = StampedeLoader(archive, batch_size=25)
        for event in events[:half]:
            first.process(event)
        first.flush()
        # a fresh loader on the half-loaded archive warms the workflow on
        # its first event; its job-state read fails
        archive.db = FailWorkflowRead(archive.db, 1, table="jobstate")
        second = StampedeLoader(archive, batch_size=25)
        with pytest.raises(sqlite3.OperationalError, match="at read"):
            second.process(events[half])
        assert second._workflows == {}
        tracking = vars(second.rollup)
        for name in ("_task_rows", "_jobs", "_inst", "_hosts"):
            assert not tracking[name], name
        for event in events[half:]:
            second.process(event)
        second.flush()
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(archive)) == []
        assert verify_rollups(archive) == []
