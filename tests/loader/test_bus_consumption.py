"""Backpressure-aware bus consumption: no busy-poll, bounded flushes,
ack-only-after-commit, and the commit deadline of the live paths."""
import contextlib
import threading
import time
import types

import pytest

from repro.archive.merge import canonical_dump, diff_canonical, merge_canonical
from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.bus.net import BrokerServer, RemotePublisher
from repro.core.rollup import verify_rollups
from repro.loader import follow_file, load_events, load_from_bus, make_loader
from repro.loader.stampede_loader import COMMIT_COST_MULTIPLE, MAX_PENDING_AGE
from repro.model.entities import InvocationRow, WorkflowStateRow
from repro.netlogger.stream import BPWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import PipelineClock
from repro.schema.stampede import Events

from tests.bus.test_net import wait_until, wire_events
from tests.helpers import diamond_events


class TestBoundedFlushes:
    def test_flush_count_bounded_during_live_run(self):
        """Regression for the busy-poll bug: a trickling producer used to
        force one flush per empty poll (flushes ~ events); now flushes
        happen only on batch-full or idle boundaries."""
        broker = Broker()
        broker.declare_queue("stampede", durable=True)
        broker.bind_queue("stampede", "stampede.#")
        events = diamond_events()
        loader = make_loader(batch_size=10_000)  # never batch-full here
        result = {}

        def consume():
            result["loader"] = load_from_bus(
                broker,
                queue_name="stampede",
                loader=loader,
                durable=True,
                poll_timeout=0.2,
                until=lambda ld: ld.archive.count(WorkflowStateRow) >= 2,
            )

        t = threading.Thread(target=consume)
        t.start()
        publisher = EventPublisher(broker)
        for event in events:  # trickle: each gap would have been a flush
            publisher.publish(event)
            time.sleep(0.001)
        t.join(timeout=15)
        assert not t.is_alive()
        assert loader.archive.count(InvocationRow) == 4
        assert loader.stats.events_processed == len(events)
        # one batch ever filled? no — so only idle/final flushes remain
        assert loader.stats.flushes <= 5

    def test_drain_without_until_stops_on_idle(self):
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        EventPublisher(broker).publish_all(diamond_events())
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=0.01
        )
        assert loader.archive.count(InvocationRow) == 4

    def test_queue_depth_recorded(self):
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        EventPublisher(broker).publish_all(diamond_events())
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=0.01
        )
        assert loader.stats.queue_depth_samples == len(diamond_events())
        assert loader.stats.queue_depth_max > 0


class TestAckOnFlush:
    def test_messages_settle_only_after_commit(self):
        broker = Broker()
        queue = broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        EventPublisher(broker).publish_all(diamond_events())
        published = queue.stats.published
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=0.01
        )
        assert loader.archive.count(InvocationRow) == 4
        assert queue.stats.acked == published  # everything settled
        assert queue.unacked_count == 0

    def test_on_flush_restored_after_return(self):
        broker = Broker()
        broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        loader = make_loader()
        sentinel = []
        loader.on_flush = lambda ld: sentinel.append(1)
        load_from_bus(
            broker, queue_name="q", durable=True, loader=loader, poll_timeout=0.01
        )
        assert loader.on_flush is not None
        loader.flush()  # no pending work; original callback still wired
        assert sentinel


class TestFlushRule:
    """``StampedeLoader.flush_if_due`` on a clock the test owns (both
    clocks: what a commit costs is whatever the test makes it take)."""

    @pytest.fixture
    def clock(self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(
            "repro.loader.stampede_loader.time",
            types.SimpleNamespace(
                monotonic=lambda: now[0],
                perf_counter=lambda: now[0],
                time=time.time,
            ),
        )
        return now

    @staticmethod
    def commits_take(loader, clock, seconds):
        """Every transaction of ``loader`` from now on takes ``seconds[0]``."""
        plain = loader.archive.transaction

        @contextlib.contextmanager
        def slow():
            with plain():
                yield
                clock[0] += seconds[0]

        loader.archive.transaction = slow

    def test_commits_on_age_not_on_count(self, clock):
        events = diamond_events()
        loader = make_loader(batch_size=10_000)
        assert loader.pending_age() == 0.0
        for event in events[:40]:  # any number of events inside the window
            loader.process(event)
            assert not loader.flush_if_due()
            clock[0] += 0.001
        assert loader.stats.flushes == 0
        assert loader.pending_age() == pytest.approx(0.04)
        clock[0] += 0.011  # the first of them is now 51 ms old
        assert loader.flush_if_due()
        assert loader.stats.flushes == 1
        assert loader.pending_age() == 0.0
        # the next batch gets its own stamp, and its own full window
        loader.process(events[40])
        assert not loader.flush_if_due()
        clock[0] += 0.049
        assert not loader.flush_if_due()
        assert loader.pending_age() == pytest.approx(0.049)

    def test_dry_source_commits_after_a_multiple_of_the_cost(self, clock):
        events = diamond_events()
        loader = make_loader(batch_size=10_000)
        loader.commit_cost = 0.001
        deadline = COMMIT_COST_MULTIPLE * 0.001
        assert loader.commit_deadline() == pytest.approx(deadline)
        assert loader.commit_wait() is None  # nothing waits
        loader.process(events[0])
        assert not loader.flush_if_due(dry=True)  # stamps the batch
        assert loader.commit_wait() == pytest.approx(deadline)
        clock[0] += deadline - 0.001
        loader.process(events[1])
        assert not loader.flush_if_due(dry=True)  # dry, but too young
        assert loader.commit_wait() == pytest.approx(0.001)
        clock[0] += 0.001
        assert not loader.flush_if_due()  # old enough, but more is queued
        assert loader.commit_wait() == 0.0
        assert loader.flush_if_due(dry=True)
        assert loader.stats.flushes == 1
        assert loader.commit_wait() is None

    def test_backlog_commits_only_at_the_cap_or_when_full(self, clock):
        events = diamond_events()
        loader = make_loader(batch_size=30)
        loader.commit_cost = 0.0001  # a dry source would commit every 0.9 ms
        for event in events[:10]:
            loader.process(event)
            assert not loader.flush_if_due()  # more is queued behind it
            clock[0] += 0.004
        assert loader.stats.flushes == 0  # 40 ms in, 44 dry deadlines
        clock[0] += 0.010
        loader.process(events[10])
        assert loader.flush_if_due()  # the cap
        assert loader.stats.flushes == 1
        for event in events[11:]:  # and however young, a full batch
            loader.process(event)
            assert not loader.flush_if_due()
        assert loader.stats.flushes > 1
        loader.flush()
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []

    def test_slow_commit_stretches_the_deadline_fast_ones_shrink_it(self, clock):
        events = iter(wire_events(*WFS))
        loader = make_loader(batch_size=10_000)
        seconds = [0.0005]
        self.commits_take(loader, clock, seconds)

        def commit():
            loader.process(next(events))
            loader.flush()
            return loader.commit_deadline()

        for _ in range(40):
            settled = commit()
        assert settled == pytest.approx(COMMIT_COST_MULTIPLE * 0.0005, rel=0.01)
        seconds[0] = 0.020
        stretched = commit()
        assert stretched > 5 * settled
        assert stretched <= MAX_PENDING_AGE
        seconds[0] = 0.0005
        shrinking = [commit() for _ in range(40)]
        assert shrinking == sorted(shrinking, reverse=True)
        assert shrinking[-1] == pytest.approx(settled, rel=0.01)

    def test_unmeasured_cost_means_the_cap(self, clock):
        loader = make_loader()
        assert loader.commit_deadline() == pytest.approx(MAX_PENDING_AGE)

    def test_any_commit_clears_the_stamp(self, clock):
        loader = make_loader(batch_size=10_000)
        loader.process(diamond_events()[0])
        loader.flush_if_due()
        clock[0] += 1.0
        loader.flush()  # batch full, idle tick, end of stream: all the same
        assert loader.pending_age() == 0.0
        loader.flush_if_due()  # stamped with nothing journalled ...
        clock[0] += 1.0
        loader.flush()  # ... an empty flush still clears it
        assert loader.pending_age() == 0.0

    def test_age_is_a_scrape_time_gauge(self, clock):
        registry = MetricsRegistry()
        loader = make_loader(batch_size=10_000, metrics=registry)
        gauge = "stampede_loader_oldest_pending_seconds"
        assert registry.snapshot()[gauge] == 0.0
        loader.process(diamond_events()[0])
        loader.flush_if_due()
        clock[0] += 0.03
        assert registry.snapshot()[gauge] == pytest.approx(0.03)
        loader.flush()
        assert registry.snapshot()[gauge] == 0.0

    def test_cost_and_deadline_are_scrape_time_gauges(self, clock):
        registry = MetricsRegistry()
        loader = make_loader(batch_size=10_000, metrics=registry)
        self.commits_take(loader, clock, [0.002])
        before = registry.snapshot()
        assert before["stampede_loader_commit_deadline_seconds"] == pytest.approx(
            MAX_PENDING_AGE
        )
        loader.process(diamond_events()[0])
        loader.flush()
        after = registry.snapshot()
        assert after["stampede_loader_commit_cost_seconds"] == loader.commit_cost
        assert (
            after["stampede_loader_commit_cost_seconds"]
            < before["stampede_loader_commit_cost_seconds"]
        )
        assert after["stampede_loader_commit_deadline_seconds"] == pytest.approx(
            COMMIT_COST_MULTIPLE * loader.commit_cost
        )

    def test_failed_commit_keeps_the_age_growing(self, clock):
        loader = make_loader(batch_size=10_000)
        loader.process(diamond_events()[0])
        loader.flush_if_due()
        cost = loader.commit_cost

        def down():
            raise RuntimeError("archive down")

        loader.archive.transaction = down
        clock[0] += 0.06
        with pytest.raises(RuntimeError):
            loader.flush_if_due()
        clock[0] += 0.06
        assert loader.pending_age() == pytest.approx(0.12)
        assert loader.commit_cost == cost  # only a commit that happened counts

    def test_follow_file_at_eof_obeys_the_bound(self, clock, tmp_path):
        events = diamond_events()
        path = tmp_path / "run.bp"
        with BPWriter(path) as writer:
            writer.write_all(events)
        loader = make_loader(batch_size=10_000)
        loader.commit_cost = 0.001  # 9 ms for a dry source
        flushes_at_eof = []

        def poll():  # the file has run dry: 4 ms pass before each next look
            flushes_at_eof.append(loader.stats.flushes)
            clock[0] += 0.004
            return len(flushes_at_eof) < 4

        assert follow_file(path, loader, poll) == len(events)
        # looked at 0, 4, 8 and 12 ms after the read: due at the fourth
        assert flushes_at_eof == [0, 0, 0, 1]
        assert loader.stats.flushes == 1
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []
        assert verify_rollups(loader.archive) == []


class _RecordingClock(PipelineClock):
    """A PipelineClock that also keeps every deliver → commit interval."""

    instances = []

    def __init__(self, registry):
        super().__init__(registry)
        self.delivered_at = {}
        self.waits = []
        self.instances.append(self)

    def on_delivered(self, message):
        self.delivered_at[message.delivery_tag] = time.monotonic()
        super().on_delivered(message)

    def on_committed(self, messages):
        now = time.monotonic()
        self.waits.extend(
            now - self.delivered_at.pop(m.delivery_tag) for m in messages
        )
        super().on_committed(messages)


@pytest.fixture
def commit_waits(monkeypatch):
    """Deliver → commit seconds of every message ``load_from_bus`` settles
    (summed over all loaders started with ``metrics=``)."""
    monkeypatch.setattr(_RecordingClock, "instances", [])
    monkeypatch.setattr("repro.loader.nl_load.PipelineClock", _RecordingClock)
    return lambda: [w for c in _RecordingClock.instances for w in c.waits]


WFS = ("wf-aaaa", "wf-bbbb", "wf-cccc", "wf-dddd")


class TestCommitDeadline:
    """One flush rule on the live paths: full, or the oldest buffered
    event has waited ``poll_timeout``."""

    def start(self, broker, done, **kwargs):
        kwargs.setdefault("loader", make_loader(batch_size=10_000))
        thread = threading.Thread(
            target=load_from_bus,
            args=(broker,),
            kwargs=dict(until=lambda _ld: done.is_set(), **kwargs),
        )
        thread.start()
        return kwargs["loader"], thread

    def stop(self, done, *threads):
        done.set()
        for thread in threads:
            thread.join(timeout=15)
            assert not thread.is_alive()

    def durable_queue(self):
        broker = Broker()
        queue = broker.declare_queue("q", durable=True)
        broker.bind_queue("q", "stampede.#")
        return broker, queue

    def test_paced_stream_commits_within_the_deadline(self, commit_waits):
        """~200 ev/s never fills a batch and is never idle: only the age
        rule commits it, and it does so within ``poll_timeout``."""
        poll_timeout = 0.1
        events = wire_events(*WFS)
        broker, queue = self.durable_queue()
        done = threading.Event()
        loader, thread = self.start(
            broker, done, queue_name="q", durable=True,
            poll_timeout=poll_timeout, metrics=MetricsRegistry(),
        )
        try:
            publisher = EventPublisher(broker)
            for event in events:
                publisher.publish(event)
                time.sleep(0.005)
            during = loader.stats.flushes  # before the stream ever idled
            wait_until(lambda: queue.stats.acked == len(events))
        finally:
            self.stop(done, thread)
        assert during >= 4
        waits = commit_waits()
        assert len(waits) == len(events)
        assert max(waits) < 3 * poll_timeout
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []
        assert verify_rollups(loader.archive) == []

    def test_sparse_stream_is_bounded_too(self, commit_waits):
        """One event per 0.8 x ``poll_timeout``: ``get`` never times out,
        so the wait itself has to end at the batch's deadline."""
        poll_timeout = 0.2
        events = wire_events("wf-aaaa")[:8]
        broker, queue = self.durable_queue()
        done = threading.Event()
        _, thread = self.start(
            broker, done, queue_name="q", durable=True,
            poll_timeout=poll_timeout, metrics=MetricsRegistry(),
        )
        try:
            publisher = EventPublisher(broker)
            for event in events:
                publisher.publish(event)
                time.sleep(0.8 * poll_timeout)
            wait_until(lambda: queue.stats.acked == len(events))
        finally:
            self.stop(done, thread)
        waits = commit_waits()
        assert len(waits) == len(events)
        assert max(waits) < 2 * poll_timeout

    def test_backlog_still_commits_in_full_batches(self):
        """A drain fills its batches faster than they age, so the rule
        leaves its batch boundaries where a sequential load puts them."""
        events = wire_events(*WFS)
        sequential = load_events(events, batch_size=50)
        broker, _ = self.durable_queue()
        EventPublisher(broker).publish_all(events)
        loader = load_from_bus(
            broker, queue_name="q", durable=True, poll_timeout=1.0,
            loader=make_loader(batch_size=50),
        )
        assert loader.stats.flushes == sequential.stats.flushes > 4
        assert diff_canonical(
            canonical_dump(sequential.archive), canonical_dump(loader.archive)
        ) == []

    @pytest.mark.parametrize("rate", [200, 1000, 5000])
    def test_commit_share_is_bounded_at_any_rate(self, rate):
        """Commits on the dry rule wait ``COMMIT_COST_MULTIPLE`` costs, so
        they take at most 1 / (1 + that) of the loader's time.  Where the
        rows alone cost more than that share the deadline stretches to
        the cap, and commits are as few as the cap and full batches make
        them: 2 s of each, and the same rows as a sequential load."""
        seconds = 2.0
        count = int(rate * seconds)
        events = wire_events(*(f"wf-{i}" for i in range(count // 57 + 1)))[:count]
        broker, queue = self.durable_queue()
        done = threading.Event()
        loader, thread = self.start(
            broker, done, queue_name="q", durable=True, loader=make_loader()
        )
        try:
            publisher = EventPublisher(broker)
            started = time.monotonic()
            for i, event in enumerate(events):
                ahead = started + i / rate - time.monotonic()
                if ahead > 0:
                    time.sleep(ahead)
                publisher.publish(event)
            wait_until(lambda: queue.stats.acked == count)
            wall = time.monotonic() - started
        finally:
            self.stop(done, thread)
        stats = loader.stats
        share = sum(stats.flush_seconds) / wall
        # half as much again for costs that jump between two commits
        cheap = share <= 1.5 / (1 + COMMIT_COST_MULTIPLE)
        by_the_cap = wall / MAX_PENDING_AGE
        by_full_batches = (stats.rows_inserted + stats.rows_updated) / loader.batch_size
        assert cheap or stats.flushes <= 1.5 * (by_the_cap + by_full_batches), share
        if rate == 200:  # far below what any host can load: the dry rule's
            assert cheap and stats.flushes > 2 * by_the_cap, (share, stats.flushes)
        want = canonical_dump(load_events(events).archive)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []
        assert verify_rollups(loader.archive) == []

    def test_deliveries_without_rows_are_acked_by_the_deadline(self):
        """``inv.start`` journals nothing, yet its message is in flight:
        the deadline settles it although no batch will ever fill."""
        poll_timeout = 0.2
        events = wire_events("wf-aaaa")
        first = next(
            i for i, e in enumerate(events) if e.event == Events.INV_START
        )
        broker, queue = self.durable_queue()
        done = threading.Event()
        loader, thread = self.start(
            broker, done, queue_name="q", durable=True,
            poll_timeout=poll_timeout,
        )
        try:
            publisher = EventPublisher(broker)
            publisher.publish_all(events[:first])
            wait_until(lambda: queue.stats.acked == first)
            flushes = loader.stats.flushes
            for _ in range(8):  # 3.2 x poll_timeout, never idle for one
                publisher.publish(events[first])
                time.sleep(0.4 * poll_timeout)
            assert queue.stats.acked > first  # settled mid-stream
            assert loader.stats.flushes == flushes  # with no commit to make
            wait_until(lambda: queue.stats.acked == first + 8)
        finally:
            self.stop(done, thread)

    def test_paced_stream_over_tcp_into_a_consumer_group(self, commit_waits):
        poll_timeout = 0.1
        events = wire_events(*WFS)
        want = canonical_dump(load_events(events).archive)
        done = threading.Event()
        with BrokerServer(Broker()) as server:
            server.broker.declare_group("loaders", partitions=4)
            started = [
                self.start(
                    server.url, done, group="loaders", member_id=f"m{i}",
                    partitions=4, poll_timeout=poll_timeout,
                    metrics=MetricsRegistry(),
                )
                for i in range(2)
            ]
            loaders, threads = zip(*started)
            group = server.broker.group("loaders")
            try:
                wait_until(lambda: len(group.members()) == 2)
                publisher = RemotePublisher(server.url, publisher_id="p1")
                for event in events:
                    publisher.publish(event)
                    time.sleep(0.005)
                publisher.flush()
                publisher.close()
                during = sum(ld.stats.flushes for ld in loaders)
                wait_until(
                    lambda: all(
                        group.committed(p) == group.published_seq(p)
                        for p in range(4)
                    )
                )
            finally:
                self.stop(done, *threads)
        assert during >= 4
        waits = commit_waits()
        assert len(waits) == len(events)
        assert max(waits) < 3 * poll_timeout
        merged = merge_canonical(*(canonical_dump(ld.archive) for ld in loaders))
        assert diff_canonical(want, merged) == []
