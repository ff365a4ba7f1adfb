"""The TCP transport: JSONL framing, failure modes, reconnects.

Everything here runs against a real :class:`BrokerServer` on a loopback
socket — no mocks — because the failure modes under test (mid-frame
disconnects, partial JSON, server restarts) live in the transport
itself.  The invariant throughout: transport failures may delay or
redeliver, but :func:`load_from_bus`'s resequencer + ack-after-commit
machinery on top must still archive exactly-once.
"""
import json
import socket
import threading
import time

import pytest

from repro.archive.merge import canonical_dump, diff_canonical, merge_canonical
from repro.bus.broker import Broker, ConnectionLostError
from repro.bus.groups import HEADER_PARTITION
from repro.bus.net import (
    PREFETCH,
    PROTOCOL_VERSION,
    BrokerServer,
    BusProtocolError,
    RemoteConsumer,
    RemotePublisher,
    connect_publisher,
    decode_body,
    encode_body,
    parse_bus_url,
)
from repro.bus.queues import Message
from repro.loader import load_events, load_from_bus, make_loader
from repro.netlogger.events import NLEvent
from repro.util.retry import RetryPolicy

from tests.helpers import diamond_events


@pytest.fixture
def server():
    srv = BrokerServer(Broker()).start()
    yield srv
    srv.stop()


def raw_conn(server):
    """A bare framed socket speaking the protocol by hand."""
    sock = socket.create_connection(server.address, timeout=5.0)
    return sock


def send_line(sock, frame):
    sock.sendall(json.dumps(frame).encode() + b"\n")


def recv_line(sock):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            return None
        buf += chunk
    return json.loads(buf)


def wait_until(check, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not check():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def wire_events(*xwfs):
    """Diamond workflows interleaved into one stream, as the wire
    delivers them (one trip through the BP codec, which is idempotent),
    so a sequential load of the same list is the row-identity baseline."""
    streams = [diamond_events(xwf=x) for x in xwfs]
    return [
        NLEvent.from_bp(event.to_bp()) for batch in zip(*streams) for event in batch
    ]


class TestUrlAndCodec:
    def test_parse_bus_url(self):
        assert parse_bus_url("tcp://127.0.0.1:5672") == ("127.0.0.1", 5672)
        assert parse_bus_url("tcp://host:1/") == ("host", 1)

    @pytest.mark.parametrize(
        "bad", ["http://x:1", "tcp://nohost", "tcp://:5672", "127.0.0.1:1"]
    )
    def test_parse_bus_url_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_bus_url(bad)

    def test_body_codec_roundtrip(self):
        event = diamond_events()[0]
        # events ride as BP text and come back as the BP string — the
        # consumer parses once, the relay never does
        encoded = encode_body(event)
        assert set(encoded) == {"bp"}
        assert NLEvent.from_bp(decode_body(encoded)) == event
        assert decode_body(encode_body("plain")) == "plain"
        assert decode_body(encode_body({"k": [1, None]})) == {"k": [1, None]}

    def test_unknown_body_tag_raises(self):
        with pytest.raises(BusProtocolError):
            decode_body({"pickle": "no"})


class TestHandshake:
    def test_hello_accepts_current_version(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        reply = recv_line(sock)
        assert reply["ok"] and reply["v"] == PROTOCOL_VERSION
        sock.close()

    def test_hello_rejects_other_version_and_closes(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": 99, "id": 1})
        reply = recv_line(sock)
        assert reply["ok"] is False
        assert recv_line(sock) is None  # server hung up
        sock.close()

    def test_unknown_op_reports_but_keeps_connection(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(sock, {"op": "frobnicate", "id": 2})
        reply = recv_line(sock)
        assert reply["ok"] is False and "unknown op" in reply["error"]
        send_line(sock, {"op": "flush", "id": 3})
        assert recv_line(sock)["ok"]  # still serving
        sock.close()


class TestRoundtrip:
    def test_publish_consume_over_tcp(self, server):
        events = diamond_events()
        publisher = RemotePublisher(server.url, publisher_id="p1")
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher.publish_all(events)
        publisher.flush()
        got = []
        while True:
            event = consumer.get(timeout=0.5)
            if event is None and len(got) == len(events):
                break
            if event is not None:
                got.append(event)
        assert got == events
        publisher.close()
        consumer.cancel()

    def test_flush_is_a_barrier(self, server):
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events())
        published = publisher.flush()
        # after the barrier the broker must have every frame we sent
        assert published == len(diamond_events())
        assert server.publishes == len(diamond_events())
        publisher.close()

    def test_consumer_group_over_tcp(self, server):
        events = diamond_events()
        c1 = RemoteConsumer(server.url, group="loaders", partitions=4)
        c2 = RemoteConsumer(server.url, group="loaders", partitions=4)
        assert c1.queue_name != c2.queue_name
        publisher = RemotePublisher(server.url)
        publisher.publish_all(events)
        publisher.flush()
        got = []
        deadline = time.monotonic() + 10
        while len(got) < len(events) and time.monotonic() < deadline:
            for c in (c1, c2):
                event = c.get(timeout=0.05)
                if event is not None:
                    got.append(event)
        # one diamond workflow = one root key = one partition = one member
        assert sorted(e.event for e in got) == sorted(e.event for e in events)
        publisher.close()
        c1.cancel()
        c2.cancel()

    def test_server_side_blocking_get(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        event = diamond_events()[0]

        def later():
            time.sleep(0.3)
            publisher.publish(event)
            publisher.flush()

        t = threading.Thread(target=later)
        start = time.monotonic()
        t.start()
        got = consumer.get(timeout=5.0)
        waited = time.monotonic() - start
        t.join()
        assert got == event
        assert 0.2 < waited < 4.0  # parked, not polled; well under the cap
        publisher.close()
        consumer.cancel()

    def test_depth_and_cancel(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        publisher = RemotePublisher(server.url)
        publisher.publish_all(diamond_events())
        publisher.flush()
        assert consumer.depth() == len(diamond_events())
        consumer.cancel()
        assert not consumer.connected
        with pytest.raises(ConnectionLostError):
            consumer.get_message(timeout=0.0)
        publisher.close()

    def test_connect_publisher_picks_transport(self, server):
        assert isinstance(connect_publisher(server.url), RemotePublisher)
        from repro.bus.client import EventPublisher

        assert isinstance(connect_publisher(Broker()), EventPublisher)


class TestFailureModes:
    def test_partial_json_line_drops_connection(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        sock.sendall(b'{"op": "publish", "key": not json\n')
        reply = recv_line(sock)
        assert reply["ok"] is False and reply["error"] == "bad-frame"
        assert recv_line(sock) is None  # connection torn down
        sock.close()
        deadline = time.monotonic() + 2
        while server.protocol_errors == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.protocol_errors == 1

    def test_mid_frame_disconnect_requeues_inflight(self, server):
        """A consumer that dies mid-frame (no clean close, half a frame
        on the wire) must have its unacked delivery requeued for the
        next subscriber — the transport equivalent of a loader crash."""
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(
            sock,
            {"op": "subscribe", "queue": "q", "durable": True,
             "pattern": "stampede.#", "id": 2},
        )
        assert recv_line(sock)["ok"]
        pub = RemotePublisher(server.url)
        pub.publish_all(diamond_events()[:3])
        pub.flush()
        send_line(sock, {"op": "get", "sub": 1, "timeout": 2.0, "id": 3})
        reply = recv_line(sock)
        assert "msg" in reply  # delivered, unacked
        first_key = reply["msg"]["key"]
        # die mid-frame: half an ack, no newline, then RST-ish close
        sock.sendall(b'{"op": "ack", "sub": 1, ')
        sock.close()
        # the server notices EOF/bad frame and cancels the subscription,
        # requeueing the in-flight message for the next consumer
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        deadline = time.monotonic() + 5
        got = []
        while len(got) < 3 and time.monotonic() < deadline:
            msg = consumer.get_message(timeout=0.3)
            if msg is not None:
                got.append(msg)
        keys = [m.routing_key for m in got]
        assert first_key in keys and len(got) == 3
        redelivered = [m for m in got if m.routing_key == first_key]
        assert any(m.redelivered for m in redelivered)
        consumer.cancel()

    def test_publisher_survives_server_restart(self, server):
        publisher = RemotePublisher(
            server.url, retry=RetryPolicy(max_retries=8, base_delay=0.05)
        )
        events = diamond_events()
        publisher.publish(events[0])
        publisher.flush()
        host, port = server.address
        server.stop()
        with pytest.raises(ConnectionLostError):
            # the dead socket surfaces on publish or on the flush barrier
            publisher.publish(events[1])
            publisher.flush()
        # same port, fresh broker: the durable queue story is the
        # loader's (resume/spill); here we only claim transport recovery
        server2 = BrokerServer(Broker(), host=host, port=port).start()
        try:
            publisher.publish(events[1])
            publisher.flush()
            assert server2.publishes == 1
            assert publisher.reconnects >= 1
        finally:
            publisher.close()
            server2.stop()

    def test_consumer_reconnect_after_server_restart(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        host, port = server.address
        server.stop()
        with pytest.raises(ConnectionLostError):
            consumer.get_message(timeout=0.5)
        assert not consumer.connected
        server2 = BrokerServer(Broker(), host=host, port=port).start()
        try:
            consumer.reconnect()
            assert consumer.connected
            assert consumer.queue_name == "q"  # same subscription identity
            publisher = RemotePublisher(server2.url)
            publisher.publish(diamond_events()[0])
            publisher.flush()
            assert consumer.get(timeout=2.0) == diamond_events()[0]
            publisher.close()
        finally:
            consumer.cancel()
            server2.stop()

    def test_group_member_identity_survives_reconnect(self, server):
        consumer = RemoteConsumer(server.url, group="loaders", partitions=2)
        member = consumer.queue_name.rsplit(".", 1)[-1]
        consumer.reconnect()
        # the server re-issued the same member identity, so partition
        # publisher stamps (and therefore resequencer dedupe) carry over
        assert consumer.queue_name.rsplit(".", 1)[-1] == member
        consumer.cancel()


class TestBatchedDelivery:
    """Many messages per ``get`` reply, one ``ack`` frame per commit —
    and exactly the delivery guarantees the one-at-a-time protocol had."""

    def _publish(self, server, events):
        publisher = RemotePublisher(server.url, publisher_id="p1")
        publisher.publish_all(events)
        publisher.flush()
        publisher.close()

    def test_get_with_max_replies_with_what_is_queued(self, server):
        sock = raw_conn(server)
        send_line(sock, {"op": "hello", "v": PROTOCOL_VERSION, "id": 1})
        recv_line(sock)
        send_line(
            sock,
            {"op": "subscribe", "queue": "q", "durable": True,
             "pattern": "stampede.#", "id": 2},
        )
        assert recv_line(sock)["ok"]
        events = diamond_events()[:6]
        self._publish(server, events[:3])
        start = time.monotonic()
        send_line(sock, {"op": "get", "sub": 1, "timeout": 5.0, "max": 256, "id": 3})
        reply = recv_line(sock)
        # three were queued: three come back at once — the server waits
        # for the first message only, never to fill the batch
        assert time.monotonic() - start < 2.0
        assert [m["key"] for m in reply["msgs"]] == [e.event for e in events[:3]]
        assert reply["depth"] == 0 and "msg" not in reply
        self._publish(server, events[3:])
        send_line(sock, {"op": "get", "sub": 1, "timeout": 5.0, "max": 2, "id": 4})
        reply = recv_line(sock)
        assert len(reply["msgs"]) == 2 and reply["depth"] == 1
        # without ``max`` the reply is the single-message one, as ever
        send_line(sock, {"op": "get", "sub": 1, "timeout": 5.0, "id": 5})
        reply = recv_line(sock)
        assert reply["msg"]["key"] == events[5].event
        assert "msgs" not in reply and "depth" not in reply
        # one frame settles all six; an unknown tag among them is dropped
        send_line(sock, {"op": "ack", "sub": 1, "tags": [1, 2, 3, 99, 4, 5, 6]})
        send_line(sock, {"op": "get", "sub": 1, "timeout": 0, "max": 0, "id": 6})
        assert "max must be" in recv_line(sock)["error"]  # and still serving
        assert server.broker.queue("q").unacked_count == 0
        sock.close()

    def test_auto_ack_get_holds_nothing_client_side(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        events = diamond_events()[:3]
        self._publish(server, events)
        assert consumer.get(timeout=2.0) == events[0]
        # an auto-acked message is gone from the broker for good, so a
        # consumer that dies now must not take unseen ones with it
        queue = server.broker.queue("q")
        assert (len(queue), queue.unacked_count) == (2, 0)
        consumer.cancel()
        successor = RemoteConsumer(server.url, queue_name="q", durable=True)
        rest = [successor.get_message(timeout=2.0) for _ in range(2)]
        assert [m.routing_key for m in rest] == [e.event for e in events[1:]]
        assert not any(m.redelivered for m in rest)
        successor.cancel()

    def test_prefetch_is_bounded_and_depth_rides_on_the_reply(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        events = (diamond_events() * 6)[:PREFETCH + 40]
        self._publish(server, events)
        first = consumer.get_message(timeout=2.0)
        assert first.routing_key == events[0].event
        queue = server.broker.queue("q")
        assert (len(queue), queue.unacked_count) == (40, PREFETCH)
        frames = consumer._conn.framed.frames_out
        assert consumer.depth() == len(events) - 1
        for _ in range(PREFETCH - 1):
            assert consumer.get_message(timeout=0.0) is not None
        assert consumer.depth() == 40
        assert consumer._conn.framed.frames_out == frames  # no round trips
        assert len(consumer.drain()) == 40
        wait_until(lambda: (len(queue), queue.unacked_count) == (0, PREFETCH))
        consumer.cancel()

    def test_ack_many_is_one_frame_and_tolerates_stale_tags(self, server):
        consumer = RemoteConsumer(server.url, queue_name="q", durable=True)
        events = diamond_events()[:20]
        self._publish(server, events)
        batch = [consumer.get_message(timeout=2.0) for _ in events]
        queue = server.broker.queue("q")
        assert queue.unacked_count == len(events)
        frames = consumer._conn.framed.frames_out
        stale = Message("stampede.stale", None, delivery_tag=10_000)
        consumer.ack_many(batch[:10] + [stale] + batch[10:])
        assert consumer._conn.framed.frames_out == frames + 1
        wait_until(lambda: queue.unacked_count == 0)
        assert queue.stats.acked == len(events)
        consumer.ack_many(batch)  # every tag stale by now: dropped, not fatal
        consumer.ack_many([])
        assert consumer._conn.framed.frames_out == frames + 2
        assert consumer.depth() == 0  # the connection survived it all
        consumer.cancel()

    def test_connection_killed_mid_batch_requeues_prefetched_and_in_flight(
        self, server
    ):
        """The loader is stopped just after a commit, with that much of
        the stream acked, one message in flight and the rest prefetched;
        then its connection is cut.  The broker requeues all it has no
        ack for — in flight and prefetched alike — and they come back
        ``redelivered``: those the loader had already seen are dropped
        by its resequencer, the others load for the first time.  Row for
        row, the archive is a sequential load's."""
        events = wire_events("wf-aaaa", "wf-bbbb", "wf-cccc")
        want = canonical_dump(load_events(events, batch_size=10).archive)
        RemoteConsumer(server.url, queue_name="q", durable=True).cancel()
        self._publish(server, events)  # the durable queue outlives its consumer

        loader = make_loader(batch_size=10)
        at_gate, release, finished = (threading.Event() for _ in range(3))
        process, flush = loader.process, loader.flush
        seen, committed = [0], [0]

        def counting_flush():
            flush()
            committed[0] = seen[0]

        def gated(event):
            if seen[0] >= 25 and committed[0] == seen[0] and not at_gate.is_set():
                at_gate.set()
                assert release.wait(30)
            seen[0] += 1
            process(event)

        loader.process, loader.flush = gated, counting_flush
        thread = threading.Thread(
            target=load_from_bus,
            args=(server.url,),
            kwargs=dict(
                queue_name="q", durable=True, loader=loader, poll_timeout=0.05,
                until=lambda _ld: finished.is_set(),
            ),
        )
        thread.start()
        try:
            assert at_gate.wait(30)
            queue = server.broker.queue("q")
            lost = len(events) - seen[0]
            assert 1 < lost <= PREFETCH
            wait_until(lambda: queue.stats.acked == seen[0])
            assert (len(queue), queue.unacked_count) == (0, lost)
            host, port = server.address
            server.stop()
            wait_until(lambda: (len(queue), queue.unacked_count) == (lost, 0))
            with BrokerServer(server.broker, host=host, port=port):
                release.set()
                wait_until(lambda: queue.stats.acked == len(events), timeout=30)
                finished.set()
                thread.join(timeout=30)
        finally:
            release.set()
            finished.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        stats = loader.stats
        assert stats.reconnects == 1
        assert stats.redelivered_events == lost
        # the one in flight was seen twice for certain; how much of the
        # prefetched tail was too depends on when the dead socket showed
        assert 1 <= stats.duplicates_skipped <= lost
        assert stats.events_processed == len(events)
        assert diff_canonical(want, canonical_dump(loader.archive)) == []

    def test_prefetched_batch_revoked_to_another_member(self, server):
        """Member ``a`` holds the whole stream, one message in flight
        and the rest prefetched, when ``b`` joins and takes a partition
        over.  The broker requeues ``a``'s copies of it for ``b``; when
        ``a`` goes, its buffer goes with it and the partition it kept is
        requeued too.  Everything ``a`` held comes back as a redelivery
        to whoever owns the partition then — none skipped as a
        duplicate, none archived twice.

        (What this does *not* cover is unchanged by prefetching: a live
        ``a`` that goes on to commit its stale copies doubles rows,
        because a cross-member handover is at-least-once by design.)"""
        events = wire_events("wf-aaaa", "wf-cccc")  # partitions 0 and 1 of 2
        want = canonical_dump(load_events(events, batch_size=10).archive)
        join = dict(group="loaders", partitions=2)
        a = RemoteConsumer(server.url, member_id="a", **join)
        self._publish(server, events)
        held = [a.get_message(timeout=5.0)]
        group = server.broker.group("loaders")
        wait_until(
            lambda: sum(group.queue(p).unacked_count for p in range(2))
            == len(events)
        )

        def member(member_id, until):
            loader = make_loader(batch_size=10)
            load_from_bus(
                server.url, member_id=member_id, loader=loader,
                poll_timeout=0.05, until=until, **join,
            )
            return loader

        handed_over = threading.Event()
        loaders = {}
        thread = threading.Thread(
            target=lambda: loaders.update(
                b=member("b", lambda _ld: handed_over.is_set())
            )
        )
        thread.start()
        try:
            wait_until(lambda: group.assignment().get("b"))
            (moved,) = group.assignment()["b"]
            wait_until(
                lambda: group.committed(moved) == group.published_seq(moved) > 0,
                timeout=30,
            )
        finally:
            handed_over.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        # a's copies of the moved partition are stale now (it has no way
        # to know): settling them is refused tag by tag, quietly
        held += [a.get_message(timeout=0.0) for _ in events[1:]]
        stale = [m for m in held if m.header(HEADER_PARTITION) == moved]
        per_partition = len(events) // 2
        assert len(stale) == per_partition
        a.ack_many(stale)
        a.cancel()
        idle = [0]

        def drained(_ld):
            idle[0] += 1
            return idle[0] > 5

        loaders["a"] = member("a", drained)
        for name in ("a", "b"):
            stats = loaders[name].stats
            assert stats.redelivered_events == per_partition
            assert stats.duplicates_skipped == 0
        assert all(
            group.committed(p) == group.published_seq(p) for p in range(2)
        )
        merged = merge_canonical(
            *(canonical_dump(ld.archive) for ld in loaders.values())
        )
        assert diff_canonical(want, merged) == []
