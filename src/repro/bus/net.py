"""Cross-process bus transport: JSONL frames over TCP.

The in-process :class:`~repro.bus.broker.Broker` already gives the
paper's architecture its decoupling *within* one process; this module
puts a socket in front of it so the pieces can live in separate
processes (an engine publishing from one, ``nl-load`` consuming from
another), the deployment shape the paper actually describes.

Wire protocol (versioned, newline-delimited JSON):

* every frame is one JSON object terminated by ``\\n`` — no length
  prefix, so a partial frame is detectable as a line without a
  terminator and ``tcpdump``/``nc`` sessions stay human-readable;
* the first frame on a connection must be
  ``{"op": "hello", "v": 1}``; the server rejects other versions, which
  is the forward-compatibility hinge;
* bodies cross the wire as a tagged union — ``{"bp": line}`` for
  NetLogger events (the canonical BP text form), ``{"str": s}`` /
  ``{"json": v}`` for everything else.  The server relays bodies
  opaquely (no parse on the hot path); a consumer gets the BP string
  and parses once, client-side;
* ``publish`` frames are fire-and-forget; a ``flush`` frame is the
  barrier that reports delivery counts and surfaces errors;
* ``get`` waits *server-side* (capped per request) so an idle consumer
  parks on the broker's condition variables instead of request-spamming
  the socket.  With ``max`` the reply carries every message already
  queued behind the first, up to that many — the wait is only ever for
  the first, so a paced stream sees single-message latency and a
  backlog drains in a few round trips;
* ``ack`` settles a list of ``tags`` in one frame: a consumer that
  commits in batches tells the broker so once per commit.

:class:`RemotePublisher` / :class:`RemoteConsumer` mirror the
:mod:`repro.bus.client` interfaces, so ``load_from_bus(bus='tcp://…')``
and chaos-recovery (auto-reconnect under a
:class:`~repro.util.retry.RetryPolicy`) work unchanged over TCP.
"""
from __future__ import annotations

import json
import socket
import threading
import time
from collections import deque
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
    cast,
)

from repro.bus.broker import (
    DEFAULT_EXCHANGE,
    DEFAULT_POLL_TIMEOUT,
    Broker,
    ConnectionLostError,
)
from repro.bus.client import EventConsumer, EventPublisher
from repro.bus.groups import HEADER_PART_KEY, GroupConsumer, PartitionKeyer
from repro.bus.queues import Message
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ
from repro.netlogger.events import NLEvent
from repro.obs.spans import (
    CLOCK_EPOCH,
    HEADER_CLOCK_EPOCH,
    HEADER_PUB_MONO,
    HEADER_PUB_TS,
    HEADER_TRACE,
    new_trace_id,
)
from repro.util.retry import RetryPolicy

__all__ = [
    "PROTOCOL_VERSION",
    "BusProtocolError",
    "BrokerServer",
    "RemotePublisher",
    "RemoteConsumer",
    "parse_bus_url",
    "encode_body",
    "decode_body",
    "connect_publisher",
]

PROTOCOL_VERSION = 1

#: longest a single server-side ``get`` may park before replying
#: ``empty`` — bounds how long a handler thread can be stuck behind a
#: client that died mid-wait; clients with longer (or infinite)
#: timeouts just re-issue the request
SERVER_WAIT_CAP = 5.0

#: most messages one ``get`` reply carries, hence the most a
#: :class:`RemoteConsumer` holds delivered-but-unseen.  Large enough that
#: the round trip is amortised to noise, small enough that a consumer
#: dying with a full buffer hands the broker back a fraction of a second
#: of work to redeliver
PREFETCH = 256

#: socket-level timeout on client request/reply exchanges; generous
#: because a flush barrier behind a large publish burst is legitimate
_CLIENT_SOCKET_TIMEOUT = 60.0


class BusProtocolError(ConnectionError):
    """The peer sent a frame this protocol version cannot interpret."""


def parse_bus_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``."""
    if not url.startswith("tcp://"):
        raise ValueError(f"unsupported bus url {url!r} (expected tcp://host:port)")
    rest = url[len("tcp://"):].rstrip("/")
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ValueError(f"bus url {url!r} missing port (expected tcp://host:port)")
    return host, int(port)


def encode_body(body: object) -> Dict[str, object]:
    """Tagged-union encoding of a message body for the wire."""
    if isinstance(body, NLEvent):
        return {"bp": body.to_bp()}
    if isinstance(body, str):
        return {"str": body}
    return {"json": body}


def decode_body(obj: Dict[str, object]) -> object:
    """Inverse of :func:`encode_body`.

    A ``bp`` body is returned as the BP *string*: every consumer-side
    path (:meth:`EventConsumer.as_event`, the loader) parses BP lines
    natively, and deferring the parse keeps the relay dumb and fast.
    """
    if "bp" in obj:
        return obj["bp"]
    if "str" in obj:
        return obj["str"]
    if "json" in obj:
        return obj["json"]
    raise BusProtocolError(f"unintelligible body frame: {sorted(obj)!r}")


def _encode_message(msg: Message) -> Dict[str, object]:
    return {
        "key": msg.routing_key,
        "tag": msg.delivery_tag,
        "redelivered": msg.redelivered,
        "headers": dict(msg.headers or {}),
        "body": encode_body(msg.body),
    }


def _decode_message(obj: Dict[str, object]) -> Message:
    return Message(
        routing_key=str(obj["key"]),
        body=decode_body(obj["body"]),  # type: ignore[arg-type]
        delivery_tag=int(obj["tag"]),  # type: ignore[arg-type]
        redelivered=bool(obj.get("redelivered", False)),
        headers=dict(obj.get("headers") or {}),  # type: ignore[arg-type]
    )


class _Framed:
    """One JSONL-framed socket: line out, line in."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._wlock = threading.Lock()
        self.frames_in = 0
        self.frames_out = 0

    def send(self, frame: Dict[str, object]) -> None:
        data = json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"
        with self._wlock:
            # the lock's entire purpose is to serialize whole frames
            # onto one socket; writers MUST block here or frames
            # interleave mid-line and corrupt the stream
            self.sock.sendall(data)  # devlint: ignore[SDL102]
            self.frames_out += 1

    def recv(self) -> Optional[Dict[str, object]]:
        """Next frame, or ``None`` on clean EOF.

        A line that ends without its ``\\n`` terminator (peer died
        mid-frame) or that is not valid JSON raises
        :class:`BusProtocolError` — the stream is unrecoverable past
        that point, so callers tear the connection down.
        """
        try:
            line = self._rfile.readline()
        except ValueError:
            # the buffered reader was closed underneath us (server
            # shutdown racing a blocked readline): same as a clean EOF
            return None
        if not line:
            return None
        if not line.endswith(b"\n"):
            raise BusProtocolError("peer closed mid-frame (truncated line)")
        try:
            frame = json.loads(line)
        except ValueError as exc:
            raise BusProtocolError(f"undecodable frame: {exc}") from None
        if not isinstance(frame, dict):
            raise BusProtocolError("frame is not a JSON object")
        self.frames_in += 1
        return frame

    def close(self) -> None:
        # shutdown first: it wakes any thread parked in readline() with
        # an EOF, where closing the buffered reader outright would block
        # on the reader lock that very thread is holding
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self._rfile.close()
        except (OSError, ValueError):
            pass


class BrokerServer:
    """Serves one in-process :class:`Broker` to TCP clients.

    Thread-per-connection: each client connection is a strictly
    sequential request/reply stream (publishers and consumers open
    separate connections), so a server-side blocking ``get`` only parks
    its own handler thread.  When a connection drops — cleanly or
    mid-frame — every subscription it held is cancelled, which requeues
    unacked deliveries (plain consumers) or hands partitions back to the
    group (group members): the same semantics an in-process disconnect
    has, so chaos tests exercise identical recovery paths.
    """

    def __init__(self, broker: Broker, host: str = "127.0.0.1", port: int = 0):
        self.broker = broker
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._conn_lock = threading.Lock()
        self._conns: Dict[int, _Framed] = {}
        self._conn_ids = 0
        self.connections_total = 0
        self.publishes = 0
        self.protocol_errors = 0

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "BrokerServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(64)
        listener.settimeout(0.2)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="bus-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    @property
    def url(self) -> str:
        return f"tcp://{self._host}:{self._port}"

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns.values())
        for conn in conns:
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def __enter__(self) -> "BrokerServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- accept/handler loops -------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopping.is_set():
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed underneath us: shutting down
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Framed(sock)
            with self._conn_lock:
                self._conn_ids += 1
                cid = self._conn_ids
                self._conns[cid] = conn
            self.connections_total += 1
            threading.Thread(
                target=self._serve_connection,
                args=(cid, conn),
                name=f"bus-server-conn-{cid}",
                daemon=True,
            ).start()

    def _serve_connection(self, cid: int, conn: _Framed) -> None:
        #: subscription id -> consumer handle (EventConsumer-shaped)
        subs: Dict[int, Union[EventConsumer, GroupConsumer]] = {}
        sub_ids = 0
        try:
            while True:
                try:
                    frame = conn.recv()
                except BusProtocolError:
                    self.protocol_errors += 1
                    try:
                        conn.send({"ok": False, "error": "bad-frame"})
                    except OSError:
                        pass
                    return
                if frame is None:
                    return  # clean EOF
                op = frame.get("op")
                rid = frame.get("id")
                try:
                    if op == "hello":
                        if frame.get("v") != PROTOCOL_VERSION:
                            conn.send({
                                "ok": False, "id": rid,
                                "error": f"unsupported protocol version "
                                         f"{frame.get('v')!r}",
                            })
                            return
                        conn.send({
                            "ok": True, "id": rid, "v": PROTOCOL_VERSION,
                            "server": "stampede-bus/1",
                        })
                    elif op == "publish":
                        self.publishes += 1
                        self.broker.publish(
                            str(frame["key"]),
                            decode_body(frame["body"]),  # type: ignore[arg-type]
                            exchange=str(frame.get("exchange") or DEFAULT_EXCHANGE),
                            headers=frame.get("headers"),  # type: ignore[arg-type]
                        )
                        # fire-and-forget: no reply (see "flush")
                    elif op == "flush":
                        conn.send({
                            "ok": True, "id": rid, "published": self.publishes,
                        })
                    elif op == "subscribe":
                        group = frame.get("group")
                        consumer: Union[EventConsumer, GroupConsumer]
                        if group:
                            consumer = GroupConsumer(
                                self.broker,
                                str(group),
                                pattern=str(frame.get("pattern") or "stampede.#"),
                                partitions=int(frame.get("partitions") or 8),  # type: ignore[arg-type]
                                member_id=(
                                    str(frame["member"])
                                    if frame.get("member") else None
                                ),
                                exchange=str(
                                    frame.get("exchange") or DEFAULT_EXCHANGE
                                ),
                            )
                        else:
                            consumer = EventConsumer(
                                self.broker,
                                pattern=str(frame.get("pattern") or "stampede.#"),
                                queue_name=(
                                    str(frame["queue"])
                                    if frame.get("queue") else None
                                ),
                                exchange=str(
                                    frame.get("exchange") or DEFAULT_EXCHANGE
                                ),
                                durable=bool(frame.get("durable", False)),
                            )
                        sub_ids += 1
                        subs[sub_ids] = consumer
                        conn.send({
                            "ok": True, "id": rid, "sub": sub_ids,
                            "queue": consumer.queue_name,
                        })
                    elif op == "get":
                        consumer = self._sub(subs, frame)
                        timeout = frame.get("timeout")
                        wait = (
                            SERVER_WAIT_CAP if timeout is None
                            else min(float(timeout), SERVER_WAIT_CAP)  # type: ignore[arg-type]
                        )
                        batched = "max" in frame
                        limit = min(int(frame["max"]), PREFETCH) if batched else 1  # type: ignore[arg-type]
                        if limit < 1:
                            raise ValueError("max must be >= 1")
                        auto_ack = bool(frame.get("auto_ack", False))
                        msgs: List[Message] = []
                        try:
                            # wait only for the first message; the rest
                            # of the batch is whatever is already queued
                            msg = consumer.get_message(
                                timeout=wait, auto_ack=auto_ack
                            )
                            while msg is not None:
                                msgs.append(msg)
                                if len(msgs) >= limit:
                                    break
                                msg = consumer.get_message(
                                    timeout=0.0, auto_ack=auto_ack
                                )
                        except ConnectionLostError as exc:
                            if not (auto_ack and msgs):
                                # the disconnect requeued every unacked
                                # delivery, a half-built batch included
                                subs.pop(int(frame["sub"]), None)  # type: ignore[arg-type]
                                conn.send({
                                    "ok": False, "id": rid, "gone": True,
                                    "error": str(exc),
                                })
                                continue
                            # auto-acked messages were settled as they were
                            # taken and nothing will redeliver them: hand
                            # them over, the next get reports the loss
                        if not msgs:
                            conn.send({"ok": True, "id": rid, "empty": True})
                        elif batched:
                            conn.send({
                                "ok": True, "id": rid,
                                "msgs": [_encode_message(m) for m in msgs],
                                "depth": consumer.depth(),
                            })
                        else:
                            conn.send({
                                "ok": True, "id": rid,
                                "msg": _encode_message(msgs[0]),
                            })
                    elif op == "ack":
                        # fire-and-forget, like publish: one frame settles
                        # a committed batch and ack_many skips a stale tag,
                        # so a reply would only throttle the commit path
                        self._settle(subs, frame, requeue=None)
                    elif op == "nack":
                        self._settle(
                            subs, frame,
                            requeue=bool(frame.get("requeue", True)),
                        )
                    elif op == "depth":
                        consumer = self._sub(subs, frame)
                        conn.send({"ok": True, "id": rid, "depth": consumer.depth()})
                    elif op == "cancel":
                        consumer2 = subs.pop(int(frame["sub"]), None)  # type: ignore[arg-type]
                        if consumer2 is not None:
                            consumer2.cancel()
                        conn.send({"ok": True, "id": rid})
                    else:
                        conn.send({
                            "ok": False, "id": rid,
                            "error": f"unknown op {op!r}",
                        })
                except (KeyError, TypeError, ValueError) as exc:
                    # malformed-but-parseable frame: report and carry on
                    conn.send({
                        "ok": False, "id": rid,
                        "error": f"bad request: {exc}",
                    })
        except OSError:
            return  # connection torn down underneath a send/recv
        finally:
            with self._conn_lock:
                self._conns.pop(cid, None)
            for consumer in subs.values():
                # requeue in-flight work / hand partitions back; a member
                # that already disconnected server-side is a no-op
                try:
                    consumer.cancel()
                except (ConnectionLostError, ValueError):
                    pass
            conn.close()

    @staticmethod
    def _sub(
        subs: Dict[int, Union[EventConsumer, GroupConsumer]],
        frame: Dict[str, object],
    ) -> Union[EventConsumer, GroupConsumer]:
        consumer = subs.get(int(frame["sub"]))  # type: ignore[arg-type]
        if consumer is None:
            raise ValueError(f"unknown subscription {frame.get('sub')!r}")
        return consumer

    def _settle(
        self,
        subs: Dict[int, Union[EventConsumer, GroupConsumer]],
        frame: Dict[str, object],
        requeue: Optional[bool],
    ) -> None:
        try:
            consumer = self._sub(subs, frame)
            # the consumer interfaces settle by Message; only the tag is
            # meaningful, so rehydrate shells around the tags
            if requeue is None:
                tags = cast(
                    List[int],
                    frame["tags"] if "tags" in frame else [frame["tag"]],
                )
                consumer.ack_many(
                    [Message("", None, delivery_tag=int(t)) for t in tags]
                )
            else:
                consumer.nack(
                    Message("", None, delivery_tag=int(frame["tag"])),  # type: ignore[arg-type]
                    requeue=requeue,
                )
        except (ConnectionLostError, KeyError, TypeError, ValueError):
            # fire-and-forget settle on a stale tag/sub: drop it, exactly
            # as ack_quiet does in-process after a reconnect
            pass


class _ClientConn:
    """Client side of one framed connection, with request/reply ids."""

    def __init__(self, host: str, port: int):
        sock = socket.create_connection((host, port), timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_CLIENT_SOCKET_TIMEOUT)
        self.framed = _Framed(sock)
        self._rid = 0
        hello = self.request({"op": "hello", "v": PROTOCOL_VERSION})
        if not hello.get("ok"):
            raise BusProtocolError(
                f"server rejected hello: {hello.get('error')!r}"
            )

    def send(self, frame: Dict[str, object]) -> None:
        self.framed.send(frame)

    def request(self, frame: Dict[str, object]) -> Dict[str, object]:
        self._rid += 1
        frame = dict(frame, id=self._rid)
        self.framed.send(frame)
        while True:
            reply = self.framed.recv()
            if reply is None:
                raise BusProtocolError("server closed connection mid-request")
            # replies arrive in order on this strictly sequential
            # connection; skipping mismatched ids defends against a
            # stale reply surviving a timeout
            if reply.get("id") == self._rid or "id" not in reply:
                return reply

    def close(self) -> None:
        self.framed.close()


class RemotePublisher:
    """Publishes NLEvents to a :class:`BrokerServer` over TCP.

    Drop-in for :class:`~repro.bus.client.EventPublisher`: stamps the
    same end-to-end headers (publisher sequence, trace id, wall +
    monotonic publish clocks) plus ``x-part-key`` — the root-workflow
    partition key, computed *client-side* (this process holds the parsed
    event; the server relays bodies opaquely) so consumer groups
    partition remote streams exactly as local ones.

    Publishes are fire-and-forget frames; :meth:`flush` is the barrier
    that drains the socket and surfaces transport errors.  The
    connection is (re)established lazily under ``retry``.
    """

    def __init__(
        self,
        url: str,
        exchange: str = DEFAULT_EXCHANGE,
        publisher_id: Optional[str] = None,
        stamp: bool = True,
        flush_every: int = 512,
        retry: Optional[RetryPolicy] = None,
    ):
        self._host, self._port = parse_bus_url(url)
        self._exchange = exchange
        self.publisher_id = publisher_id or f"pub-{new_trace_id()}"
        self._stamp = stamp
        self._flush_every = max(1, flush_every)
        self._retry = retry or RetryPolicy(max_retries=4, base_delay=0.05)
        self._keyer = PartitionKeyer()
        self._conn: Optional[_ClientConn] = None
        self.events_published = 0
        self.reconnects = 0
        self._unflushed = 0

    def _connect(self) -> _ClientConn:
        if self._conn is None:
            self._conn = self._retry.call(
                lambda: _ClientConn(self._host, self._port),
                retry_on=(OSError, BusProtocolError),
            )
        return self._conn

    def publish(self, event: NLEvent) -> int:
        self.events_published += 1
        headers: Optional[Dict[str, object]] = None
        if self._stamp:
            headers = {
                HEADER_PUBLISHER: self.publisher_id,
                HEADER_SEQ: self.events_published,
                HEADER_TRACE: new_trace_id(),
                HEADER_PUB_TS: time.time(),
                HEADER_PUB_MONO: time.monotonic(),
                HEADER_CLOCK_EPOCH: CLOCK_EPOCH,
                HEADER_PART_KEY: self._keyer.key_for(
                    event.attrs, default=self.publisher_id
                ),
            }
        frame: Dict[str, object] = {
            "op": "publish",
            "key": event.event,
            "body": encode_body(event),
            "exchange": self._exchange,
        }
        if headers is not None:
            frame["headers"] = headers
        try:
            self._connect().send(frame)
        except (OSError, BusProtocolError):
            self._drop_connection()
            raise ConnectionLostError(
                f"lost connection to bus server {self._host}:{self._port}"
            ) from None
        self._unflushed += 1
        if self._unflushed >= self._flush_every:
            self.flush()
        return 1

    def publish_all(self, events) -> int:
        count = 0
        for event in events:
            self.publish(event)
            count += 1
        return count

    def flush(self) -> int:
        """Barrier: confirm the server consumed everything sent so far."""
        if self._conn is None:
            return 0
        try:
            reply = self._conn.request({"op": "flush"})
        except (OSError, BusProtocolError):
            self._drop_connection()
            raise ConnectionLostError(
                f"lost connection to bus server {self._host}:{self._port}"
            ) from None
        self._unflushed = 0
        return int(reply.get("published", 0))  # type: ignore[arg-type]

    def _drop_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self.reconnects += 1

    def close(self) -> None:
        if self._conn is not None:
            try:
                self.flush()
            except ConnectionLostError:
                pass
            if self._conn is not None:
                self._conn.close()
                self._conn = None


class RemoteConsumer:
    """Consumes from a :class:`BrokerServer` over TCP.

    Interface-compatible with :class:`~repro.bus.client.EventConsumer`
    (and, with ``group=``, joins a consumer group server-side), so
    ``load_from_bus`` drives it unchanged: ``get_message`` raises
    :class:`ConnectionLostError` on transport loss *or* a server-side
    disconnect (``gone`` reply), the caller settles its batch, then
    :meth:`reconnect` re-subscribes — same queue name or same group
    member identity — under the retry policy.

    Unacked fetches ask for up to :data:`PREFETCH` messages per round
    trip and hand them out one by one, so at most that many sit here
    delivered but unseen.  To the broker they are ordinary unacked
    deliveries: :meth:`reconnect`, :meth:`cancel` and a lost connection
    forget them and the broker requeues them with the rest.
    """

    def __init__(
        self,
        url: str,
        pattern: str = "stampede.#",
        queue_name: Optional[str] = None,
        durable: bool = False,
        group: Optional[str] = None,
        member_id: Optional[str] = None,
        partitions: int = 8,
        exchange: str = DEFAULT_EXCHANGE,
        retry: Optional[RetryPolicy] = None,
    ):
        self._host, self._port = parse_bus_url(url)
        self._pattern = pattern
        self._exchange = exchange
        self._durable = durable
        self._group = group
        self._member_id = member_id
        self._partitions = partitions
        self._queue_name = queue_name
        self._retry = retry or RetryPolicy(
            max_retries=6, base_delay=0.05, max_delay=1.0, jitter="decorrelated"
        )
        self._conn: Optional[_ClientConn] = None
        self._sub: Optional[int] = None
        self._prefetched: Deque[Message] = deque()
        #: server-side queue depth as of the last ``get`` reply
        self._depth: Optional[int] = None
        self.reconnects = 0
        self._subscribe()

    # -- connection management ------------------------------------------------
    def _subscribe(self) -> None:
        conn = _ClientConn(self._host, self._port)
        frame: Dict[str, object] = {
            "op": "subscribe",
            "pattern": self._pattern,
            "exchange": self._exchange,
            "durable": self._durable,
        }
        if self._group:
            frame["group"] = self._group
            frame["partitions"] = self._partitions
            if self._member_id:
                frame["member"] = self._member_id
        elif self._queue_name:
            frame["queue"] = self._queue_name
        reply = conn.request(frame)
        if not reply.get("ok"):
            conn.close()
            raise BusProtocolError(
                f"subscribe rejected: {reply.get('error')!r}"
            )
        self._conn = conn
        self._sub = int(reply["sub"])  # type: ignore[arg-type]
        self._queue_name = str(reply["queue"])
        if self._group and self._member_id is None:
            # remember the server-assigned member id so a reconnect
            # resumes the same partition identities (exactly-once hinges
            # on this)
            self._member_id = self._queue_name.rsplit(".", 1)[-1]

    @property
    def queue_name(self) -> str:
        return self._queue_name or ""

    @property
    def connected(self) -> bool:
        return self._conn is not None

    def reconnect(self) -> None:
        """Re-establish connection + subscription under the retry policy."""
        self.reconnects += 1
        self._teardown()
        self._retry.call(
            self._subscribe, retry_on=(OSError, BusProtocolError)
        )

    def _teardown(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = None
        self._sub = None
        self._prefetched.clear()
        self._depth = None

    def _lost(self, detail: str) -> ConnectionLostError:
        self._teardown()
        return ConnectionLostError(
            f"lost connection to bus server {self._host}:{self._port}: {detail}"
        )

    def _request(self, frame: Dict[str, object]) -> Dict[str, object]:
        if self._conn is None or self._sub is None:
            raise ConnectionLostError("not connected to bus server")
        try:
            reply = self._conn.request(dict(frame, sub=self._sub))
        except (OSError, BusProtocolError) as exc:
            raise self._lost(str(exc)) from None
        if not reply.get("ok"):
            if reply.get("gone"):
                raise self._lost(str(reply.get("error")))
            raise ValueError(f"bus server error: {reply.get('error')!r}")
        return reply

    # -- consuming ------------------------------------------------------------
    def _fetch(
        self, timeout: Optional[float], auto_ack: bool, limit: int
    ) -> List[Message]:
        """One batch of up to ``limit``; the wait (for the first message
        only) happens server-side in capped slices."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            reply = self._request({
                "op": "get",
                "timeout": remaining,
                "auto_ack": auto_ack,
                "max": limit,
            })
            if "msgs" in reply:
                self._depth = int(reply["depth"])  # type: ignore[arg-type]
                return [
                    _decode_message(m)
                    for m in cast(List[Dict[str, object]], reply["msgs"])
                ]
            self._depth = 0
            if deadline is not None and time.monotonic() >= deadline:
                return []
            # empty + time left (or blocking): park again server-side

    def get_message(
        self,
        timeout: Optional[float] = DEFAULT_POLL_TIMEOUT,
        auto_ack: bool = False,
    ) -> Optional[Message]:
        """Next message, from the prefetch buffer when it holds one."""
        if not self._prefetched:
            # an auto-acked message is settled the moment the server
            # sends it, so never hold more of those than the one returned
            self._prefetched.extend(
                self._fetch(timeout, auto_ack, 1 if auto_ack else PREFETCH)
            )
            if not self._prefetched:
                return None
        elif auto_ack:
            self.ack(self._prefetched[0])
        return self._prefetched.popleft()

    def get(
        self, timeout: Optional[float] = DEFAULT_POLL_TIMEOUT
    ) -> Optional[NLEvent]:
        try:
            msg = self.get_message(timeout=timeout, auto_ack=True)
        except ConnectionLostError:
            self.reconnect()
            return None
        return None if msg is None else EventConsumer.as_event(msg)

    def ack(self, message: Message) -> None:
        self.ack_many([message])

    def ack_many(self, messages: Iterable[Message]) -> None:
        """Settle a whole committed batch with one frame.

        The server drops, tag by tag, any it no longer knows (requeued
        by a disconnect or a rebalance); those redeliver and settle
        through the normal path.
        """
        tags = [m.delivery_tag for m in messages]
        if tags:
            self._send({"op": "ack", "tags": tags})

    def nack(self, message: Message, requeue: bool = True) -> None:
        self._send(
            {"op": "nack", "tag": message.delivery_tag, "requeue": requeue}
        )

    def _send(self, frame: Dict[str, object]) -> None:
        if self._conn is None or self._sub is None:
            raise ConnectionLostError("not connected to bus server")
        try:
            # fire-and-forget, like in-process acks
            self._conn.send(dict(frame, sub=self._sub))
        except OSError as exc:
            raise self._lost(str(exc)) from None

    def depth(self) -> int:
        """Messages awaiting this consumer: what it has prefetched plus
        the server-side queue as of the last ``get`` reply (asked for
        afresh only when there has been none since subscribing)."""
        queued = self._depth
        if queued is None:
            queued = int(self._request({"op": "depth"}).get("depth", 0))  # type: ignore[arg-type]
        return queued + len(self._prefetched)

    def drain(self) -> List[NLEvent]:
        """Everything currently queued, settled with one ack at the end
        (a connection lost on the way loses nothing: it all redelivers)."""
        msgs: List[Message] = []
        while True:
            msg = self.get_message(timeout=0.0)
            if msg is None:
                break
            msgs.append(msg)
        self.ack_many(msgs)
        return [EventConsumer.as_event(m) for m in msgs]

    def __iter__(self) -> Iterator[NLEvent]:
        """Currently-available events (non-blocking), fetched in batches
        and each acked as it is handed over — a caller that stops early
        leaves the rest unacked, to be delivered by the next call."""
        while True:
            msg = self.get_message(timeout=0.0)
            if msg is None:
                return
            self.ack(msg)
            yield EventConsumer.as_event(msg)

    def cancel(self) -> None:
        if self._conn is None or self._sub is None:
            return
        try:
            self._request({"op": "cancel"})
        except (ConnectionLostError, ValueError):
            pass
        self._teardown()

    close = cancel


def connect_publisher(
    bus: Union[str, Broker],
    exchange: str = DEFAULT_EXCHANGE,
    publisher_id: Optional[str] = None,
) -> Union[EventPublisher, RemotePublisher]:
    """Publisher for either an in-process broker or a ``tcp://`` url."""
    if isinstance(bus, str):
        return RemotePublisher(bus, exchange=exchange, publisher_id=publisher_id)
    return EventPublisher(bus, exchange=exchange, publisher_id=publisher_id)
