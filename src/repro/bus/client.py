"""NetLogger-event publishers over the message bus.

The engines publish :class:`~repro.netlogger.events.NLEvent` objects using
the event name as the AMQP routing key; consumers (the loader, dashboards,
anomaly detectors) subscribe with topic patterns.  This module provides the
thin event-aware client layer plus a file-or-bus abstraction both engines'
appenders share.
"""
from __future__ import annotations

import itertools
import time
from typing import Iterable, Iterator, List, Optional

from repro.bus.broker import (
    DEFAULT_EXCHANGE,
    DEFAULT_POLL_TIMEOUT,
    Broker,
    ConnectionLostError,
    Consumer,
)
from repro.bus.queues import Message
from repro.bus.reliable import HEADER_PUBLISHER, HEADER_SEQ
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import BPWriter
from repro.obs.spans import (
    CLOCK_EPOCH,
    HEADER_CLOCK_EPOCH,
    HEADER_PUB_MONO,
    HEADER_PUB_TS,
    HEADER_TRACE,
    new_trace_id,
)

__all__ = ["EventPublisher", "EventConsumer", "EventSink", "BusSink", "FileSink", "MultiSink"]

#: process-wide counter giving each publisher a distinct default identity
_publisher_ids = itertools.count(1)


class EventPublisher:
    """Publishes NLEvents to a broker, keyed by their event name.

    Every message carries ``(publisher id, sequence)`` headers (sequences
    start at 1) so consumers can restore publish order and drop duplicate
    deliveries end-to-end — see :mod:`repro.bus.reliable`.  Stamped
    messages additionally carry a correlation id and a publish wall-clock
    timestamp (:mod:`repro.obs.spans`) so downstream stages can measure
    end-to-end pipeline latency.  Pass ``stamp=False`` for raw
    fire-and-forget publishing.
    """

    def __init__(
        self,
        broker: Broker,
        exchange: str = DEFAULT_EXCHANGE,
        publisher_id: Optional[str] = None,
        stamp: bool = True,
    ):
        self._broker = broker
        self._exchange = exchange
        self.publisher_id = publisher_id or f"pub-{next(_publisher_ids)}"
        self._stamp = stamp
        self.events_published = 0

    def publish(self, event: NLEvent) -> int:
        self.events_published += 1
        headers = (
            {
                HEADER_PUBLISHER: self.publisher_id,
                HEADER_SEQ: self.events_published,
                HEADER_TRACE: new_trace_id(),
                # the wall clock is the only clock a *remote* consumer
                # shares with us; the monotonic stamp (plus the epoch
                # identifying its base) lets a same-process consumer
                # measure latency immune to wall-clock adjustment
                HEADER_PUB_TS: time.time(),
                HEADER_PUB_MONO: time.monotonic(),
                HEADER_CLOCK_EPOCH: CLOCK_EPOCH,
            }
            if self._stamp
            else None
        )
        return self._broker.publish(
            event.event, event, exchange=self._exchange, headers=headers
        )

    def publish_all(self, events: Iterable[NLEvent]) -> int:
        count = 0
        for event in events:
            self.publish(event)
            count += 1
        return count


class EventConsumer:
    """Receives NLEvents from a topic subscription.

    Survives broker connection loss: :meth:`get` transparently
    re-subscribes (redeclaring the queue and binding) and carries on;
    :meth:`get_message` lets :class:`ConnectionLostError` propagate so
    batch consumers can settle in-flight work first, then call
    :meth:`reconnect` themselves.  ``reconnects`` counts recoveries.
    """

    def __init__(
        self,
        broker: Broker,
        pattern: str = "stampede.#",
        queue_name: Optional[str] = None,
        exchange: str = DEFAULT_EXCHANGE,
        durable: bool = False,
        max_length: Optional[int] = None,
        overflow: str = "drop-oldest",
    ):
        self._broker = broker
        self._pattern = pattern
        self._exchange = exchange
        self._durable = durable
        self._max_length = max_length
        self._overflow = overflow
        self.reconnects = 0
        self._consumer: Consumer = broker.subscribe(
            pattern,
            queue_name=queue_name,
            exchange=exchange,
            durable=durable,
            # a durable queue must survive its consumer disconnecting —
            # that is the whole point of declaring it durable
            auto_delete=not durable,
            max_length=max_length,
            overflow=overflow,
        )
        # remember the resolved name so a reconnect reattaches to the
        # same (durable) queue rather than an anonymous fresh one
        self._queue_name = self._consumer.queue_name

    @property
    def queue_name(self) -> str:
        return self._consumer.queue_name

    @property
    def connected(self) -> bool:
        return not self._consumer.disconnected

    def reconnect(self) -> None:
        """Re-subscribe after a connection loss (queue + binding redeclare).

        The broker requeued whatever was unacked at disconnect time, so
        those messages arrive again flagged ``redelivered``.
        """
        self.reconnects += 1
        self._consumer = self._broker.subscribe(
            self._pattern,
            queue_name=self._queue_name,
            exchange=self._exchange,
            durable=self._durable,
            auto_delete=not self._durable,
            max_length=self._max_length,
            overflow=self._overflow,
        )

    def get(
        self, timeout: Optional[float] = DEFAULT_POLL_TIMEOUT
    ) -> Optional[NLEvent]:
        try:
            msg = self._consumer.get(timeout=timeout)
        except ConnectionLostError:
            self.reconnect()
            return None
        return None if msg is None else _as_event(msg.body)

    def get_message(
        self,
        timeout: Optional[float] = DEFAULT_POLL_TIMEOUT,
        auto_ack: bool = True,
    ) -> Optional[Message]:
        """Raw message access (delivery tag + body) for at-least-once
        consumers that want to ack only after their batch commits.

        ``timeout`` follows :meth:`repro.bus.broker.Consumer.get`:
        ``None`` blocks, ``0`` polls, a positive value waits that long.
        Raises :class:`ConnectionLostError` on a dropped connection —
        batch consumers must flush/settle, then :meth:`reconnect`.
        """
        return self._consumer.get(timeout=timeout, auto_ack=auto_ack)

    def ack(self, message: Message) -> None:
        self._consumer.ack(message)

    def ack_many(self, messages: Iterable[Message]) -> None:
        """Settle a committed batch in one call.

        A tag the queue no longer knows (requeued by a disconnect) is
        skipped: its redelivery settles through the normal path.
        """
        for message in messages:
            try:
                self._consumer.ack(message)
            except ValueError:
                pass

    def nack(self, message: Message, requeue: bool = True) -> None:
        self._consumer.nack(message, requeue=requeue)

    def depth(self) -> int:
        """Current queue depth (messages awaiting delivery)."""
        return self._consumer.depth()

    @staticmethod
    def as_event(message: Message, fast: bool = True) -> NLEvent:
        return _as_event(message.body, fast)

    def drain(self) -> List[NLEvent]:
        return [_as_event(m.body) for m in self._consumer.drain()]

    def __iter__(self) -> Iterator[NLEvent]:
        for msg in self._consumer:
            yield _as_event(msg.body)

    def cancel(self) -> None:
        self._consumer.cancel()


def _as_event(body: object, fast: bool = True) -> NLEvent:
    if isinstance(body, NLEvent):
        return body
    if isinstance(body, str):
        return NLEvent.from_bp(body, fast)
    raise TypeError(f"cannot interpret message body as NLEvent: {type(body)!r}")


class EventSink:
    """Where an engine's appender writes events (file, bus, or both)."""

    def emit(self, event: NLEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class BusSink(EventSink):
    """Sink that publishes events onto the message bus ("Rabbit Appender")."""

    def __init__(self, broker: Broker, exchange: str = DEFAULT_EXCHANGE):
        self._publisher = EventPublisher(broker, exchange)

    def emit(self, event: NLEvent) -> None:
        self._publisher.publish(event)

    @property
    def events_published(self) -> int:
        return self._publisher.events_published


class FileSink(EventSink):
    """Sink that appends BP lines to a log file."""

    def __init__(self, path, flush_every: int = 1):
        self._writer = BPWriter(path, flush_every=flush_every)

    def emit(self, event: NLEvent) -> None:
        self._writer.write(event)

    @property
    def events_written(self) -> int:
        return self._writer.events_written

    def close(self) -> None:
        self._writer.close()


class MultiSink(EventSink):
    """Fan-out to several sinks (e.g. file for post-mortem + bus for live)."""

    def __init__(self, *sinks: EventSink):
        self._sinks = list(sinks)

    def emit(self, event: NLEvent) -> None:
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()
