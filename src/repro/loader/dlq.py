"""Loader dead-letter queue: poison events are quarantined, not fatal.

A *poison* event — unparseable BP, a schema violation, an ordering
violation in strict mode — used to abort the whole batch.  With a
:class:`DeadLetterQueue` attached, the bus consumption loop instead:

* records the offending payload, the error, and its provenance in an
  ancillary ``loader_dlq`` table of the archive (immediately, in its own
  transaction — a poison event must not ride the batch it poisoned);
* republishes it onto the broker's dead-letter queue
  (``stampede.dlq``) when a broker is attached, so live tooling can
  watch the poison stream;
* acks the message and moves on — the batch commits without it.

Quarantined events stay recoverable: ``entries()`` returns them with
their errors for post-mortem replay, mirroring how the broker handles
unroutable publishes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.bus.broker import DEAD_LETTER_QUEUE, Broker
from repro.orm import Column, Integer, Query, Real, Table, Text

__all__ = ["DLQ_TABLE", "DeadLetter", "DeadLetterQueue"]

DLQ_TABLE = Table(
    "loader_dlq",
    [
        Column("dlq_id", Integer(), primary_key=True),
        Column("source", Text()),
        Column("routing_key", Text()),
        Column("body", Text()),
        Column("error", Text()),
        Column("ts", Real()),
    ],
)


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined event."""

    dlq_id: int
    source: str
    routing_key: str
    body: str
    error: str
    ts: float


class DeadLetterQueue:
    """Quarantine store for events the loader cannot archive."""

    def __init__(
        self,
        archive,
        source: str = "",
        broker: Optional[Broker] = None,
    ):
        self.archive = archive
        self.source = str(source)
        self.broker = broker
        archive.db.create_tables([DLQ_TABLE])
        self._next_id = int(archive.db.max_value(DLQ_TABLE, "dlq_id") or 0) + 1
        self.quarantined = 0

    def quarantine(self, body: object, error: str, routing_key: str = "") -> int:
        """Record one poison event; returns its dlq_id."""
        dlq_id = self._next_id
        self._next_id += 1
        self.archive.db.insert(
            DLQ_TABLE,
            {
                "dlq_id": dlq_id,
                "source": self.source,
                "routing_key": str(routing_key),
                "body": str(body),
                "error": str(error),
                "ts": time.time(),
            },
        )
        self.quarantined += 1
        if self.broker is not None:
            # straight to the DLQ queue — poison must not re-route through
            # bindings back into the consumer that rejected it
            self.broker.declare_queue(DEAD_LETTER_QUEUE, durable=True).put(
                routing_key or "loader.poison",
                str(body),
                headers={"x-death": "poison", "x-error": str(error)},
            )
        return dlq_id

    def count(self) -> int:
        return self.archive.db.count(DLQ_TABLE)

    def entries(self) -> List[DeadLetter]:
        rows = self.archive.db.select(Query(DLQ_TABLE).order_by("dlq_id"))
        return [
            DeadLetter(
                dlq_id=int(r["dlq_id"]),
                source=str(r.get("source") or ""),
                routing_key=str(r.get("routing_key") or ""),
                body=str(r.get("body") or ""),
                error=str(r.get("error") or ""),
                ts=float(r.get("ts") or 0.0),
            )
            for r in rows
        ]
