"""Durable loader checkpoints: crash mid-run, resume without duplicates.

A checkpoint row lives in the *same* database as the archive rows, in an
ancillary ``loader_checkpoint`` table (not part of the paper's Fig. 3
schema).  :meth:`CheckpointManager.save` is called by the loader inside
the flush transaction, so "batch N is committed" and "the checkpoint
points past batch N" are one atomic fact — there is no window where rows
are durable but the checkpoint is stale, which is what makes a restarted
``nl-load`` / ``monitord`` produce zero duplicate rows.

The checkpoint records:

* ``position`` — how far into the source we have durably consumed: a
  byte offset for BP files, a delivery tag for bus queues;
* ``state`` — a small JSON blob of what the archive cannot tell a fresh
  process: parked sub-workflow maps, stats counters and, on the bus
  path, the per-publisher resequencer floors.  Not the resolver caches:
  any loader warms a running workflow from its committed rows, and keys
  continue from ``MAX(id) + 1``, the ones the dead process would issue.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.orm import Column, Integer, Query, Real, Table, Text

__all__ = ["CHECKPOINT_TABLE", "Checkpoint", "CheckpointManager"]

CHECKPOINT_TABLE = Table(
    "loader_checkpoint",
    [
        Column("source", Text(), primary_key=True),
        Column("position", Integer(), default=0),
        Column("state", Text()),
        Column("updated", Real()),
    ],
)


@dataclass(frozen=True)
class Checkpoint:
    """One persisted loader position: source id, offset/tag, state blob."""

    source: str
    position: int
    state: Dict[str, Any]
    updated: float


class CheckpointManager:
    """Reads and writes the per-source checkpoint row of one archive."""

    def __init__(self, archive, source: str):
        self.archive = archive
        self.source = str(source)
        archive.db.create_tables([CHECKPOINT_TABLE])

    def load(self) -> Optional[Checkpoint]:
        rows = self.archive.db.select(
            Query(CHECKPOINT_TABLE).eq("source", self.source)
        )
        if not rows:
            return None
        row = rows[0]
        state = json.loads(row["state"]) if row.get("state") else {}
        return Checkpoint(
            source=row["source"],
            position=int(row.get("position") or 0),
            state=state,
            updated=float(row.get("updated") or 0.0),
        )

    def save(self, position: int, state: Dict[str, Any]) -> None:
        """Upsert the checkpoint row.

        Call this inside an open archive transaction: the position must
        only become visible together with the rows it accounts for.
        """
        values = {
            "position": int(position or 0),
            "state": json.dumps(state, separators=(",", ":")),
            "updated": time.time(),
        }
        changed = self.archive.db.update(
            CHECKPOINT_TABLE, values, {"source": self.source}
        )
        if not changed:
            self.archive.db.insert(
                CHECKPOINT_TABLE, {"source": self.source, **values}
            )
