"""StampedeArchive: typed access to the relational archive.

Wraps a :class:`~repro.orm.SqliteDatabase` with the Fig. 3 tables, surrogate-key
sequences, and entity-typed insert/fetch helpers.  The loader performs the
event-to-row normalization; the query interface reads through this class.
"""
from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.archive import ddl
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    ObsEventRow,
    RollupHostBucketRow,
    RollupHostRow,
    RollupMetaRow,
    RollupTypeRow,
    RollupWorkflowRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.orm import Query, SqliteDatabase, Table, connect

__all__ = ["StampedeArchive"]

T = TypeVar("T")

_ENTITY_TABLE = {
    WorkflowRow: ddl.WORKFLOW,
    WorkflowStateRow: ddl.WORKFLOWSTATE,
    TaskRow: ddl.TASK,
    TaskEdgeRow: ddl.TASK_EDGE,
    JobRow: ddl.JOB,
    JobEdgeRow: ddl.JOB_EDGE,
    JobInstanceRow: ddl.JOB_INSTANCE,
    JobStateRow: ddl.JOBSTATE,
    InvocationRow: ddl.INVOCATION,
    HostRow: ddl.HOST,
    ObsEventRow: ddl.OBS_EVENT,
    RollupWorkflowRow: ddl.ROLLUP_WORKFLOW,
    RollupTypeRow: ddl.ROLLUP_TYPE,
    RollupHostRow: ddl.ROLLUP_HOST,
    RollupHostBucketRow: ddl.ROLLUP_HOST_BUCKET,
    RollupMetaRow: ddl.ROLLUP_META,
}


class StampedeArchive:
    """The relational archive: one database plus schema + sequences."""

    def __init__(self, database: Optional[SqliteDatabase] = None):
        self.db = database if database is not None else connect("sqlite:///:memory:")
        self.db.create_tables(ddl.ALL_TABLES)
        self._sequences: Dict[str, itertools.count] = {}
        self._seq_lock = threading.Lock()
        # self-monitoring hooks (repro.obs); None keeps the write path
        # free of any instrumentation cost
        self._txn_seconds = None
        self._txn_total = None
        self._rows_inserted = None

    def instrument(self, registry) -> "StampedeArchive":
        """Attach a :class:`repro.obs.metrics.MetricsRegistry`.

        Explicit archive transactions are timed into
        ``stampede_archive_transaction_seconds`` and batch inserts
        counted into ``stampede_archive_rows_inserted_total``.
        """
        self._txn_seconds = registry.histogram(
            "stampede_archive_transaction_seconds",
            "Duration of archive write transactions.",
        )
        self._txn_total = registry.counter(
            "stampede_archive_transactions_total",
            "Committed archive write transactions.",
        )
        self._rows_inserted = registry.counter(
            "stampede_archive_rows_inserted_total",
            "Rows written through archive batch inserts.",
        )
        return self

    @classmethod
    def open(cls, conn_string: str) -> "StampedeArchive":
        """Open from a SQLAlchemy-style connection string."""
        return cls(connect(conn_string))

    # -- key generation -----------------------------------------------------
    def next_id(self, table_name: str) -> int:
        """Allocate the next surrogate key for a table.

        Sequences seed from ``MAX(id) + 1``, not row count: with deleted
        rows or two archives reopening the same file the ids are
        non-contiguous and a count-based seed would reissue live keys.
        """
        with self._seq_lock:
            seq = self._sequences.get(table_name)
            if seq is None:
                table = ddl.TABLES[table_name]
                if table.primary_key is not None:
                    current = self.db.max_value(table, table.primary_key.name)
                    start = int(current or 0) + 1
                else:
                    start = self.db.count(table) + 1
                seq = self._sequences[table_name] = itertools.count(start)
            return next(seq)

    # -- generic entity I/O ----------------------------------------------------
    def insert(self, entity: Any) -> None:
        table = _table_for(type(entity))
        self.db.insert(table, _to_row(entity))

    def insert_many(self, entities: Iterable[Any]) -> int:
        """Batch-insert entities: one executemany per type, in the order
        the types are first seen."""
        by_type: Dict[type, List[Any]] = {}
        for entity in entities:
            by_type.setdefault(type(entity), []).append(entity)
        total = 0
        with self.db.transaction():
            for etype, group in by_type.items():
                names, encode = _encoder(etype)
                rows = [encode(entity) for entity in group]
                total += self.db.insert_values(_table_for(etype), names, rows)
        if self._rows_inserted is not None:
            self._rows_inserted.inc(total)
        return total

    def transaction(self):
        """Scope archive writes into one atomic backend transaction.

        With an instrumented archive the scope's duration is observed
        into the transaction histogram (successful commits only — a
        rolled-back scope raises through and is not counted).
        """
        if self._txn_seconds is None:
            return self.db.transaction()
        return self._timed_transaction()

    @contextmanager
    def _timed_transaction(self):
        start = time.perf_counter()
        with self.db.transaction():
            yield self.db
        self._txn_seconds.observe(time.perf_counter() - start)
        self._txn_total.inc()

    def query(self, entity_type: Type[T]) -> "EntityQuery[T]":
        return EntityQuery(self, entity_type)

    def count(self, entity_type: type) -> int:
        return self.db.count(_table_for(entity_type))

    def update(
        self, entity_type: type, values: Dict[str, Any], where: Dict[str, Any]
    ) -> int:
        return self.db.update(_table_for(entity_type), values, where)

    def update_many(
        self,
        entity_type: type,
        updates: Sequence[Tuple[Dict[str, Any], Dict[str, Any]]],
    ) -> int:
        """:meth:`update` for many ``(values, where)`` pairs that name the
        same columns: one executemany.  Returns the rows changed."""
        return self.db.update_many(_table_for(entity_type), updates)

    def upsert_many(self, entities: Sequence[Any], merge: Dict[str, str]) -> int:
        """Insert entities of one type, folding each into the stored row
        with the same key by ``merge``
        (:meth:`~repro.orm.SqliteDatabase.upsert_values`)."""
        if not entities:
            return 0
        etype = type(entities[0])
        names, encode = _encoder(etype)
        rows = [encode(entity) for entity in entities]
        return self.db.upsert_values(_table_for(etype), names, rows, merge)

    def delete(self, entity_type: type, where: Dict[str, Any]) -> int:
        """Delete rows matching ``where``; list values mean SQL ``IN``."""
        return self.db.delete(_table_for(entity_type), where)

    def close(self) -> None:
        self.db.close()


class EntityQuery:
    """Fluent query that materializes entity dataclasses."""

    def __init__(self, archive: StampedeArchive, entity_type: Type[T]):
        self._archive = archive
        self._entity_type = entity_type
        self._query = Query(_table_for(entity_type))

    def where(self, column: str, op: str, value: Any) -> "EntityQuery[T]":
        self._query.where(column, op, value)
        return self

    def eq(self, column: str, value: Any) -> "EntityQuery[T]":
        self._query.eq(column, value)
        return self

    def order_by(self, column: str, descending: bool = False) -> "EntityQuery[T]":
        self._query.order_by(column, descending)
        return self

    def limit(self, count: int, offset: int = 0) -> "EntityQuery[T]":
        self._query.limit(count, offset)
        return self

    def copy(self) -> "EntityQuery[T]":
        clone = EntityQuery(self._archive, self._entity_type)
        clone._query = self._query.copy()
        return clone

    def all(self) -> List[T]:
        rows = self._archive.db.select(self._query)
        return [self._entity_type(**row) for row in rows]

    def first(self) -> Optional[T]:
        # Work on a clone: first() must not mutate this query's limit,
        # or a later .all() on the same object would return one row.
        results = self.copy().limit(1).all()
        return results[0] if results else None

    def count(self) -> int:
        if self._query.limit_count is not None or self._query.offset_count:
            return len(self.all())  # limit/offset semantics need the rows
        return self._archive.db.count_where(self._query)


def _table_for(entity_type: type) -> Table:
    try:
        return _ENTITY_TABLE[entity_type]
    except KeyError:
        raise TypeError(f"not an archive entity type: {entity_type!r}") from None


#: per-entity-type field-name tuples; dataclasses.fields() resolves the
#: class metadata on every call, which dominates the row-building cost
#: at ingest rates — resolve once per type instead.
_FIELD_NAMES: Dict[type, tuple] = {}


def _field_names(etype: type) -> tuple:
    names = _FIELD_NAMES.get(etype)
    if names is None:
        names = _FIELD_NAMES[etype] = tuple(f.name for f in fields(etype))
    return names


def _to_row(entity: Any) -> Dict[str, Any]:
    return {name: getattr(entity, name) for name in _field_names(type(entity))}


#: per-entity-type (field names, entity -> storage values), built on first
#: use: a batch insert reads and converts each entity in one pass
_ENCODERS: Dict[type, Tuple[tuple, Callable[[Any], List[Any]]]] = {}


def _encoder(etype: type) -> Tuple[tuple, Callable[[Any], List[Any]]]:
    found = _ENCODERS.get(etype)
    if found is None:
        names = _field_names(etype)
        encode = _table_for(etype).row_encoder(names)
        values = attrgetter(*names)
        found = _ENCODERS[etype] = (names, lambda entity: encode(values(entity)))
    return found
