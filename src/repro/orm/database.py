"""The database backend of the mini-ORM: sqlite3.

Connection strings follow the SQLAlchemy convention the paper's loader
used on its command line::

    sqlite:///test.db      -> sqlite file
    sqlite:///:memory:     -> sqlite in memory

:meth:`SqliteDatabase.transaction` scopes statements explicitly:
everything issued inside the context manager commits (or rolls back) as
one unit, which is what lets the loader turn a batch of inserts plus
its coalesced updates into a single fsync on a file database.  Outside
a transaction each statement auto-commits, preserving the original
per-statement durability.
"""
from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.orm.query import Query
from repro.orm.table import Table

__all__ = ["SqliteDatabase", "connect"]


class SqliteDatabase:
    """sqlite3-backed storage; thread-safe via a reentrant connection lock.

    File-backed databases run in WAL mode with NORMAL synchronous and a
    generous page cache — the tuning the high-rate loader path needs.
    The connection runs in autocommit mode; :meth:`transaction` issues
    explicit BEGIN IMMEDIATE / COMMIT / ROLLBACK and holds the lock for
    the whole scope, so a loader flush is one write transaction even
    with reader threads around.

    Each connection keeps a **max-id cache**: the first
    :meth:`max_value` call per (table, column) runs the real aggregate
    and subsequent calls are O(1) dict hits, kept current by the insert
    paths.  Without it, every component that seeds a surrogate-key
    sequence over the same connection (archive sequences, the loader
    DLQ, checkpoint recovery) re-derives the maximum from scratch.
    """

    #: Exception types a caller may treat as transient and retry.
    TRANSIENT_ERRORS = (sqlite3.OperationalError,)

    def __init__(self, path: str = ":memory:"):
        # (table_name, column_name) -> current max (never None once set)
        self._max_cache: Dict[tuple, Any] = {}
        self.path = path
        # isolation_level=None -> autocommit; transactions are explicit.
        self._conn = sqlite3.connect(
            path, check_same_thread=False, isolation_level=None
        )
        self._lock = threading.RLock()
        self._txn_depth = 0
        # SQL text cache: building INSERT/UPDATE strings per call is pure
        # Python overhead on the hot insert path; statements are keyed by
        # (kind, table, column names) and reused forever.
        self._stmt_cache: Dict[tuple, str] = {}
        self._apply_pragmas()

    def _apply_pragmas(self) -> None:
        cur = self._conn.cursor()
        if self.path not in (":memory:", ""):
            cur.execute("PRAGMA journal_mode=WAL")
            cur.execute("PRAGMA synchronous=NORMAL")
        cur.execute("PRAGMA temp_store=MEMORY")
        cur.execute("PRAGMA cache_size=-65536")  # 64 MiB page cache

    # -- max-id cache maintenance -----------------------------------------
    def _bump_max_cache(self, table: Table, rows: Iterable[Dict[str, Any]]) -> None:
        """Fold freshly inserted rows into any cached maxima for ``table``."""
        if not self._max_cache:
            return
        for (tname, column), current in list(self._max_cache.items()):
            if tname != table.name:
                continue
            best = current
            for row in rows:
                value = row.get(column)
                if value is not None and (best is None or value > best):
                    best = value
            self._max_cache[(tname, column)] = best

    def _drop_max_cache(self, table_name: Optional[str] = None) -> None:
        """Invalidate cached maxima (all, or one table's) after a rollback
        or an update that may have touched a cached column."""
        if table_name is None:
            self._max_cache.clear()
        else:
            for key in [k for k in self._max_cache if k[0] == table_name]:
                del self._max_cache[key]

    @contextmanager
    def transaction(self) -> Iterator["SqliteDatabase"]:
        """Scope a group of statements into one atomic commit.

        Nested calls join the outermost transaction.
        """
        with self._lock:
            self._txn_depth += 1
            outermost = self._txn_depth == 1
            if outermost:
                self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self
            except BaseException:
                if outermost:
                    self._conn.rollback()
                    # inserts inside the aborted scope may have bumped
                    # cached maxima past what is durable
                    self._drop_max_cache()
                raise
            else:
                if outermost:
                    self._conn.commit()
            finally:
                self._txn_depth -= 1

    def create_tables(self, tables: Sequence[Table]) -> None:
        with self._lock:
            cur = self._conn.cursor()
            for table in tables:
                cur.execute(table.create_sql())
                for stmt in table.index_sql():
                    cur.execute(stmt)

    def _insert_sql(self, table: Table, names: Sequence[str]) -> str:
        key = ("insert", table.name, tuple(names))
        sql = self._stmt_cache.get(key)
        if sql is None:
            sql = self._stmt_cache[key] = (
                f"INSERT INTO {table.name} ({', '.join(names)}) "
                f"VALUES ({', '.join('?' for _ in names)})"
            )
        return sql

    def insert(self, table: Table, row: Dict[str, Any]) -> None:
        coerced = table.coerce_row(row)
        names = list(coerced)
        sql = self._insert_sql(table, names)
        with self._lock:
            self._conn.execute(sql, [coerced[n] for n in names])
            self._bump_max_cache(table, (coerced,))

    def insert_many(self, table: Table, rows: Iterable[Dict[str, Any]]) -> int:
        coerced = [table.coerce_row(r) for r in rows]
        if not coerced:
            return 0
        names = table.column_names()
        sql = self._insert_sql(table, names)
        params = [[row.get(n) for n in names] for row in coerced]
        with self._lock:
            self._conn.executemany(sql, params)
            self._bump_max_cache(table, coerced)
        return len(coerced)

    def select(self, query: Query) -> List[Dict[str, Any]]:
        sql, params = query.to_sql()
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [query.table.from_storage(r) for r in rows]

    def update(
        self, table: Table, values: Dict[str, Any], where: Dict[str, Any]
    ) -> int:
        if not values:
            return 0
        set_names = list(values)
        where_names = list(where)
        key = ("update", table.name, tuple(set_names), tuple(where_names))
        sql = self._stmt_cache.get(key)
        if sql is None:
            sql = self._stmt_cache[key] = (
                f"UPDATE {table.name} SET "
                + ", ".join(f"{n} = ?" for n in set_names)
                + (
                    " WHERE " + " AND ".join(f"{n} = ?" for n in where_names)
                    if where_names
                    else ""
                )
            )
        params = [
            table.by_name[n].type.to_storage(values[n]) for n in set_names
        ] + [table.by_name[n].type.to_storage(where[n]) for n in where_names]
        with self._lock:
            cur = self._conn.execute(sql, params)
            if any((table.name, n) in self._max_cache for n in set_names):
                self._drop_max_cache(table.name)
            return cur.rowcount

    def delete(self, table: Table, where: Dict[str, Any]) -> int:
        """Delete rows matching ``where`` (a list/tuple/set value means IN).

        Returns the number of rows removed.  The tiering migration is the
        intended caller: it moves finished workflows out of a hot shard,
        so deletes are whole-tree, cold-path operations — no statement
        cache, and cached maxima for the table are simply dropped.
        """
        query = Query(table)
        for name, value in where.items():
            if isinstance(value, (list, tuple, set, frozenset)):
                if not value:
                    return 0  # IN () matches nothing
                query.where(name, "in", value)
            else:
                query.eq(name, value)
        clause, params = query.where_sql()
        with self._lock:
            cur = self._conn.execute(f"DELETE FROM {table.name}{clause}", params)
            if cur.rowcount:
                self._drop_max_cache(table.name)
            return cur.rowcount

    def count(self, table: Table) -> int:
        with self._lock:
            (n,) = self._conn.execute(f"SELECT COUNT(*) FROM {table.name}").fetchone()
        return int(n)

    def count_where(self, query: Query) -> int:
        """COUNT(*) of the rows matching the query's predicates."""
        sql, params = query.to_count_sql()
        with self._lock:
            (n,) = self._conn.execute(sql, params).fetchone()
        return int(n)

    def max_value(self, table: Table, column: str) -> Optional[Any]:
        """MAX(column) over the table, or None if the table is empty."""
        if column not in table.by_name:
            raise ValueError(f"no column {column!r} in table {table.name!r}")
        key = (table.name, column)
        with self._lock:
            if key in self._max_cache:
                value = self._max_cache[key]
            else:
                (value,) = self._conn.execute(
                    f"SELECT MAX({column}) FROM {table.name}"
                ).fetchone()
                self._max_cache[key] = value
        return None if value is None else table.by_name[column].type.from_storage(value)

    def pragma(self, name: str) -> Any:
        """Read one PRAGMA value (introspection for tests/diagnostics)."""
        with self._lock:
            row = self._conn.execute(f"PRAGMA {name}").fetchone()
        return row[0] if row else None

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def connect(conn_string: str) -> SqliteDatabase:
    """Open a database from a SQLAlchemy-style connection string."""
    if conn_string.startswith("sqlite:///"):
        return SqliteDatabase(conn_string[len("sqlite:///") :] or ":memory:")
    raise ValueError(
        f"unsupported connection string {conn_string!r}; use 'sqlite:///PATH'"
    )
