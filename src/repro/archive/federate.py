"""Federated read layer: one query surface over N archive sources.

A shard set (``repro.archive.shard``) splits the write path across
independent :class:`~repro.archive.store.StampedeArchive` files, each
with its own surrogate-key sequences.  Readers must not care:
:class:`FederatedArchive` exposes the same ``query``/``count`` surface
as a single archive, fanning every query out to all sources and merging
the results, so :class:`repro.query.api.StampedeQuery`,
``workflow_statistics``, the dashboard, and ``canonical_dump`` work
unchanged on a shard set.

The one thing that cannot federate as-is are the surrogate ids: shard 0
and shard 1 both hand out ``wf_id=1``.  Federated results therefore
remap every id column into a global namespace::

    global_id = local_id * n_sources + source_index

which is bijective (``divmod(global_id, n_sources)`` recovers the local
id and the source), stable for a fixed source list, and — because every
id column of every entity is remapped with the same rule — keeps foreign
keys consistent across the federated result set.  Queries *against* id
columns are translated back: an ``=``/``in``/``!=`` condition on an id
column is decoded and routed to the source that owns it.  Range
comparisons on id columns are refused loudly — global ids interleave
sources, so ``wf_id > x`` has no meaningful federated reading.

The federation is strictly read-only; every write entry point raises
:class:`FederationError`.
"""
from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

from repro.archive.store import StampedeArchive, _to_row
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

__all__ = ["FederatedArchive", "FederationError"]

T = TypeVar("T")


def _sort_key(value: Any) -> Tuple[int, Any]:
    """None sorts first, then type-grouped values (mirrors sqlite NULL order)."""
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


#: per-entity surrogate-id columns (primary keys and foreign keys alike);
#: every one of these is remapped into the global id namespace
_ID_COLUMNS: Dict[type, Tuple[str, ...]] = {
    WorkflowRow: ("wf_id", "parent_wf_id", "root_wf_id"),
    WorkflowStateRow: ("wf_id",),
    TaskRow: ("task_id", "wf_id", "job_id"),
    TaskEdgeRow: ("wf_id",),
    JobRow: ("job_id", "wf_id"),
    JobEdgeRow: ("wf_id",),
    JobInstanceRow: ("job_instance_id", "job_id", "host_id", "subwf_id"),
    JobStateRow: ("job_instance_id",),
    InvocationRow: ("invocation_id", "job_instance_id", "wf_id"),
    HostRow: ("host_id", "wf_id"),
    ObsEventRow: ("obs_id",),
    RollupWorkflowRow: ("wf_id", "parent_wf_id", "root_wf_id"),
    RollupTypeRow: ("wf_id",),
    RollupHostRow: ("wf_id",),
    RollupHostBucketRow: ("wf_id",),
    RollupMetaRow: (),
}


class FederationError(RuntimeError):
    """A query or write the federated layer cannot honor."""


class FederatedArchive:
    """Read-only query surface over an ordered list of archives.

    The source *order* is part of the id-namespace contract: the same
    sources in a different order produce different global ids.  A shard
    set always passes its shards in shard order, so global ids are
    stable across re-opens.
    """

    def __init__(self, sources: Sequence[StampedeArchive]):
        if not sources:
            raise FederationError("a federation needs at least one source")
        self.sources: List[StampedeArchive] = list(sources)

    # -- id namespace -------------------------------------------------------
    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def encode_id(self, local_id: int, source_index: int) -> int:
        return local_id * len(self.sources) + source_index

    def decode_id(self, global_id: int) -> Tuple[int, int]:
        """``global_id -> (local_id, source_index)``."""
        return divmod(global_id, len(self.sources))

    # -- read surface (mirrors StampedeArchive) -----------------------------
    def query(self, entity_type: Type[T]) -> "FederatedEntityQuery[T]":
        return FederatedEntityQuery(self, entity_type)

    def count(self, entity_type: type) -> int:
        return sum(source.count(entity_type) for source in self.sources)

    def close(self) -> None:
        for source in self.sources:
            source.close()

    # -- write surface: refused ---------------------------------------------
    def _read_only(self, op: str) -> FederationError:
        return FederationError(
            f"FederatedArchive is read-only ({op} refused); "
            "write through the owning shard instead"
        )

    def insert(self, entity: Any) -> None:
        raise self._read_only("insert")

    def insert_many(self, entities: Any) -> int:
        raise self._read_only("insert_many")

    def update(self, entity_type: type, values: Any, where: Any) -> int:
        raise self._read_only("update")

    def delete(self, entity_type: type, where: Any) -> int:
        raise self._read_only("delete")

    def next_id(self, table_name: str) -> int:
        raise self._read_only("next_id")

    def transaction(self):
        raise self._read_only("transaction")


class FederatedEntityQuery:
    """EntityQuery-compatible fan-out/merge over federation sources.

    Conditions on id columns are decoded and routed; all other
    conditions replicate to every source verbatim.  Ordering is applied
    globally after the merge (same stable multi-key semantics as the
    ORM's ``Query.apply``), then offset/limit.
    """

    def __init__(self, federation: FederatedArchive, entity_type: Type[T]):
        self._federation = federation
        self._entity_type = entity_type
        self._conds: List[Tuple[str, str, Any]] = []
        self._order: List[Tuple[str, bool]] = []
        self._limit: Optional[int] = None
        self._offset: int = 0

    # -- builder (same fluent surface as EntityQuery) -----------------------
    def where(self, column: str, op: str, value: Any) -> "FederatedEntityQuery[T]":
        id_columns = _ID_COLUMNS[self._entity_type]
        if column in id_columns and op not in ("=", "!=", "in"):
            raise FederationError(
                f"cannot federate {op!r} on id column {column!r}: global "
                "ids interleave sources, so range comparisons have no "
                "meaningful shard-set reading"
            )
        self._conds.append((column, op, value))
        return self

    def eq(self, column: str, value: Any) -> "FederatedEntityQuery[T]":
        return self.where(column, "=", value)

    def order_by(
        self, column: str, descending: bool = False
    ) -> "FederatedEntityQuery[T]":
        self._order.append((column, descending))
        return self

    def limit(self, count: int, offset: int = 0) -> "FederatedEntityQuery[T]":
        self._limit = count
        self._offset = offset
        return self

    def copy(self) -> "FederatedEntityQuery[T]":
        clone = FederatedEntityQuery(self._federation, self._entity_type)
        clone._conds = list(self._conds)
        clone._order = list(self._order)
        clone._limit = self._limit
        clone._offset = self._offset
        return clone

    # -- condition routing --------------------------------------------------
    def _source_query(self, source_index: int):
        """Translate this query's conditions for one source.

        Returns the source's EntityQuery, or None when a routed id
        condition proves no row in this source can match.
        """
        fed = self._federation
        n = fed.n_sources
        id_columns = _ID_COLUMNS[self._entity_type]
        query = fed.sources[source_index].query(self._entity_type)
        for column, op, value in self._conds:
            if column not in id_columns or value is None:
                query.where(column, op, value)
                continue
            if op == "=":
                local, idx = divmod(value, n)
                if idx != source_index:
                    return None
                query.eq(column, local)
            elif op == "in":
                locals_here = [
                    lv for lv, idx in (divmod(v, n) for v in value)
                    if idx == source_index
                ]
                if not locals_here:
                    return None
                query.where(column, "in", locals_here)
            else:  # "!=": only the owning source needs the exclusion
                local, idx = divmod(value, n)
                if idx == source_index:
                    query.where(column, "!=", local)
        return query

    def _remap(self, entity: T, source_index: int) -> T:
        fed = self._federation
        row = _to_row(entity)
        for column in _ID_COLUMNS[self._entity_type]:
            value = row.get(column)
            if value is not None:
                row[column] = fed.encode_id(value, source_index)
        return self._entity_type(**row)

    # -- execution ----------------------------------------------------------
    def all(self) -> List[T]:
        fed = self._federation
        merged: List[T] = []
        for index in range(fed.n_sources):
            query = self._source_query(index)
            if query is None:
                continue
            if self._limit is not None and not self._order:
                # unordered + limited: each source needs at most the
                # first offset+limit matches in its own insertion order
                query.limit(self._limit + self._offset)
            merged.extend(self._remap(e, index) for e in query.all())
        if self._order:
            # stable multi-key sort (keys applied in reverse significance
            # order), on the *remapped* values so id ordering is globally
            # consistent
            for column, descending in reversed(self._order):
                merged.sort(
                    key=lambda e: _sort_key(getattr(e, column, None)),
                    reverse=descending,
                )
        if self._offset or self._limit is not None:
            end = None if self._limit is None else self._offset + self._limit
            merged = merged[self._offset:end]
        return merged

    def first(self) -> Optional[T]:
        results = self.copy().limit(1).all()
        return results[0] if results else None

    def count(self) -> int:
        if self._limit is not None or self._offset:
            return len(self.all())
        total = 0
        for index in range(self._federation.n_sources):
            query = self._source_query(index)
            if query is not None:
                total += query.count()
        return total
