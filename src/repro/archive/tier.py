"""Tiering: move finished root workflows into an append-only long-term store.

WMArchive's shape (PAPERS.md): the hot store takes the write load, and a
compacting migration periodically moves *finished* workflows into a
long-term format that queries still reach.  Here the hot store is a
shard set (``repro.archive.shard``) and the long-term tier is a
directory of append-only JSONL segments::

    <shard-dir>/longterm/segment-000001.jsonl

One line per tiered **root workflow**: the full row set of its
hierarchy, keyed by the shard-local surrogate ids the rows had when
archived.  Record-local ids are enough — every foreign key of a
hierarchy resolves inside its own record (that is exactly what routing
by root id guarantees) — so appends need no global sequence and the
segment files never rewrite.  Ids are remapped at *read* time:
:meth:`LongTermStore.open_archive` materializes the segments into an
in-process archive with fresh surrogate ids, which then participates in
the federated query layer as one more source.

Durability contract of :func:`tier_finished`: the segment is written
and flushed *before* the hot-shard rows are deleted (delete runs as one
shard transaction).  A crash in between leaves the workflow present in
both tiers — visible to ``diff_canonical`` as duplicate rows, never as
lost rows.  Telemetry (``obs_event``) is not tiered: it is per-loader
self-monitoring, not workflow history.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.archive import ddl
from repro.archive.store import _ENTITY_TABLE, StampedeArchive, _to_row
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.model.states import WorkflowState

__all__ = ["LongTermStore", "TierError", "TieringReport", "tier_finished"]

SEGMENT_FORMAT = "segment-{:06d}.jsonl"

#: insertion order respecting foreign-key references (parents first);
#: reversed, it is the safe delete order
_TABLE_ORDER = [
    "workflow",
    "host",
    "job",
    "task",
    "task_edge",
    "job_edge",
    "workflowstate",
    "job_instance",
    "jobstate",
    "invocation",
]

#: surrogate-key columns -> the table whose primary key they reference
_ID_REFS = {
    "wf_id": "workflow",
    "parent_wf_id": "workflow",
    "root_wf_id": "workflow",
    "subwf_id": "workflow",
    "job_id": "job",
    "host_id": "host",
    "job_instance_id": "job_instance",
    "task_id": "task",
    "invocation_id": "invocation",
}

_ENTITY_BY_TABLE = {table.name: etype for etype, table in _ENTITY_TABLE.items()}

#: keep IN-lists comfortably under sqlite's bound-variable ceiling
_IN_CHUNK = 500


class TierError(RuntimeError):
    """A long-term record that cannot be materialized or migrated."""


def _chunks(values: Sequence[Any], size: int = _IN_CHUNK) -> Iterator[Sequence[Any]]:
    for start in range(0, len(values), size):
        yield values[start : start + size]


class LongTermStore:
    """Append-only JSONL segment directory for finished workflows."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def segments(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("segment-*.jsonl"))

    def append_segment(self, records: Sequence[Dict[str, Any]]) -> Optional[Path]:
        """Write one new segment holding ``records``; fsync before return."""
        if not records:
            return None
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = self.segments()
        index = 1
        if existing:
            index = int(existing[-1].stem.split("-")[1]) + 1
        path = self.directory / SEGMENT_FORMAT.format(index)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return path

    def records(self) -> Iterator[Dict[str, Any]]:
        for segment in self.segments():
            with open(segment, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        yield json.loads(line)

    def count(self) -> int:
        return sum(1 for _ in self.records())

    def root_uuids(self) -> List[str]:
        return [record["root_wf_uuid"] for record in self.records()]

    def open_archive(self) -> StampedeArchive:
        """Materialize every segment into a fresh in-process archive.

        Each record's local ids are remapped onto the new archive's
        sequences (two passes: allocate every primary key, then rewrite
        the foreign keys) so records from different shards and different
        tiering passes cannot collide.
        """
        archive = StampedeArchive()
        for record in self.records():
            self._materialize(archive, record)
        return archive

    @staticmethod
    def _materialize(archive: StampedeArchive, record: Dict[str, Any]) -> None:
        tables: Dict[str, List[Dict[str, Any]]] = record.get("tables", {})
        id_maps: Dict[str, Dict[int, int]] = {}
        # pass 1: fresh primary keys for every row in the record
        for table_name in _TABLE_ORDER:
            table = ddl.TABLES[table_name]
            pk = table.primary_key
            if pk is None:
                continue
            mapping = id_maps.setdefault(table_name, {})
            for row in tables.get(table_name, ()):
                old = row.get(pk.name)
                if old is not None:
                    mapping[old] = archive.next_id(table_name)
        # pass 2+3: rewrite ids and insert, parents first
        entities: List[Any] = []
        for table_name in _TABLE_ORDER:
            etype = _ENTITY_BY_TABLE[table_name]
            for row in tables.get(table_name, ()):
                rewritten = dict(row)
                for column, value in row.items():
                    ref = _ID_REFS.get(column)
                    if ref is None or value is None:
                        continue
                    try:
                        rewritten[column] = id_maps[ref][value]
                    except KeyError:
                        raise TierError(
                            f"record {record.get('root_wf_uuid')!r}: "
                            f"{table_name}.{column}={value} references a "
                            f"{ref} row missing from the record"
                        ) from None
                entities.append(etype(**rewritten))
        archive.insert_many(entities)


@dataclass
class TieringReport:
    """What one :func:`tier_finished` pass did."""

    scanned_roots: int = 0
    tiered_roots: int = 0
    skipped_roots: int = 0
    rows_moved: int = 0
    rows_by_table: Dict[str, int] = field(default_factory=dict)
    tiered_uuids: List[str] = field(default_factory=list)
    segments: List[str] = field(default_factory=list)


def _descendant_ids(archive: StampedeArchive, root_wf_id: int) -> List[int]:
    """The root and every transitive sub-workflow, by parent links."""
    seen = [root_wf_id]
    frontier = [root_wf_id]
    while frontier:
        children = []
        for chunk in _chunks(frontier):
            children.extend(
                w.wf_id
                for w in archive.query(WorkflowRow)
                .where("parent_wf_id", "in", list(chunk))
                .all()
            )
        frontier = [c for c in children if c not in seen]
        seen.extend(frontier)
    return seen


def _is_finished(archive: StampedeArchive, wf_ids: Sequence[int]) -> bool:
    """Every workflow of the tree has terminated (and none restarted past
    its last termination)."""
    for wf_id in wf_ids:
        states = (
            archive.query(WorkflowStateRow)
            .eq("wf_id", wf_id)
            .order_by("timestamp")
            .all()
        )
        if not states:
            return False
        if states[-1].state != WorkflowState.WORKFLOW_TERMINATED.value:
            return False
    return True


def _in_query(archive: StampedeArchive, etype: type, column: str, ids: Sequence[int]):
    rows: List[Any] = []
    for chunk in _chunks(list(ids)):
        rows.extend(
            archive.query(etype).where(column, "in", list(chunk)).all()
        )
    return rows


def _collect_tree(
    archive: StampedeArchive, wf_ids: Sequence[int]
) -> Dict[str, List[Dict[str, Any]]]:
    workflows = _in_query(archive, WorkflowRow, "wf_id", wf_ids)
    jobs = _in_query(archive, JobRow, "wf_id", wf_ids)
    job_ids = [j.job_id for j in jobs]
    instances = _in_query(archive, JobInstanceRow, "job_id", job_ids)
    ji_ids = [ji.job_instance_id for ji in instances]
    tables: Dict[str, List[Any]] = {
        "workflow": workflows,
        "host": _in_query(archive, HostRow, "wf_id", wf_ids),
        "job": jobs,
        "task": _in_query(archive, _ENTITY_BY_TABLE["task"], "wf_id", wf_ids),
        "task_edge": _in_query(
            archive, _ENTITY_BY_TABLE["task_edge"], "wf_id", wf_ids
        ),
        "job_edge": _in_query(
            archive, _ENTITY_BY_TABLE["job_edge"], "wf_id", wf_ids
        ),
        "workflowstate": _in_query(
            archive, WorkflowStateRow, "wf_id", wf_ids
        ),
        "job_instance": instances,
        "jobstate": _in_query(archive, JobStateRow, "job_instance_id", ji_ids),
        "invocation": _in_query(archive, InvocationRow, "wf_id", wf_ids),
    }
    return {
        name: [_to_row(entity) for entity in rows]
        for name, rows in tables.items()
    }


def _delete_tree(
    archive: StampedeArchive,
    tables: Dict[str, List[Dict[str, Any]]],
) -> int:
    """Remove one hierarchy's rows, children first, in one transaction."""
    from repro.core.rollup import drop_rollups

    deleted = 0
    with archive.transaction():
        # the hierarchy's materialized rollups leave with it (and the
        # rollup commit sequence bumps, so read caches notice)
        wf_ids = [
            r["wf_id"]
            for r in tables.get("workflow", [])
            if r.get("wf_id") is not None
        ]
        drop_rollups(archive, wf_ids)
        for table_name in reversed(_TABLE_ORDER):
            rows = tables.get(table_name, [])
            if not rows:
                continue
            table = ddl.TABLES[table_name]
            pk = table.primary_key
            if pk is not None:
                ids = [r[pk.name] for r in rows if r.get(pk.name) is not None]
                for chunk in _chunks(ids):
                    deleted += archive.delete(
                        _ENTITY_BY_TABLE[table_name], {pk.name: list(chunk)}
                    )
            else:
                # pk-less state/edge tables hang off wf_id or
                # job_instance_id; delete by the parent key set
                key = (
                    "job_instance_id"
                    if table_name == "jobstate"
                    else "wf_id"
                )
                ids = sorted({r[key] for r in rows})
                for chunk in _chunks(ids):
                    deleted += archive.delete(
                        _ENTITY_BY_TABLE[table_name], {key: list(chunk)}
                    )
    return deleted


def tier_finished(
    archives: Union[Iterable[StampedeArchive], Any],
    store: Optional[LongTermStore] = None,
) -> TieringReport:
    """Move every finished root hierarchy out of the hot archives.

    ``archives`` is a list of archives or a ``ShardSet`` (in which case
    ``store`` defaults to the set's ``longterm/`` directory).  Per
    archive: find root workflows (``parent_wf_id IS NULL``) whose whole
    tree has terminated, write them as one durable segment, then delete
    their rows in one shard transaction each.
    """
    shard_set = None
    if hasattr(archives, "archives"):  # a ShardSet
        shard_set = archives
        archives = shard_set.archives
    if store is None:
        if shard_set is None or shard_set.longterm_dir() is None:
            raise TierError(
                "tier_finished needs a LongTermStore (or a directory-backed "
                "ShardSet to derive one from)"
            )
        store = LongTermStore(shard_set.longterm_dir())

    report = TieringReport()
    for archive in archives:
        roots = [
            w
            for w in archive.query(WorkflowRow).all()
            if w.parent_wf_id is None
        ]
        report.scanned_roots += len(roots)
        tiered: List[Dict[str, Any]] = []
        trees: List[Dict[str, List[Dict[str, Any]]]] = []
        for root in roots:
            wf_ids = _descendant_ids(archive, root.wf_id)
            if not _is_finished(archive, wf_ids):
                report.skipped_roots += 1
                continue
            tables = _collect_tree(archive, wf_ids)
            tiered.append({"root_wf_uuid": root.wf_uuid, "tables": tables})
            trees.append(tables)
            report.tiered_uuids.append(root.wf_uuid)
        if not tiered:
            continue
        # durable first, delete second: a crash in between duplicates,
        # never loses (see module docstring)
        segment = store.append_segment(tiered)
        if segment is not None:
            report.segments.append(str(segment))
        for tables in trees:
            for name, rows in tables.items():
                report.rows_by_table[name] = report.rows_by_table.get(
                    name, 0
                ) + len(rows)
            report.rows_moved += _delete_tree(archive, tables)
        report.tiered_roots += len(tiered)
    return report
