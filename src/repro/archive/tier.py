"""Tiering: move finished root workflows into the long-term archive.

WMArchive's shape (PAPERS.md): the hot store takes the write load, and a
compacting migration periodically moves *finished* workflows into a
long-term store that queries still reach.  Here the hot store is a
shard set (``repro.archive.shard``) and the long-term tier is one more
sqlite archive beside its shards, with the same schema::

    <shard-dir>/longterm/longterm.db

The shard set opens it with its shards, and :meth:`ShardSet.federated`
serves it as its last source, so a reader opens it like any shard: no
replay, no derivation, and an open reader sees every later tiering pass.
The tier holds each hierarchy's base rows *and* its rollup rows, so a
tiered root is served, cached and verified like a hot one.

:func:`tier_finished` copies each finished hierarchy into the tier with
fresh surrogate ids (every foreign key of a hierarchy resolves inside
it — that is what routing by root id guarantees — so a two-pass remap
suffices), commits, and only then deletes it from its hot shard.  A
crash between the two leaves the hierarchy in both; the next pass finds
its root already in the tier and finishes the move by deleting the hot
copy, so nothing is lost and nothing is duplicated.  Telemetry
(``obs_event``) is not tiered: it is per-loader self-monitoring, not
workflow history.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.archive import ddl
from repro.archive.store import _ENTITY_TABLE, StampedeArchive, _to_row
from repro.model.entities import WorkflowRow, WorkflowStateRow
from repro.model.states import WorkflowState

__all__ = ["TIER_FILE", "TierError", "TieringReport", "open_tier", "tier_finished"]

#: the tier's file inside ``<shard-dir>/longterm/``
TIER_FILE = "longterm.db"

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

#: the rollup tables a hierarchy takes with it, all keyed by ``wf_id``
_ROLLUP_ORDER = ["rollup_workflow", "rollup_type", "rollup_host", "rollup_host_bucket"]

#: tables not keyed by ``wf_id``: the column that ties them to the tree
_PARENT_KEY = {"job_instance": "job_id", "jobstate": "job_instance_id"}

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
    """A long-term tier that cannot be opened, or a hierarchy that cannot
    be moved into it."""


def _chunks(values: Sequence[Any], size: int = _IN_CHUNK) -> Iterator[Sequence[Any]]:
    for start in range(0, len(values), size):
        yield values[start : start + size]


def open_tier(directory: Optional[Path]) -> StampedeArchive:
    """The long-term tier in ``directory`` (``<shard-dir>/longterm``),
    created empty on first open; in memory for an anonymous shard set.

    A directory still holding the JSONL segments of an older build is
    refused: serving the set without them would silently drop their
    history.
    """
    if directory is None:
        return StampedeArchive()
    segments = sorted(p.name for p in directory.glob("segment-*.jsonl"))
    if segments:
        raise TierError(
            f"{directory} holds a JSONL long-term tier "
            f"({', '.join(segments)}) that this build does not read; it "
            f"serves the tier from {TIER_FILE} only"
        )
    directory.mkdir(parents=True, exist_ok=True)
    return StampedeArchive.open(f"sqlite:///{directory / TIER_FILE}")


def _materialize(
    tier: StampedeArchive,
    root_uuid: str,
    tables: Dict[str, List[Dict[str, Any]]],
    seq: int,
) -> List[Any]:
    """One hierarchy's rows as entities with ids fresh in ``tier``.

    Two passes: allocate a primary key for every base row, then rewrite
    every id column.  Rollup rows take their workflow's new id in pass 2
    only, and ``updated_seq`` becomes the tier commit ``seq`` that wrote
    them.
    """
    id_maps: Dict[str, Dict[int, int]] = {}
    # pass 1: fresh primary keys for every base row
    for table_name in _TABLE_ORDER:
        pk = ddl.TABLES[table_name].primary_key
        if pk is None:
            continue
        mapping = id_maps.setdefault(table_name, {})
        for row in tables[table_name]:
            old = row.get(pk.name)
            if old is not None:
                mapping[old] = tier.next_id(table_name)
    # pass 2: rewrite ids, parents first, rollups last
    entities: List[Any] = []
    for table_name in [*_TABLE_ORDER, *_ROLLUP_ORDER]:
        etype = _ENTITY_BY_TABLE[table_name]
        for row in tables[table_name]:
            rewritten = dict(row)
            for column, value in row.items():
                ref = _ID_REFS.get(column)
                if ref is None or value is None:
                    continue
                try:
                    rewritten[column] = id_maps[ref][value]
                except KeyError:
                    raise TierError(
                        f"root {root_uuid!r}: {table_name}.{column}={value} "
                        f"references a {ref} row outside its hierarchy"
                    ) from None
            if table_name == "rollup_workflow":
                rewritten["updated_seq"] = seq
            entities.append(etype(**rewritten))
    return entities


@dataclass
class TieringReport:
    """What one :func:`tier_finished` pass did."""

    scanned_roots: int = 0
    tiered_roots: int = 0
    skipped_roots: int = 0
    rows_moved: int = 0
    rows_by_table: Dict[str, int] = field(default_factory=dict)
    tiered_uuids: List[str] = field(default_factory=list)


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


def _in_query(archive: StampedeArchive, etype: type, column: str, ids: Sequence[Any]):
    rows: List[Any] = []
    for chunk in _chunks(list(ids)):
        rows.extend(
            archive.query(etype).where(column, "in", list(chunk)).all()
        )
    return rows


def _collect_tree(
    archive: StampedeArchive, wf_ids: Sequence[int]
) -> Dict[str, List[Dict[str, Any]]]:
    """A hierarchy's base and rollup rows, by table."""

    def rows(table_name: str, column: str, ids: Sequence[Any]):
        etype = _ENTITY_BY_TABLE[table_name]
        return [_to_row(e) for e in _in_query(archive, etype, column, ids)]

    tables = {
        name: rows(name, "wf_id", wf_ids)
        for name in [*_TABLE_ORDER, *_ROLLUP_ORDER]
        if name not in _PARENT_KEY
    }
    job_ids = [r["job_id"] for r in tables["job"]]
    tables["job_instance"] = rows("job_instance", "job_id", job_ids)
    ji_ids = [r["job_instance_id"] for r in tables["job_instance"]]
    tables["jobstate"] = rows("jobstate", "job_instance_id", ji_ids)
    return tables


def _delete_tree(
    archive: StampedeArchive,
    tables: Dict[str, List[Dict[str, Any]]],
) -> int:
    """Remove one hierarchy's rows, children first, in one transaction."""
    from repro.core.rollup import drop_rollups

    with archive.transaction():
        # the hierarchy's materialized rollups leave with it (and the
        # rollup commit sequence bumps, so read caches notice)
        deleted = drop_rollups(archive, [r["wf_id"] for r in tables["workflow"]])
        for table_name in reversed(_TABLE_ORDER):
            rows = tables[table_name]
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
                # pk-less state/edge tables: delete by the parent key set
                key = _PARENT_KEY.get(table_name, "wf_id")
                ids = sorted({r[key] for r in rows})
                for chunk in _chunks(ids):
                    deleted += archive.delete(
                        _ENTITY_BY_TABLE[table_name], {key: list(chunk)}
                    )
    return deleted


def _held_roots(tier: StampedeArchive, uuids: Sequence[str]) -> Dict[str, int]:
    """Root uuid -> tier ``wf_id`` for the roots the tier already holds."""
    return {
        w.wf_uuid: w.wf_id
        for w in _in_query(tier, WorkflowRow, "wf_uuid", uuids)
        if w.parent_wf_id is None
    }


def tier_finished(shard_set: Any) -> TieringReport:
    """Move every finished root hierarchy out of a shard set's hot shards.

    Finds the root workflows (``parent_wf_id IS NULL``) whose whole tree
    has terminated, copies their base and rollup rows into the set's
    long-term tier in one transaction that bumps the tier's commit
    sequence, then deletes each tree from its hot shard in one shard
    transaction.  A root the tier already holds is the remainder of an
    interrupted pass: it is not copied again, only deleted.  One the tier
    holds with other row counts raises :class:`TierError` before anything
    moves.
    """
    from repro.core.rollup import bump_commit_seq

    tier: StampedeArchive = shard_set.longterm
    report = TieringReport()
    moves: List[Tuple[StampedeArchive, str, Dict[str, List[Dict[str, Any]]]]] = []
    for archive in shard_set.archives:
        roots = [
            w
            for w in archive.query(WorkflowRow).all()
            if w.parent_wf_id is None
        ]
        report.scanned_roots += len(roots)
        for root in roots:
            wf_ids = _descendant_ids(archive, root.wf_id)
            if not _is_finished(archive, wf_ids):
                report.skipped_roots += 1
                continue
            moves.append((archive, root.wf_uuid, _collect_tree(archive, wf_ids)))
    held = _held_roots(tier, [uuid for _, uuid, _ in moves])
    for _, uuid, tables in moves:
        if uuid not in held:
            continue
        kept = _collect_tree(tier, _descendant_ids(tier, held[uuid]))
        if any(len(kept[t]) != len(tables[t]) for t in _TABLE_ORDER):
            raise TierError(
                f"root {uuid!r} is in the long-term tier and, with different "
                "rows, in a hot shard; tiering leaves both copies in place"
            )
    copies = [(uuid, tables) for _, uuid, tables in moves if uuid not in held]
    if copies:
        with tier.transaction():
            seq = bump_commit_seq(tier)
            tier.insert_many(
                entity
                for uuid, tables in copies
                for entity in _materialize(tier, uuid, tables, seq)
            )
    # tier commit first, hot delete second: a crash in between leaves a
    # root the next pass finds in the tier (see module docstring)
    for archive, uuid, tables in moves:
        for name, rows in tables.items():
            report.rows_by_table[name] = report.rows_by_table.get(name, 0) + len(rows)
        report.rows_moved += _delete_tree(archive, tables)
        report.tiered_uuids.append(uuid)
    report.tiered_roots = len(moves)
    return report
