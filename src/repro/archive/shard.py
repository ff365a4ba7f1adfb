"""Sharded archive: a crc32 router over N independent WAL writer shards.

One sqlite writer tops out around the committed ``BENCH_loader.json``
rate; the ROADMAP's "millions of users" shape is the WMArchive one —
partition the write path across independent stores and federate reads.
This module provides:

:class:`ShardSet`
    N ``shard-XXX.db`` sqlite files plus a ``shards.json`` manifest in
    one directory.  The manifest pins the shard count; opening the
    directory with a different N raises :class:`ShardMismatchError`
    loudly, because re-hashing rows across a different modulus is a
    migration, not an open.

:func:`shard_for`
    The router: ``crc32(root_wf_uuid) % shards`` — byte-compatible with
    :func:`repro.bus.groups.partition_for`, so a consumer group with N
    partitions maps 1:1 onto N shards and a partition's member writes
    only its own shard.  Routing by *root* workflow id keeps a whole
    workflow hierarchy (and therefore every foreign-key chain) inside
    one shard.

:class:`ShardedLoader`
    The write path: one :class:`~repro.loader.StampedeLoader` per shard,
    each on its own writer thread with the PR 2/3 machinery intact —
    transactional batch flushes with retries, and a per-shard
    checkpoint row committed atomically with the shard's batch.  The
    exactly-once boundary is per shard: a shard's checkpoint covers
    exactly the events routed to that shard, so kill/resume replays
    nothing and loses nothing regardless of how far the other shards
    had progressed.

:func:`open_archive`
    The reader's entry point: a connection string, a plain sqlite path,
    a shard directory, or a glob of sqlite files — single archives come
    back as-is, shard sets come back federated (including the long-term
    tier when present) so CLIs are shard-oblivious.
"""
from __future__ import annotations

import glob as _glob
import json
import queue
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.archive.federate import FederatedArchive
from repro.archive.store import StampedeArchive
from repro.bus.groups import PartitionKeyer, partition_for
from repro.loader.checkpoint import CheckpointManager
from repro.loader.stampede_loader import StampedeLoader
from repro.model.entities import WorkflowRow
from repro.netlogger.events import NLEvent

__all__ = [
    "MANIFEST_NAME",
    "ShardError",
    "ShardMismatchError",
    "ShardSet",
    "ShardedLoader",
    "shard_for",
    "partition_events",
    "open_archive",
]

MANIFEST_NAME = "shards.json"
SHARD_FILE_FORMAT = "shard-{:03d}.db"
#: manifest router identifier; bumping the hash means a new router name,
#: which existing manifests then refuse to open
ROUTER_NAME = "crc32-root-wf"


class ShardError(RuntimeError):
    """A shard set that cannot be created, opened, or written."""


class ShardMismatchError(ShardError):
    """Shard-count (or router) disagreement between caller and manifest.

    Raised instead of silently re-hashing: with a different modulus the
    router would send existing workflows' new events to *different*
    shards, corrupting every hierarchy mid-stream.  Resharding is an
    explicit migration, never an open-time default.
    """


def shard_for(root_id: str, shards: int) -> int:
    """Shard index for a root workflow id — the bus partitioner verbatim,
    so bus partition ``p`` of an N-partition group is exactly shard ``p``
    of an N-shard set."""
    return partition_for(root_id, shards)


def partition_events(
    events: Iterable[NLEvent],
    shards: int,
    keyer: Optional[PartitionKeyer] = None,
) -> List[List[NLEvent]]:
    """Statically route an event stream into per-shard lists.

    Same learned-root semantics as the live loader: plan events teach
    the keyer the sub-workflow → root mapping as they stream through.
    Events without a workflow id (e.g. ``stampede.obs.*`` telemetry)
    hash on their event name, matching the bus router's routing-key
    default.
    """
    keyer = keyer or PartitionKeyer()
    out: List[List[NLEvent]] = [[] for _ in range(shards)]
    for event in events:
        key = keyer.key_for(event.attrs, default=event.event)
        out[partition_for(key, shards)].append(event)
    return out


# ---------------------------------------------------------------------------
# shard set (files + manifest)
# ---------------------------------------------------------------------------


class ShardSet:
    """N archives plus the manifest that pins their count.

    ``directory=None`` builds an anonymous set over in-memory sqlite
    databases (no files, no manifest) for benchmarks and tests.
    """

    def __init__(
        self,
        directory: Optional[Path],
        shards: int,
        archives: List[StampedeArchive],
    ):
        self.directory = directory
        self.shards = shards
        self.archives = archives

    # -- construction -------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: Optional[Union[str, Path]],
        shards: int,
    ) -> "ShardSet":
        """Create (or re-open, if the manifest already agrees) a shard set."""
        if shards < 1:
            raise ShardError(f"shards must be >= 1, got {shards}")
        if directory is None:
            return cls(None, shards, [StampedeArchive() for _ in range(shards)])
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            cls._check_manifest(manifest_path, shards)
        else:
            manifest_path.write_text(
                json.dumps(
                    {"version": 1, "shards": shards, "router": ROUTER_NAME},
                    indent=2,
                )
                + "\n"
            )
        return cls(root, shards, cls._open_archives(root, shards))

    @classmethod
    def open(
        cls,
        directory: Union[str, Path],
        expected_shards: Optional[int] = None,
    ) -> "ShardSet":
        root = Path(directory)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise ShardError(
                f"{root} is not a shard set (no {MANIFEST_NAME} manifest)"
            )
        shards = cls._check_manifest(manifest_path, expected_shards)
        return cls(root, shards, cls._open_archives(root, shards))

    @staticmethod
    def _check_manifest(path: Path, expected: Optional[int]) -> int:
        manifest = json.loads(path.read_text())
        shards = int(manifest["shards"])
        router = manifest.get("router", ROUTER_NAME)
        if router != ROUTER_NAME:
            raise ShardMismatchError(
                f"{path}: shard set routed by {router!r}, this build "
                f"routes by {ROUTER_NAME!r}; resharding is an explicit "
                "migration"
            )
        if expected is not None and expected != shards:
            raise ShardMismatchError(
                f"{path}: shard set has {shards} shards, caller expects "
                f"{expected}; re-hashing across a different modulus would "
                "scatter existing workflows — reshard explicitly instead"
            )
        return shards

    @staticmethod
    def _open_archives(root: Path, shards: int) -> List[StampedeArchive]:
        return [
            StampedeArchive.open(
                f"sqlite:///{root / SHARD_FILE_FORMAT.format(i)}"
            )
            for i in range(shards)
        ]

    # -- surface ------------------------------------------------------------
    def __len__(self) -> int:
        return self.shards

    def shard_for(self, root_id: str) -> int:
        return shard_for(root_id, self.shards)

    def longterm_dir(self) -> Optional[Path]:
        return self.directory / "longterm" if self.directory else None

    def federated(self, include_longterm: bool = True) -> FederatedArchive:
        """All shards (plus the long-term tier, when present) as one
        read-only archive."""
        sources: List[StampedeArchive] = list(self.archives)
        lt = self.longterm_dir()
        if include_longterm and lt is not None and lt.is_dir():
            from repro.archive.tier import LongTermStore

            store = LongTermStore(lt)
            if store.segments():
                sources.append(store.open_archive())
        return FederatedArchive(sources)

    def close(self) -> None:
        for archive in self.archives:
            archive.close()


# ---------------------------------------------------------------------------
# sharded write path
# ---------------------------------------------------------------------------


class _ShardWriter(threading.Thread):
    """One shard's writer: drains routed event chunks into its loader.

    The loader (and through it the shard's checkpoint) is touched only
    by this thread, so the per-shard flush keeps the PR 2 guarantee —
    batch + checkpoint commit atomically — without any cross-shard
    coordination.
    """

    def __init__(self, index: int, loader: StampedeLoader, queue_size: int):
        super().__init__(name=f"shard-writer-{index}", daemon=True)
        self.index = index
        self.loader = loader
        self.queue: "queue.Queue[Tuple[str, Any]]" = queue.Queue(queue_size)
        self.error: Optional[BaseException] = None
        #: checkpointed source-position floor; events at or below it were
        #: already committed by a previous run of *this shard* and are
        #: skipped on replay
        self.floor: int = 0

    def run(self) -> None:
        while True:
            kind, payload = self.queue.get()
            try:
                if kind == "events":
                    if self.error is None:
                        self._consume(payload)
                elif kind == "flush":
                    if self.error is None:
                        try:
                            self.loader.flush()
                        except BaseException as exc:  # noqa: BLE001
                            self.error = exc
                    payload.set()
                else:  # "stop"
                    if self.error is None:
                        try:
                            self.loader.flush()
                        except BaseException as exc:  # noqa: BLE001
                            self.error = exc
                    payload.set()
                    return
            except BaseException as exc:  # noqa: BLE001 - never kill the drain
                if self.error is None:
                    self.error = exc

    def _consume(self, chunk: List[Tuple[int, NLEvent]]) -> None:
        loader = self.loader
        floor = self.floor
        for position, event in chunk:
            if floor and position <= floor:
                continue
            loader.position = position
            loader.process(event)


class ShardedLoader:
    """Route events by root workflow id across per-shard writer threads.

    The front end (the caller's thread) only hashes and buffers; all
    parsing-adjacent work already happened upstream and all archive work
    happens on the writer threads.  ``flush()`` is a barrier: every
    routed event is committed (and checkpointed) in its shard when it
    returns, and any writer-side failure re-raises here.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        batch_size: int = 500,
        strict: bool = True,
        validate: bool = False,
        checkpoint_source: Optional[str] = None,
        queue_size: int = 64,
        chunk_size: int = 256,
        rollup: bool = True,
    ):
        self.shard_set = shard_set
        self.checkpoint_source = checkpoint_source
        self._keyer = PartitionKeyer()
        self.writers: List[_ShardWriter] = []
        for index, archive in enumerate(shard_set.archives):
            checkpoint = (
                CheckpointManager(archive, checkpoint_source)
                if checkpoint_source is not None
                else None
            )
            loader = StampedeLoader(
                archive,
                batch_size=batch_size,
                strict=strict,
                validate=validate,
                checkpoint=checkpoint,
                rollup=rollup,
            )
            self.writers.append(_ShardWriter(index, loader, queue_size))
        self._buffers: List[List[Tuple[int, NLEvent]]] = [
            [] for _ in self.writers
        ]
        self._chunk_size = max(1, chunk_size)
        #: source position (file byte offset) of the last event handed to
        #: :meth:`process`; each shard persists the position of *its* last
        #: event with its own checkpoint
        self.position: int = 0
        #: events routed per shard (front-end counter; cheap to read)
        self.routed: List[int] = [0] * len(self.writers)
        self.wall_seconds: float = 0.0
        self._closed = False
        for writer in self.writers:
            writer.start()

    # -- routing ------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.writers)

    def shard_for_event(self, event: NLEvent) -> int:
        key = self._keyer.key_for(event.attrs, default=event.event)
        return partition_for(key, len(self.writers))

    # -- ingest -------------------------------------------------------------
    def process(self, event: NLEvent) -> None:
        index = self.shard_for_event(event)
        buffer = self._buffers[index]
        buffer.append((self.position, event))
        self.routed[index] += 1
        if len(buffer) >= self._chunk_size:
            self._buffers[index] = []
            self.writers[index].queue.put(("events", buffer))

    def process_all(self, events: Iterable[NLEvent]) -> "ShardedLoader":
        start = time.perf_counter()
        for event in events:
            self.process(event)
        self.flush()
        self.wall_seconds += time.perf_counter() - start
        return self

    def flush(self) -> None:
        """Barrier: every routed event committed in its shard, errors
        re-raised."""
        barriers = []
        for index, writer in enumerate(self.writers):
            buffer = self._buffers[index]
            if buffer:
                self._buffers[index] = []
                writer.queue.put(("events", buffer))
            done = threading.Event()
            writer.queue.put(("flush", done))
            barriers.append(done)
        for done in barriers:
            done.wait()
        self._raise_writer_errors()

    def close(self) -> None:
        """Flush, stop the writer threads, and re-raise any failure.

        The shard set itself stays open — the caller owns it (it may go
        on to tier, query, or re-load)."""
        if self._closed:
            return
        self._closed = True
        barriers = []
        for index, writer in enumerate(self.writers):
            buffer = self._buffers[index]
            if buffer:
                self._buffers[index] = []
                writer.queue.put(("events", buffer))
            done = threading.Event()
            writer.queue.put(("stop", done))
            barriers.append(done)
        for done in barriers:
            done.wait()
        for writer in self.writers:
            writer.join(timeout=10.0)
        self._raise_writer_errors()

    def _raise_writer_errors(self) -> None:
        for writer in self.writers:
            if writer.error is not None:
                raise ShardError(
                    f"shard {writer.index} writer failed: {writer.error!r}"
                ) from writer.error

    # -- checkpoint/resume --------------------------------------------------
    def resume(self) -> int:
        """Restore every shard's checkpoint; returns the re-read floor.

        The returned position is the *minimum* across shards: the source
        must be re-read from there, and each shard's writer skips events
        at or below its own (possibly further advanced) floor — replay
        is idempotent per shard without any cross-shard fsync ordering.
        """
        if self.checkpoint_source is None:
            raise ShardError("resume() needs a checkpoint_source")
        floors = []
        for writer in self.writers:
            position = writer.loader.resume()
            writer.floor = position
            floors.append(position)
        # Re-teach the router the sub-workflow -> root mappings already
        # archived: their plan events sit *below* the re-read floor, so
        # the keyer would otherwise route a resumed sub-workflow's tail
        # by its own id — onto the wrong shard.
        for archive in self.shard_set.archives:
            workflows = archive.query(WorkflowRow).all()
            uuid_by_id = {w.wf_id: w.wf_uuid for w in workflows}
            for w in workflows:
                root = (
                    uuid_by_id.get(w.root_wf_id)
                    if w.root_wf_id is not None
                    else None
                )
                self._keyer.learn(w.wf_uuid, root or w.wf_uuid)
        floor = min(floors)
        self.position = floor
        return floor

    # -- introspection ------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Aggregate + per-shard loader statistics."""
        per_shard = []
        totals = {
            "events_processed": 0,
            "rows_inserted": 0,
            "flushes": 0,
            "retries": 0,
        }
        for writer in self.writers:
            snap = writer.loader.stats.snapshot()
            snap["shard"] = writer.index
            snap["routed"] = self.routed[writer.index]
            per_shard.append(snap)
            for key in totals:
                totals[key] += snap.get(key, 0)
        totals["wall_seconds"] = self.wall_seconds
        totals["shards"] = len(self.writers)
        totals["per_shard"] = per_shard
        return totals


# ---------------------------------------------------------------------------
# shard-oblivious open
# ---------------------------------------------------------------------------


def open_archive(
    spec: str,
) -> Union[StampedeArchive, FederatedArchive]:
    """Open *anything archive-shaped* for reading.

    ============================  ========================================
    spec                          result
    ============================  ========================================
    ``sqlite:///PATH``            single :class:`StampedeArchive`
    ``PATH.db`` (plain file)      single :class:`StampedeArchive`
    directory with shards.json    :class:`FederatedArchive` over the set
                                  (including the long-term tier)
    glob (``shards/*.db``)        :class:`FederatedArchive` over matches
                                  (sorted, so global ids are stable)
    ============================  ========================================
    """
    if spec.startswith("sqlite:///"):
        return StampedeArchive.open(spec)
    path = Path(spec)
    if path.is_dir():
        return ShardSet.open(path).federated()
    if any(ch in spec for ch in "*?["):
        matches = sorted(_glob.glob(spec))
        if not matches:
            raise ShardError(f"glob {spec!r} matched no archive files")
        if len(matches) == 1:
            return StampedeArchive.open(f"sqlite:///{matches[0]}")
        return FederatedArchive(
            [StampedeArchive.open(f"sqlite:///{m}") for m in matches]
        )
    return StampedeArchive.open(f"sqlite:///{spec}")
