"""Sharded archive: router property, manifest guard, sharded write path.

The load-bearing contract is the router: ``shard_for`` must equal the
bus partitioner byte-for-byte (and stay stable across processes), so a
consumer group with N partitions maps 1:1 onto an N-shard set.  The
second contract is the manifest guard — opening a shard set with the
wrong modulus is a refusal, never a silent re-hash.  The third is the
write path itself: a 4-shard load must be canonically identical to a
single-archive load, including after a kill/resume.
"""
import json
import subprocess
import sys
import zlib

import pytest

from repro.archive.federate import FederatedArchive
from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.shard import (
    MANIFEST_NAME,
    ShardError,
    ShardMismatchError,
    ShardSet,
    ShardedLoader,
    open_archive,
    partition_events,
    shard_for,
)
from repro.archive.store import StampedeArchive
from repro.bus.groups import partition_for
from repro.core.rollup import verify_rollups
from repro.loader import make_loader
from repro.loader.nl_load import load_file
from repro.loader.stampede_loader import LoaderError
from repro.model.entities import WorkflowRow
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import write_events
from repro.schema.stampede import Events

from tests.helpers import diamond_events

#: crc32("11111111-2222-4333-8444-555555555555") — pinned so a stdlib or
#: platform change that altered the hash (and would scatter every
#: existing shard set) fails here, not in production.
PINNED_UUID = "11111111-2222-4333-8444-555555555555"
PINNED_CRC32 = 2577199954

ROOT_UUIDS = [f"wf-{i:02d}00-aaaa-4bbb-8ccc-dddddddddddd" for i in range(6)]


def workload_events():
    """Six diamond workflows with mixed outcomes (failures + retries)."""
    events = []
    for i, xwf in enumerate(ROOT_UUIDS):
        fail = "b" if i % 3 == 0 else None
        retries = {"c": 1} if i % 2 else None
        events.extend(diamond_events(fail_job=fail, retries=retries, xwf=xwf))
    return events


def load_sharded_and_single(tmp_path):
    """The workload through ``nl-load`` twice: into a 2-shard directory
    and into one archive file.  Returns the two specs a read CLI takes."""
    from repro.loader.nl_load import main as nl_main

    bp = tmp_path / "run.bp"
    write_events(bp, workload_events())
    shards, single = str(tmp_path / "shards"), f"sqlite:///{tmp_path / 'single.db'}"
    nl_main([str(bp), "--shard-dir", shards, "--shards", "2"])
    nl_main([str(bp), "stampede_loader", f"connString={single}"])
    return shards, single


def load_single(events):
    loader = make_loader(batch_size=50)
    for event in events:
        loader.process(event)
    loader.flush()
    return loader.archive


class TestRouter:
    def test_matches_bus_partitioner(self):
        """shard_for IS partition_for: same hash, same modulus."""
        for uuid in ROOT_UUIDS + [PINNED_UUID, "", "stampede.obs.mem"]:
            for n in (1, 2, 4, 8, 16):
                assert shard_for(uuid, n) == partition_for(uuid, n)
                assert shard_for(uuid, n) == zlib.crc32(uuid.encode("utf-8")) % n

    def test_pinned_hash_value(self):
        assert zlib.crc32(PINNED_UUID.encode("utf-8")) == PINNED_CRC32
        assert shard_for(PINNED_UUID, 4) == PINNED_CRC32 % 4 == 2

    def test_cross_process_stable(self):
        """The route survives process boundaries (no PYTHONHASHSEED-style
        per-process salt): a fresh interpreter computes the same shards."""
        uuids = ROOT_UUIDS + [PINNED_UUID]
        script = (
            "import sys, zlib; "
            "print([zlib.crc32(u.encode('utf-8')) % 4 for u in sys.argv[1:]])"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, *uuids],
            capture_output=True, text=True, check=True,
        )
        assert json.loads(out.stdout) == [shard_for(u, 4) for u in uuids]

    def test_partition_events_keeps_hierarchy_together(self):
        """A sub-workflow's events follow its *root*: the plan event
        teaches the keyer root.xwf.id, so the whole hierarchy (every
        foreign-key chain) lands on one shard."""
        root, sub = ROOT_UUIDS[0], "5ub50000-aaaa-4bbb-8ccc-dddddddddddd"
        assert shard_for(root, 4) != shard_for(sub, 4)  # test is vacuous otherwise
        events = diamond_events(xwf=root)
        for event in diamond_events(xwf=sub):
            if event.event == Events.WF_PLAN:
                event.attrs["root.xwf.id"] = root
                event.attrs["parent.xwf.id"] = root
            events.append(event)
        shards = partition_events(events, 4)
        expected = shard_for(root, 4)
        for index, routed in enumerate(shards):
            assert len(routed) == (len(events) if index == expected else 0)

    def test_idless_events_route_by_event_name(self):
        """Telemetry without any workflow id hashes on its event name —
        the bus router's routing-key default."""
        event = NLEvent("stampede.obs.mem", 0.0, {})
        shards = partition_events([event], 4)
        assert shards[partition_for("stampede.obs.mem", 4)] == [event]


class TestManifest:
    def test_create_writes_manifest_and_open_agrees(self, tmp_path):
        created = ShardSet.create(tmp_path / "shards", 2)
        created.close()
        manifest = json.loads((tmp_path / "shards" / MANIFEST_NAME).read_text())
        assert manifest["shards"] == 2 and manifest["router"] == "crc32-root-wf"
        reopened = ShardSet.open(tmp_path / "shards")
        assert len(reopened) == 2
        reopened.close()

    def test_open_with_wrong_count_refuses(self, tmp_path):
        ShardSet.create(tmp_path / "shards", 2).close()
        with pytest.raises(ShardMismatchError, match="reshard"):
            ShardSet.open(tmp_path / "shards", expected_shards=4)

    def test_create_over_existing_with_wrong_count_refuses(self, tmp_path):
        ShardSet.create(tmp_path / "shards", 2).close()
        with pytest.raises(ShardMismatchError):
            ShardSet.create(tmp_path / "shards", 4)

    def test_unknown_router_refuses(self, tmp_path):
        ShardSet.create(tmp_path / "shards", 2).close()
        path = tmp_path / "shards" / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["router"] = "xxhash-root-wf"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ShardMismatchError, match="routed by"):
            ShardSet.open(tmp_path / "shards")

    def test_open_non_shard_directory_refuses(self, tmp_path):
        with pytest.raises(ShardError, match="not a shard set"):
            ShardSet.open(tmp_path)

    def test_invalid_configurations(self, tmp_path):
        with pytest.raises(ShardError):
            ShardSet.create(tmp_path / "s", 0)
        with pytest.raises(ShardError):
            ShardSet.create(None, 0)

    def test_memory_backend_is_anonymous(self):
        shard_set = ShardSet.create(None, 4)
        assert shard_set.directory is None and len(shard_set) == 4
        assert shard_set.longterm_dir() is None
        assert {a.db.path for a in shard_set.archives} == {":memory:"}
        shard_set.close()


class TestOpenArchive:
    def test_shard_directory_comes_back_federated(self, tmp_path):
        ShardSet.create(tmp_path / "shards", 2).close()
        archive = open_archive(str(tmp_path / "shards"))
        assert isinstance(archive, FederatedArchive)
        archive.close()

    def test_plain_path_and_conn_string_stay_single(self, tmp_path):
        for spec in (str(tmp_path / "run.db"), f"sqlite:///{tmp_path/'x.db'}",
                     "sqlite:///:memory:"):
            archive = open_archive(spec)
            assert isinstance(archive, StampedeArchive)
            archive.close()

    def test_glob_federates_matches(self, tmp_path):
        shard_set = ShardSet.create(tmp_path / "shards", 4)
        shard_set.close()
        archive = open_archive(str(tmp_path / "shards" / "shard-*.db"))
        assert isinstance(archive, FederatedArchive)
        archive.close()
        single = open_archive(str(tmp_path / "shards" / "shard-00[0].db"))
        assert isinstance(single, StampedeArchive)
        single.close()

    def test_empty_glob_refuses(self, tmp_path):
        with pytest.raises(ShardError, match="matched no"):
            open_archive(str(tmp_path / "nope-*.db"))


class TestShardedLoader:
    def test_four_shards_canonically_identical_to_single(self):
        events = workload_events()
        single = load_single(events)
        expected = canonical_dump(single)

        shard_set = ShardSet.create(None, 4)
        sharded = ShardedLoader(shard_set, batch_size=50)
        sharded.process_all(events)
        sharded.close()

        assert diff_canonical(expected, canonical_dump(shard_set.federated())) == []
        # every hierarchy stayed on its routed shard
        for index, archive in enumerate(shard_set.archives):
            for wf in archive.query(WorkflowRow).all():
                assert shard_set.shard_for(wf.wf_uuid) == index
        assert sum(sharded.routed) == len(events)
        stats = sharded.stats()
        assert stats["events_processed"] == len(events)
        assert stats["shards"] == 4 and len(stats["per_shard"]) == 4
        assert stats["rows_inserted"] == sum(
            s["rows_inserted"] for s in stats["per_shard"]
        )
        single.close()
        shard_set.close()

    def test_close_is_idempotent_and_flushes(self):
        shard_set = ShardSet.create(None, 2)
        sharded = ShardedLoader(shard_set, batch_size=500)
        for event in diamond_events():
            sharded.process(event)
        sharded.close()
        sharded.close()  # second close is a no-op
        assert shard_set.federated().query(WorkflowRow).count() == 1
        shard_set.close()

    def test_kill_resume_matches_uninterrupted_run(self, tmp_path):
        """Kill the sharded loader mid-run (unflushed per-shard batches
        lost, as in kill -9), resume, and compare the federated archive
        against a clean single-writer run.  Each shard replays only its
        own uncommitted suffix — the exactly-once boundary is per shard.
        """
        events = workload_events()
        path = str(tmp_path / "storm.bp")
        write_events(path, events)
        single = load_single(events)
        expected = canonical_dump(single)

        shard_dir = tmp_path / "shards"
        shard_set = ShardSet.create(shard_dir, 4)
        sharded = ShardedLoader(
            shard_set, batch_size=7, checkpoint_source=path
        )
        from repro.netlogger.stream import read_events_with_offsets

        offsets = list(read_events_with_offsets(path))
        for event, offset in offsets[: len(offsets) * 2 // 3]:
            sharded.position = offset
            sharded.process(event)
        # force the queued chunks through so some shards commit batches
        # (and checkpoints), then abandon everything without close():
        # unflushed partial batches die with the "process"
        sharded.flush()
        committed = [loader.checkpoint.load() for loader in sharded.loaders]
        assert any(c is not None and c.position > 0 for c in committed)
        shard_set.close()
        del sharded

        # -- fresh process: reopen, resume, re-read from the floor ----------
        shard_set = ShardSet.open(shard_dir)
        resumed = ShardedLoader(
            shard_set, batch_size=7, checkpoint_source=path
        )
        floor = resumed.resume()
        assert floor == min(resumed.floors)
        assert floor > 0
        load_file(path, resumed)
        resumed.close()

        assert diff_canonical(expected, canonical_dump(shard_set.federated())) == []
        single.close()
        shard_set.close()

    def test_load_file_into_shards_without_checkpoint(self, tmp_path):
        events = workload_events()
        path = str(tmp_path / "storm.bp")
        write_events(path, events)
        single = load_single(events)

        shard_set = ShardSet.create(None, 4)
        sharded = ShardedLoader(shard_set, batch_size=50)
        load_file(path, sharded)
        sharded.close()
        assert diff_canonical(
            canonical_dump(single), canonical_dump(shard_set.federated())
        ) == []
        single.close()
        shard_set.close()


class TestSingleShardDegenerate:
    def test_one_shard_equals_plain_loader(self, tmp_path):
        """N=1 is the plain single-writer path behind the same API."""
        events = workload_events()
        single = load_single(events)
        shard_set = ShardSet.create(tmp_path / "one", 1)
        sharded = ShardedLoader(shard_set, batch_size=50)
        sharded.process_all(events)
        sharded.close()
        assert diff_canonical(
            canonical_dump(single), canonical_dump(shard_set.federated())
        ) == []
        # and the file round-trips through load_file/make_loader idioms
        db = tmp_path / "one" / "shard-000.db"
        reread = StampedeArchive.open(f"sqlite:///{db}")
        assert reread.query(WorkflowRow).count() == len(ROOT_UUIDS)
        reread.close()
        single.close()
        shard_set.close()


class TestShardedErrorContract:
    def test_bad_event_raises_from_its_own_process_call(self):
        """A strict sharded load fails on the call that handed over the
        bad event, as one loader does; every shard's rows stay intact."""
        events = workload_events()
        half = len(events) // 2
        single = load_single(events)
        shard_set = ShardSet.create(None, 4)
        sharded = ShardedLoader(shard_set, batch_size=50)
        for event in events[:half]:
            sharded.process(event)
        stray = NLEvent(
            Events.XWF_START, 1.0, {"xwf.id": "wf-9900-aaaa-4bbb-8ccc-dddddddddddd"}
        )
        with pytest.raises(LoaderError, match="unknown workflow"):
            sharded.process(stray)
        for event in events[half:]:
            sharded.process(event)
        sharded.close()
        assert diff_canonical(
            canonical_dump(single), canonical_dump(shard_set.federated())
        ) == []
        for archive in shard_set.archives:
            assert verify_rollups(archive) == []
        single.close()
        shard_set.close()
