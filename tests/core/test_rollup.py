"""Materialized rollups (repro.core.rollup): incremental == full scan.

The tentpole invariant: the counters the loader maintains inside its
transactional commit path must equal what a full scan computes, for any
workflow shape — retries, failures, sub-workflow hierarchies — and the
commit sequence must advance exactly with applying flushes so read
caches invalidate correctly.
"""
import dataclasses

import pytest

from repro.archive.store import StampedeArchive
from repro.core.rollup import (
    RollupMaintainer,
    commit_seq,
    drop_rollups,
    last_commit_ts,
    main as rollup_main,
    rebuild_rollups,
    rollup_statistics,
    verify_rollups,
)
from repro.core.statistics import workflow_statistics
from repro.loader import load_events, make_loader
from repro.model.entities import (
    RollupHostBucketRow,
    RollupHostRow,
    RollupTypeRow,
    RollupWorkflowRow,
)
from repro.query.api import StampedeQuery

from tests.helpers import diamond_events


def _stats_equal(a, b):
    assert a.wall_time == pytest.approx(b.wall_time)
    assert a.cumulative_job_wall_time == pytest.approx(b.cumulative_job_wall_time)
    assert dataclasses.asdict(a.counts) == dataclasses.asdict(b.counts)
    assert len(a.breakdown) == len(b.breakdown)
    for ra, rb in zip(a.breakdown, b.breakdown):
        assert ra.type_name == rb.type_name
        assert ra.count == rb.count
        assert ra.succeeded == rb.succeeded
        assert ra.failed == rb.failed
        assert ra.total_runtime == pytest.approx(rb.total_runtime)
    hosts_a = {h.hostname: h for h in a.hosts}
    hosts_b = {h.hostname: h for h in b.hosts}
    assert set(hosts_a) == set(hosts_b)
    for name in hosts_a:
        assert hosts_a[name].jobs == hosts_b[name].jobs
        assert hosts_a[name].total_runtime == pytest.approx(
            hosts_b[name].total_runtime
        )
        assert sum(hosts_a[name].bins.values()) == pytest.approx(
            sum(hosts_b[name].bins.values())
        )


class TestIncrementalParity:
    @pytest.mark.parametrize("batch_size", [1, 7, 500])
    def test_diamond_matches_scan(self, batch_size):
        loader = load_events(
            diamond_events(fail_job="b", retries={"c": 2}), batch_size=batch_size
        )
        assert verify_rollups(loader.archive) == []

    def test_rollup_statistics_equals_scan_statistics(self):
        loader = load_events(diamond_events(retries={"b": 1}))
        rolled = workflow_statistics(loader.archive, wf_id=1)
        scanned = workflow_statistics(loader.archive, wf_id=1, prefer_rollup=False)
        _stats_equal(rolled, scanned)
        # the rollup path really was taken: it reports without job detail
        assert rollup_statistics(loader.archive, wf_id=1) is not None

    def test_interleaved_workflows_stay_independent(self):
        """Two workflows' event streams merged round-robin: per-workflow
        rollups must not bleed into each other."""
        a = diamond_events(fail_job="b")
        b = diamond_events(
            retries={"c": 1}, xwf="22222222-3333-4444-8555-666666666666"
        )
        merged = []
        ia = iter(a)
        ib = iter(b)
        while True:
            stopped = 0
            for it in (ia, ib):
                try:
                    merged.append(next(it))
                except StopIteration:
                    stopped += 1
            if stopped == 2:
                break
        loader = load_events(merged, batch_size=5)
        assert loader.archive.count(RollupWorkflowRow) == 2
        assert verify_rollups(loader.archive) == []


class TestCommitSequence:
    def test_bumps_once_per_applying_flush(self):
        loader = make_loader(batch_size=4)
        archive = loader.archive
        assert commit_seq(archive) == 0
        assert last_commit_ts(archive) is None
        loader.process_all(diamond_events())
        seq = commit_seq(archive)
        assert seq == loader.stats.flushes > 0
        assert last_commit_ts(archive) is not None
        # idle flush: nothing buffered, sequence must not move
        loader.flush()
        assert commit_seq(archive) == seq

    def test_advances_across_runs(self):
        loader = make_loader(batch_size=500)
        loader.process_all(diamond_events())
        first = commit_seq(loader.archive)
        loader.process_all(
            diamond_events(xwf="22222222-3333-4444-8555-666666666666")
        )
        assert commit_seq(loader.archive) > first


class TestRebuildAndVerify:
    def test_rebuild_backfills_norollup_archive(self):
        loader = load_events(diamond_events(fail_job="b"), rollup=False)
        archive = loader.archive
        assert archive.count(RollupWorkflowRow) == 0
        assert rollup_statistics(archive, wf_id=1) is None
        # scan fallback keeps workflow_statistics working meanwhile
        scanned = workflow_statistics(archive, wf_id=1)
        assert scanned.counts.jobs_failed == 1
        rebuild_rollups(archive)
        assert archive.count(RollupWorkflowRow) == 1
        assert commit_seq(archive) > 0
        assert verify_rollups(archive) == []
        _stats_equal(workflow_statistics(archive, wf_id=1), scanned)

    def test_rebuild_is_idempotent(self):
        loader = load_events(diamond_events(retries={"b": 1, "c": 1}))
        rows_before = sorted(
            dataclasses.astuple(r)[:-1]  # strip updated_seq
            for r in loader.archive.query(RollupWorkflowRow).all()
        )
        rebuild_rollups(loader.archive)
        rows_after = sorted(
            dataclasses.astuple(r)[:-1]
            for r in loader.archive.query(RollupWorkflowRow).all()
        )
        assert rows_before == rows_after
        assert verify_rollups(loader.archive) == []

    def test_verify_catches_corruption(self):
        loader = load_events(diamond_events())
        archive = loader.archive
        assert verify_rollups(archive) == []
        archive.update(
            RollupWorkflowRow, {"tasks_succeeded": 99}, {"wf_id": 1}
        )
        mismatches = verify_rollups(archive)
        assert mismatches and any("tasks_succeeded" in m for m in mismatches)

    def test_drop_rollups_bumps_sequence(self):
        loader = load_events(diamond_events())
        archive = loader.archive
        seq = commit_seq(archive)
        assert drop_rollups(archive, [1]) > 0
        assert archive.count(RollupWorkflowRow) == 0
        assert archive.count(RollupTypeRow) == 0
        assert archive.count(RollupHostRow) == 0
        assert archive.count(RollupHostBucketRow) == 0
        assert commit_seq(archive) > seq


class TestKillResume:
    """Rollups commit in the checkpoint's transaction, so a killed and
    resumed load must land on the same rollup state as a clean one."""

    @pytest.mark.parametrize("cut", [0.25, 0.6, 0.9])
    def test_resume_matches_clean_run(self, tmp_path, cut):
        from repro.loader import load_file
        from repro.netlogger.stream import read_events_with_offsets, write_events

        path = str(tmp_path / "run.bp")
        write_events(path, diamond_events(fail_job="b", retries={"c": 2}))

        clean = make_loader(f"sqlite:///{tmp_path/'clean.db'}", batch_size=6)
        load_file(path, clean)
        assert verify_rollups(clean.archive) == []
        expected = _rollup_dump(clean.archive)

        crash_db = f"sqlite:///{tmp_path/'crash.db'}"
        loader = make_loader(crash_db, batch_size=6, checkpoint_source=path)
        events = list(read_events_with_offsets(path))
        for event, offset in events[: int(len(events) * cut)]:
            loader.position = offset
            loader.process(event)
        loader.archive.close()  # kill -9: the buffered batch is lost

        resumed = make_loader(crash_db, batch_size=6, checkpoint_source=path)
        resumed.resume()
        load_file(path, resumed, resume=True)
        assert verify_rollups(resumed.archive) == []
        assert _rollup_dump(resumed.archive) == expected


def _rollup_dump(archive):
    """Rollup rows modulo updated_seq (flush counts differ by run shape)."""
    wf = sorted(
        dataclasses.astuple(r)[:-1]
        for r in archive.query(RollupWorkflowRow).all()
    )
    rest = [
        sorted(dataclasses.astuple(r) for r in archive.query(t).all())
        for t in (RollupTypeRow, RollupHostRow, RollupHostBucketRow)
    ]
    return [wf] + rest


class TestInterleavingProperty:
    """Seeded random merges of several workflows' streams: per-stream
    order is preserved (the loader's input contract) but cross-stream
    interleaving and batch boundaries are arbitrary — the rollups must
    equal a full scan for every one of them."""

    XWFS = [
        None,  # helpers' default uuid
        "22222222-3333-4444-8555-666666666666",
        "33333333-4444-4555-8666-777777777777",
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_random_interleavings_match_scan(self, seed):
        import random

        rng = random.Random(seed)
        streams = []
        for i, xwf in enumerate(self.XWFS):
            kwargs = {}
            if xwf:
                kwargs["xwf"] = xwf
            if i % 2:
                kwargs["retries"] = {"c": 1 + i}
            else:
                kwargs["fail_job"] = "b"
            streams.append(list(diamond_events(**kwargs)))
        merged = []
        while any(streams):
            merged.append(rng.choice([s for s in streams if s]).pop(0))
        loader = load_events(merged, batch_size=rng.choice([1, 3, 7, 50]))
        assert loader.archive.count(RollupWorkflowRow) == len(self.XWFS)
        assert verify_rollups(loader.archive) == []


class TestChaos:
    def test_injected_faults_leave_rollups_consistent(self):
        """Transient archive failures mid-load: the loader retries the
        flush, and because rollup deltas apply inside the same
        transaction, the retried flush must not double-count them."""
        from repro.faults import FaultPlan
        from repro.loader import make_loader as _make_loader

        plan = FaultPlan.from_dict(
            {"seed": 3, "archive": {"fail_transactions": [1, 3]}}
        )
        archive = StampedeArchive.open("sqlite:///:memory:")
        archive.db = plan.wrap_database(archive.db)
        chaotic = _make_loader(archive=archive, batch_size=5)
        events = list(diamond_events(fail_job="b", retries={"c": 2}))
        load_events(events, chaotic)
        assert plan.stats.archive_faults == 2
        assert chaotic.stats.retries >= 2
        assert verify_rollups(archive) == []

        clean = load_events(list(events), batch_size=5)
        assert _rollup_dump(archive) == _rollup_dump(clean.archive)


class TestShardedAndTiered:
    ROOTS = [f"aaaa{i:04d}-bbbb-4ccc-8ddd-eeeeeeeeeeee" for i in range(5)]

    def _workload(self):
        events = []
        for i, xwf in enumerate(self.ROOTS):
            events.extend(
                diamond_events(
                    fail_job="b" if i % 3 == 0 else None,
                    retries={"c": 1} if i % 2 else None,
                    xwf=xwf,
                )
            )
        return events

    def test_sharded_load_verifies_per_shard(self):
        from repro.archive.shard import ShardSet, ShardedLoader

        shard_set = ShardSet.create(None, 4)
        loader = ShardedLoader(shard_set, batch_size=10)
        loader.process_all(self._workload())
        loader.close()
        total = 0
        for archive in shard_set.archives:
            assert verify_rollups(archive) == []
            total += archive.count(RollupWorkflowRow)
        assert total == len(self.ROOTS)
        # the federated commit sequence is the sum across shards, so it
        # stays monotone no matter which shard flushed
        fed = shard_set.federated()
        assert commit_seq(fed) == sum(
            commit_seq(a) for a in shard_set.archives
        )
        shard_set.close()

    def test_tiering_drops_rollups_and_bumps_seq(self, tmp_path):
        from repro.archive.shard import ShardSet, ShardedLoader
        from repro.archive.tier import tier_finished

        shard_set = ShardSet.create(tmp_path / "shards", 2)
        loader = ShardedLoader(shard_set, batch_size=10)
        loader.process_all(self._workload())
        loader.close()
        before = sum(commit_seq(a) for a in shard_set.archives)
        assert (
            sum(a.count(RollupWorkflowRow) for a in shard_set.archives)
            == len(self.ROOTS)
        )

        report = tier_finished(shard_set)
        assert report.tiered_roots == len(self.ROOTS)
        # the hierarchies' rollups left with them, atomically...
        for archive in shard_set.archives:
            assert archive.count(RollupWorkflowRow) == 0
            assert verify_rollups(archive) == []
        # ...and the commit sequence moved, so read caches invalidate
        assert sum(commit_seq(a) for a in shard_set.archives) > before

        # the long-term tier has no rollups; statistics still work there
        # through the scan fallback
        fed = shard_set.federated()
        root = StampedeQuery(fed).root_workflows()[0]
        assert rollup_statistics(fed, wf_id=root.wf_id) is None
        scanned = workflow_statistics(fed, wf_id=root.wf_id)
        assert scanned.counts.jobs_total > 0
        shard_set.close()


class TestHierarchy:
    def test_dart_subworkflows_match_scan(self):
        from repro.dart import run_dart_experiment
        from repro.dart.sweep import generate_commands
        from repro.triana.appender import MemoryAppender

        sink = MemoryAppender()
        run_dart_experiment(
            sink, seed=7, commands=generate_commands()[:48], chunk_size=16
        )
        loader = load_events(list(sink.events), batch_size=100)
        assert loader.archive.count(RollupWorkflowRow) > 1  # root + bundles
        assert verify_rollups(loader.archive) == []
        query = StampedeQuery(loader.archive)
        root = query.root_workflows()[0]
        _stats_equal(
            workflow_statistics(loader.archive, wf_id=root.wf_id),
            workflow_statistics(
                loader.archive, wf_id=root.wf_id, prefer_rollup=False
            ),
        )


class TestCli:
    def test_rebuild_verify_status(self, tmp_path, capsys):
        db = tmp_path / "run.db"
        loader = load_events(
            diamond_events(),
            conn_string=f"sqlite:///{db}",
            rollup=False,
        )
        loader.archive.close()
        conn = f"sqlite:///{db}"
        assert rollup_main(["rebuild", conn]) == 0
        assert rollup_main(["verify", conn]) == 0
        assert rollup_main(["status", conn]) == 0
        out = capsys.readouterr().out
        assert "commit_seq" in out

    def test_verify_fails_on_divergence(self, tmp_path):
        db = tmp_path / "bad.db"
        loader = load_events(diamond_events(), conn_string=f"sqlite:///{db}")
        loader.archive.update(
            RollupWorkflowRow, {"jobs_succeeded": 0}, {"wf_id": 1}
        )
        loader.archive.close()
        assert rollup_main(["verify", f"sqlite:///{db}"]) == 1
