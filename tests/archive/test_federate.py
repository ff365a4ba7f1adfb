"""Federated reads over a shard set: query parity, tiering, ORM delete.

The contract: callers built against a single :class:`StampedeArchive`
(``StampedeQuery``, ``workflow_statistics``, ``DashboardData``,
``canonical_dump``) must see the *same answers* through a
:class:`FederatedArchive` over N shards — surrogate ids aside, which the
federation namespaces per source.  Tiering must move finished
hierarchies to the long-term store without the federated view changing
at all.
"""
import dataclasses

import pytest

from repro.archive import tier as tier_module
from repro.archive.federate import FederationError
from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.shard import ShardSet, ShardedLoader, open_archive
from repro.archive.store import StampedeArchive
from repro.archive.tier import TIER_FILE, TierError, tier_finished
from repro.core.dashboard import DashboardData
from repro.core.rollup import verify_rollups
from repro.core.statistics import workflow_statistics
from repro.model.entities import JobRow, WorkflowRow, WorkflowStateRow
from repro.query.api import StampedeQuery
from repro.schema.stampede import Events

from tests.archive.test_shard import ROOT_UUIDS, load_single, workload_events
from tests.helpers import STORAGE_MODES, diamond_events, sqlite_path


@pytest.fixture(scope="class")
def parity():
    """One workload loaded twice: single archive and 4 in-memory shards."""
    events = workload_events()
    single = load_single(events)
    shard_set = ShardSet.create(None, 4)
    sharded = ShardedLoader(shard_set, batch_size=50)
    sharded.process_all(events)
    sharded.close()
    yield single, shard_set.federated()
    single.close()
    shard_set.close()


def _strip_ids(payload):
    """Drop surrogate-id fields (namespaced per source) from a payload."""
    if isinstance(payload, dict):
        return {
            k: _strip_ids(v)
            for k, v in payload.items()
            if not (k == "wf_id" or k.endswith("_id"))
        }
    if isinstance(payload, list):
        return [_strip_ids(v) for v in payload]
    return payload


class TestQueryParity:
    def test_canonical_dump_identical(self, parity):
        single, federated = parity
        assert diff_canonical(canonical_dump(single), canonical_dump(federated)) == []

    def test_root_workflows_and_counts(self, parity):
        single, federated = parity
        sq, fq = StampedeQuery(single), StampedeQuery(federated)
        assert sorted(w.wf_uuid for w in fq.root_workflows()) == sorted(
            w.wf_uuid for w in sq.root_workflows()
        )
        assert federated.query(WorkflowRow).count() == single.query(
            WorkflowRow
        ).count()

    def test_workflow_statistics_identical(self, parity):
        single, federated = parity
        for uuid in ROOT_UUIDS:
            s = workflow_statistics(single, wf_uuid=uuid)
            f = workflow_statistics(federated, wf_uuid=uuid)
            assert f.wf_uuid == s.wf_uuid
            assert f.wall_time == s.wall_time
            assert f.cumulative_job_wall_time == s.cumulative_job_wall_time
            assert f.counts == s.counts
            assert f.breakdown == s.breakdown
            assert f.hosts == s.hosts
            # job rows: every field except the namespaced surrogate ids
            def rows(stats):
                return sorted(
                    tuple(sorted(_strip_ids(dataclasses.asdict(j)).items()))
                    for j in stats.jobs
                )
            assert rows(f) == rows(s)

    def test_dashboard_payloads_identical(self, parity):
        single, federated = parity
        sd, fd = DashboardData(single), DashboardData(federated)
        by_uuid = lambda payload: sorted(  # noqa: E731
            (_strip_ids(row)["wf_uuid"], tuple(sorted(_strip_ids(row).items())))
            for row in payload["workflows"]
        )
        assert by_uuid(fd.workflows_payload()) == by_uuid(sd.workflows_payload())
        s_ids = {w.wf_uuid: w.wf_id for w in StampedeQuery(single).root_workflows()}
        f_ids = {w.wf_uuid: w.wf_id for w in StampedeQuery(federated).root_workflows()}
        for uuid in ROOT_UUIDS:
            assert _strip_ids(fd.workflow_payload(f_ids[uuid])) == _strip_ids(
                sd.workflow_payload(s_ids[uuid])
            )
            assert _strip_ids(fd.jobs_payload(f_ids[uuid])) == _strip_ids(
                sd.jobs_payload(s_ids[uuid])
            )


class TestIdNamespacing:
    def test_encode_decode_roundtrip(self, parity):
        _, federated = parity
        n = len(federated.sources)
        for local, idx in [(1, 0), (7, n - 1), (12345, 2 % n)]:
            assert federated.decode_id(federated.encode_id(local, idx)) == (local, idx)

    def test_eq_on_global_id_routes_to_owning_source(self, parity):
        _, federated = parity
        for wf in federated.query(WorkflowRow).all():
            hit = federated.query(WorkflowRow).eq("wf_id", wf.wf_id).first()
            assert hit is not None and hit.wf_uuid == wf.wf_uuid

    def test_in_condition_groups_per_source(self, parity):
        _, federated = parity
        ids = [w.wf_id for w in federated.query(WorkflowRow).all()][:5]
        hits = federated.query(WorkflowRow).where("wf_id", "in", ids).all()
        assert sorted(w.wf_id for w in hits) == sorted(ids)

    def test_foreign_keys_stay_consistent(self, parity):
        """A job's namespaced wf_id must resolve to its own workflow."""
        _, federated = parity
        for job in federated.query(JobRow).limit(10).all():
            wf = federated.query(WorkflowRow).eq("wf_id", job.wf_id).first()
            assert wf is not None

    def test_range_ops_on_id_columns_refused(self, parity):
        _, federated = parity
        with pytest.raises(FederationError):
            federated.query(WorkflowRow).where("wf_id", ">", 3).all()

    def test_order_limit_offset(self, parity):
        single, federated = parity
        expected = [
            w.wf_uuid
            for w in single.query(WorkflowRow).order_by("wf_uuid").all()
        ]
        got = [
            w.wf_uuid
            for w in federated.query(WorkflowRow).order_by("wf_uuid").all()
        ]
        assert got == expected
        page = (
            federated.query(WorkflowRow).order_by("wf_uuid").limit(2, offset=1).all()
        )
        assert [w.wf_uuid for w in page] == expected[1:3]

    def test_write_surface_is_read_only(self, parity):
        _, federated = parity
        with pytest.raises(FederationError):
            federated.insert(WorkflowRow(wf_id=1, wf_uuid="nope"))
        with pytest.raises(FederationError):
            federated.delete(WorkflowRow, {"wf_id": 1})
        with pytest.raises(FederationError):
            federated.next_id("workflow")


class TestTiering:
    @pytest.fixture()
    def shard_dir(self, tmp_path):
        """4 sqlite shards: 4 finished roots + 2 still-running roots
        (their stream stops before stampede.xwf.end)."""
        unfinished = {ROOT_UUIDS[1], ROOT_UUIDS[4]}
        events = [
            e
            for e in workload_events()
            if not (
                e.event == Events.XWF_END and e.attrs.get("xwf.id") in unfinished
            )
        ]
        shard_set = ShardSet.create(tmp_path / "shards", 4)
        sharded = ShardedLoader(shard_set, batch_size=50)
        sharded.process_all(events)
        sharded.close()
        yield shard_set, unfinished
        shard_set.close()

    def test_tier_moves_only_finished_roots(self, shard_dir):
        shard_set, unfinished = shard_dir
        before = canonical_dump(shard_set.federated())
        report = tier_finished(shard_set)
        assert report.tiered_roots == 4
        assert report.skipped_roots == 2
        assert set(report.tiered_uuids) == set(ROOT_UUIDS) - unfinished
        assert report.rows_moved > 0

        # hot shards now hold only the running hierarchies
        hot = [
            w.wf_uuid
            for archive in shard_set.archives
            for w in archive.query(WorkflowRow).all()
        ]
        assert sorted(hot) == sorted(unfinished)

        # ...and the federated view (hot + long-term) is unchanged
        assert diff_canonical(before, canonical_dump(shard_set.federated())) == []

    def test_statistics_survive_tiering(self, shard_dir):
        shard_set, unfinished = shard_dir
        tiered_uuid = next(u for u in ROOT_UUIDS if u not in unfinished)
        expected = workflow_statistics(shard_set.federated(), wf_uuid=tiered_uuid)
        tier_finished(shard_set)
        after = workflow_statistics(shard_set.federated(), wf_uuid=tiered_uuid)
        assert after.wall_time == expected.wall_time
        assert after.counts == expected.counts
        assert after.breakdown == expected.breakdown

    def test_tier_is_idempotent(self, shard_dir):
        shard_set, _ = shard_dir
        first = tier_finished(shard_set)
        again = tier_finished(shard_set)
        assert again.tiered_roots == 0 and again.rows_moved == 0
        assert sorted(_tier_roots(shard_set)) == sorted(first.tiered_uuids)

    def test_longterm_archive_is_queryable_alone(self, shard_dir):
        shard_set, _ = shard_dir
        report = tier_finished(shard_set)
        cold = StampedeArchive.open(
            f"sqlite:///{shard_set.longterm_dir() / TIER_FILE}"
        )
        assert cold.query(WorkflowRow).count() >= report.tiered_roots
        states = cold.query(WorkflowStateRow).all()
        assert states, "workflow states must survive the tier round-trip"
        assert verify_rollups(cold) == []
        cold.close()

    def test_interrupted_move_is_finished_not_duplicated(
        self, shard_dir, monkeypatch
    ):
        """A kill after the tier commit and before the hot delete: the
        next pass finds the roots in the tier and only deletes."""
        shard_set, unfinished = shard_dir
        before = canonical_dump(shard_set.federated())
        delete_tree = tier_module._delete_tree
        calls = []

        def killed_once(archive, tables):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("killed between tier commit and hot delete")
            return delete_tree(archive, tables)

        monkeypatch.setattr(tier_module, "_delete_tree", killed_once)
        with pytest.raises(OSError):
            tier_finished(shard_set)
        report = tier_finished(shard_set)
        assert set(report.tiered_uuids) == set(ROOT_UUIDS) - unfinished

        federated = shard_set.federated()
        assert diff_canonical(before, canonical_dump(federated)) == []
        assert sorted(_tier_roots(shard_set)) == sorted(
            set(ROOT_UUIDS) - unfinished
        )
        for source in federated.sources:
            assert verify_rollups(source) == []

    def test_root_back_with_other_rows_is_refused(self, shard_dir):
        """A tiered root id that comes back with different rows is neither
        copied again nor deleted: both copies stay, loudly."""
        shard_set, _ = shard_dir
        tier_finished(shard_set)
        root = ROOT_UUIDS[0]  # tiered with job b failed, no retries
        sharded = ShardedLoader(shard_set, batch_size=50)
        sharded.process_all(diamond_events(retries={"c": 1}, xwf=root))
        sharded.close()
        with pytest.raises(TierError, match=root):
            tier_finished(shard_set)
        assert _tier_roots(shard_set).count(root) == 1
        hot = shard_set.archives[shard_set.shard_for(root)]
        assert hot.query(WorkflowRow).eq("wf_uuid", root).count() == 1

    def test_open_reader_keeps_every_workflow(self, shard_dir):
        """A reader opened before a pass sees the moved workflows in the
        tier afterwards, and the hot ones under the same global ids."""
        shard_set, unfinished = shard_dir
        in_process = shard_set.federated()
        separate = open_archive(str(shard_set.directory))
        before = canonical_dump(in_process)

        def hot_ids(reader):
            return {
                w.wf_uuid: w.wf_id
                for w in reader.query(WorkflowRow).all()
                if w.wf_uuid in unfinished
            }

        ids = hot_ids(in_process)
        assert hot_ids(separate) == ids
        tier_finished(shard_set)
        for reader in (in_process, separate):
            assert diff_canonical(before, canonical_dump(reader)) == []
            assert hot_ids(reader) == ids
        separate.close()

    def test_opening_a_tiered_dir_replays_nothing(self, shard_dir, monkeypatch):
        shard_set, _ = shard_dir
        report = tier_finished(shard_set)

        def refused(*args, **kwargs):
            raise AssertionError("opening the tier must not replay it")

        monkeypatch.setattr("repro.core.rollup.rebuild_rollups", refused)
        monkeypatch.setattr(StampedeArchive, "insert_many", refused)
        reader = open_archive(str(shard_set.directory))
        tier = reader.sources[-1]
        assert tier.count(WorkflowRow) >= report.tiered_roots
        reader.close()

    def test_jsonl_tier_is_refused(self, tmp_path):
        root = tmp_path / "shards"
        ShardSet.create(root, 2).close()
        (root / "longterm" / "segment-000001.jsonl").write_text("{}\n")
        with pytest.raises(TierError, match="segment-000001.jsonl"):
            ShardSet.open(root)
        with pytest.raises(TierError, match="segment-000001.jsonl"):
            open_archive(str(root))


def _tier_roots(shard_set):
    """Root uuids in the long-term tier, one entry per stored root."""
    return [
        w.wf_uuid
        for w in shard_set.longterm.query(WorkflowRow).all()
        if w.parent_wf_id is None
    ]


class TestArchiveDelete:
    """The ORM delete surface tiering is built on."""

    @pytest.fixture(params=STORAGE_MODES)
    def archive(self, request, tmp_path):
        a = StampedeArchive.open(
            "sqlite:///" + sqlite_path(request.param, tmp_path)
        )
        for i in range(1, 5):
            a.insert(WorkflowRow(wf_id=i, wf_uuid=f"u-{i}", dag_file_name="d.dag"))
        yield a
        a.close()

    def test_delete_by_scalar(self, archive):
        assert archive.delete(WorkflowRow, {"wf_id": 2}) == 1
        assert archive.query(WorkflowRow).eq("wf_id", 2).first() is None
        assert archive.query(WorkflowRow).count() == 3

    def test_delete_by_in_list(self, archive):
        assert archive.delete(WorkflowRow, {"wf_id": [1, 3, 99]}) == 2
        assert sorted(w.wf_id for w in archive.query(WorkflowRow).all()) == [2, 4]

    def test_delete_empty_list_is_noop(self, archive):
        assert archive.delete(WorkflowRow, {"wf_id": []}) == 0
        assert archive.query(WorkflowRow).count() == 4

    def test_delete_no_match(self, archive):
        assert archive.delete(WorkflowRow, {"wf_uuid": "nope"}) == 0

    def test_reinsert_after_delete(self, archive):
        archive.delete(WorkflowRow, {"wf_id": 1})
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u-1b"))
        hit = archive.query(WorkflowRow).eq("wf_id", 1).first()
        assert hit is not None and hit.wf_uuid == "u-1b"
