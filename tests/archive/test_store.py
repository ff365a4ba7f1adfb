import pytest

from repro.archive import ALL_TABLES, StampedeArchive
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)

from tests.helpers import STORAGE_MODES, sqlite_path


@pytest.fixture(params=STORAGE_MODES)
def archive(request, tmp_path):
    a = StampedeArchive.open("sqlite:///" + sqlite_path(request.param, tmp_path))
    yield a
    a.close()


class TestSchema:
    def test_fig3_tables_present(self):
        names = {t.name for t in ALL_TABLES}
        fig3 = {
            "workflow",
            "workflowstate",
            "task",
            "task_edge",
            "job",
            "job_edge",
            "job_instance",
            "jobstate",
            "invocation",
            "host",
            "obs_event",
        }
        rollups = {
            "rollup_workflow",
            "rollup_type",
            "rollup_host",
            "rollup_host_bucket",
            "rollup_meta",
        }
        assert names == fig3 | rollups


class TestStore:
    def test_insert_and_query_workflow(self, archive):
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u-1", dag_file_name="d.dag"))
        row = archive.query(WorkflowRow).eq("wf_uuid", "u-1").first()
        assert row is not None and row.wf_id == 1
        assert row.dag_file_name == "d.dag"

    def test_next_id_sequences(self, archive):
        assert archive.next_id("workflow") == 1
        assert archive.next_id("workflow") == 2
        assert archive.next_id("job") == 1  # independent sequences

    def test_next_id_resumes_after_existing_rows(self):
        a = StampedeArchive.open("sqlite:///:memory:")
        a.insert(WorkflowRow(wf_id=1, wf_uuid="u-1"))
        a.insert(WorkflowRow(wf_id=2, wf_uuid="u-2"))
        assert a.next_id("workflow") == 3

    def test_next_id_seeds_from_max_not_count(self, archive):
        # Non-contiguous ids (deleted rows, partial loads): a count-based
        # seed would reissue id 2 and collide with the live id 5.
        archive.insert(WorkflowRow(wf_id=1, wf_uuid="u-1"))
        archive.insert(WorkflowRow(wf_id=5, wf_uuid="u-5"))
        assert archive.next_id("workflow") == 6

    def test_next_id_after_reopening_archive(self, tmp_path):
        path = tmp_path / "reopen.db"
        first = StampedeArchive.open(f"sqlite:///{path}")
        ids = [first.next_id("workflow") for _ in range(3)]
        for i in ids:
            first.insert(WorkflowRow(wf_id=i, wf_uuid=f"u-{i}"))
        first.close()
        second = StampedeArchive.open(f"sqlite:///{path}")
        assert second.next_id("workflow") == 4  # continues, never reissues
        second.close()

    def test_insert_many_mixed_types(self, archive):
        n = archive.insert_many(
            [
                WorkflowRow(wf_id=1, wf_uuid="u"),
                TaskRow(task_id=1, wf_id=1, abs_task_id="t1"),
                TaskRow(task_id=2, wf_id=1, abs_task_id="t2"),
                JobRow(job_id=1, wf_id=1, exec_job_id="j1"),
            ]
        )
        assert n == 4
        assert archive.count(TaskRow) == 2
        assert archive.count(JobRow) == 1

    def test_update(self, archive):
        archive.insert(
            JobInstanceRow(job_instance_id=1, job_id=1, job_submit_seq=1)
        )
        changed = archive.update(
            JobInstanceRow,
            {"exitcode": 0, "local_duration": 4.5},
            {"job_instance_id": 1},
        )
        assert changed == 1
        row = archive.query(JobInstanceRow).eq("job_instance_id", 1).first()
        assert row.exitcode == 0
        assert row.local_duration == 4.5

    def test_entity_query_operators(self, archive):
        for i in range(5):
            archive.insert(
                JobStateRow(job_instance_id=1, state=f"S{i}", timestamp=float(i))
            )
        rows = (
            archive.query(JobStateRow)
            .where("timestamp", ">=", 2.0)
            .order_by("timestamp", descending=True)
            .all()
        )
        assert [r.state for r in rows] == ["S4", "S3", "S2"]

    def test_query_first_none(self, archive):
        assert archive.query(HostRow).eq("host_id", 42).first() is None

    def test_first_does_not_mutate_query(self, archive):
        for i in range(3):
            archive.insert(
                JobStateRow(job_instance_id=1, state=f"S{i}", timestamp=float(i))
            )
        q = archive.query(JobStateRow).eq("job_instance_id", 1).order_by("timestamp")
        first = q.first()
        assert first.state == "S0"
        assert len(q.all()) == 3  # first() must not leave a limit behind
        assert q.count() == 3

    def test_count_uses_predicates(self, archive):
        for i in range(6):
            archive.insert(
                JobStateRow(job_instance_id=i % 2, state="S", timestamp=float(i))
            )
        assert archive.query(JobStateRow).eq("job_instance_id", 0).count() == 3
        assert archive.query(JobStateRow).where("timestamp", ">=", 4.0).count() == 2

    def test_count_respects_limit_fallback(self, archive):
        for i in range(5):
            archive.insert(
                JobStateRow(job_instance_id=1, state="S", timestamp=float(i))
            )
        assert archive.query(JobStateRow).limit(2).count() == 2

    def test_non_entity_rejected(self, archive):
        with pytest.raises(TypeError):
            archive.insert(object())

    def test_invocation_roundtrip(self, archive):
        archive.insert(
            InvocationRow(
                invocation_id=1,
                job_instance_id=1,
                wf_id=1,
                task_submit_seq=1,
                start_time=10.0,
                remote_duration=74.0,
                exitcode=0,
                transformation="dart::shs",
                abs_task_id="exec0",
            )
        )
        (inv,) = archive.query(InvocationRow).eq("wf_id", 1).all()
        assert inv.remote_duration == 74.0
        assert inv.abs_task_id == "exec0"

    def test_workflowstate_roundtrip(self, archive):
        archive.insert(
            WorkflowStateRow(
                wf_id=1, state="WORKFLOW_STARTED", timestamp=5.0, restart_count=0
            )
        )
        (st,) = archive.query(WorkflowStateRow).eq("wf_id", 1).all()
        assert st.state == "WORKFLOW_STARTED"
        assert st.status is None
