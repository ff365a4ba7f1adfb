import pytest

from repro.core.reports import (
    render_all,
    render_breakdown,
    render_jobs,
    render_jobs_timing,
    render_summary,
)
from repro.core.statistics import (
    host_breakdown,
    job_rows,
    job_type_breakdown,
    workflow_statistics,
)
from repro.loader import load_events
from repro.query import StampedeQuery

from tests.helpers import diamond_events


@pytest.fixture
def loaded():
    loader = load_events(diamond_events())
    return loader.archive, StampedeQuery(loader.archive)


@pytest.fixture
def loaded_with_failure():
    loader = load_events(diamond_events(fail_job="c", retries={"b": 1}))
    return loader.archive, StampedeQuery(loader.archive)


class TestWorkflowStatistics:
    def test_wall_time(self, loaded):
        archive, q = loaded
        stats = workflow_statistics(archive)
        # xwf.start at t=10, xwf.end after 4 jobs of ~5.5s + 1
        assert stats.wall_time == pytest.approx(23.0, abs=0.1)

    def test_cumulative_job_wall_time(self, loaded):
        archive, _ = loaded
        stats = workflow_statistics(archive)
        assert stats.cumulative_job_wall_time == pytest.approx(16.0)

    def test_counts(self, loaded):
        archive, _ = loaded
        counts = workflow_statistics(archive).counts
        assert counts.tasks_total == 4
        assert counts.tasks_succeeded == 4
        assert counts.jobs_total == 4
        assert counts.jobs_retries == 0
        assert counts.subwf_total == 0

    def test_counts_with_failure_and_retry(self, loaded_with_failure):
        archive, _ = loaded_with_failure
        counts = workflow_statistics(archive).counts
        assert counts.jobs_failed == 1
        assert counts.jobs_succeeded == 3
        assert counts.jobs_retries == 1
        assert counts.tasks_failed == 1

    def test_breakdown_by_transformation(self, loaded):
        archive, q = loaded
        wf = q.workflows()[0]
        breakdown = job_type_breakdown(q, wf.wf_id)
        assert [b.type_name for b in breakdown] == ["tr_a", "tr_b", "tr_c", "tr_d"]
        for b in breakdown:
            assert b.count == 1
            assert b.min_runtime == b.max_runtime == b.mean_runtime == 4.0

    def test_breakdown_aggregates_retries(self, loaded_with_failure):
        archive, q = loaded_with_failure
        wf = q.workflows()[0]
        breakdown = {b.type_name: b for b in job_type_breakdown(q, wf.wf_id)}
        assert breakdown["tr_b"].count == 2  # retry adds an invocation
        assert breakdown["tr_b"].failed == 1
        assert breakdown["tr_b"].succeeded == 1

    def test_job_rows(self, loaded):
        archive, q = loaded
        wf = q.workflows()[0]
        rows = job_rows(q, wf.wf_id)
        assert len(rows) == 4
        for row in rows:
            assert row.site == "local"
            assert row.hostname == "node1"
            assert row.queue_time == pytest.approx(0.5)
            assert row.runtime == 4.0
            assert row.invocation_duration == 4.0
            assert row.exitcode == 0

    def test_host_breakdown(self, loaded):
        archive, q = loaded
        wf = q.workflows()[0]
        (usage,) = host_breakdown(q, wf.wf_id)
        assert usage.hostname == "node1"
        assert usage.jobs == 4
        assert usage.total_runtime == pytest.approx(16.0)
        assert sum(usage.bins.values()) == pytest.approx(16.0)

    def test_workflow_selection_errors(self, loaded):
        archive, _ = loaded
        with pytest.raises(ValueError):
            workflow_statistics(archive, wf_id=999)
        with pytest.raises(ValueError):
            workflow_statistics(archive, wf_uuid="nope")


class TestRenderers:
    def test_summary_contains_table_one_fields(self, loaded):
        archive, _ = loaded
        text = render_summary(workflow_statistics(archive))
        assert "Tasks" in text and "Jobs" in text and "Sub Workflows" in text
        assert "Workflow wall time" in text
        assert "(23 seconds)" in text
        assert "Workflow cumulative job wall time" in text
        assert "(16 seconds)" in text

    def test_breakdown_render(self, loaded):
        archive, q = loaded
        wf = q.workflows()[0]
        text = render_breakdown(job_type_breakdown(q, wf.wf_id))
        assert "tr_a" in text
        assert "Mean" in text
        lines = text.splitlines()
        assert len(lines) == 2 + 4  # header + rule + 4 types

    def test_jobs_render_both_sections(self, loaded):
        archive, q = loaded
        wf = q.workflows()[0]
        rows = job_rows(q, wf.wf_id)
        t3 = render_jobs(rows)
        t4 = render_jobs_timing(rows)
        assert "InvocationDuration" in t3
        assert "QueueTime" in t4 and "Host" in t4
        assert "node1" in t4

    def test_render_all(self, loaded):
        archive, _ = loaded
        text = render_all(workflow_statistics(archive))
        assert "breakdown.txt" in text
        assert "jobs.txt" in text

    def test_running_workflow_renders(self):
        # drop the final xwf.end: wall time unknown
        events = diamond_events()[:-1]
        loader = load_events(events)
        text = render_summary(workflow_statistics(loader.archive))
        assert "(still running)" in text


class TestCli:
    def test_statistics_main(self, tmp_path, capsys):
        from repro.core.statistics import main
        from repro.netlogger.stream import write_events
        from repro.loader.nl_load import main as nl_main

        bp = tmp_path / "run.bp"
        db = tmp_path / "run.db"
        write_events(bp, diamond_events())
        nl_main([str(bp), "stampede_loader", f"connString=sqlite:///{db}"])
        rc = main([f"sqlite:///{db}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Workflow wall time" in out
        assert "tr_a" in out


class TestReadFront:
    """The read tools share one front: no ``--wf-uuid`` reports every
    root, and a data error is one stderr line and exit 1."""

    def test_every_root_without_wf_uuid(self, tmp_path, capsys):
        from repro.archive.shard import open_archive
        from repro.core.analyzer import main as analyzer_main
        from repro.core.statistics import main

        from tests.archive.test_shard import ROOT_UUIDS, load_sharded_and_single

        shards, _ = load_sharded_and_single(tmp_path)
        archive = open_archive(shards)
        uuids = [wf.wf_uuid for wf in StampedeQuery(archive).root_workflows()]
        archive.close()
        assert sorted(uuids) == sorted(ROOT_UUIDS)
        capsys.readouterr()

        assert main([shards]) == 0
        every = capsys.readouterr()
        assert every.err == ""
        assert every.out.count("# Workflow ") == len(uuids)
        one_by_one = []
        for uuid in uuids:
            assert main([shards, "--wf-uuid", uuid]) == 0
            one_by_one.append(capsys.readouterr().out)
        assert every.out == "\n".join(one_by_one)

        out_dir = tmp_path / "reports"
        assert main([shards, "-o", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(uuids)
        for uuid in uuids:
            assert (out_dir / uuid / "summary.txt").exists()
        capsys.readouterr()

        assert analyzer_main([shards]) == 1  # some roots have a failed job
        analyzed = capsys.readouterr()
        assert analyzed.err == ""
        assert analyzed.out.count("************** Workflow ") == len(uuids)

    def test_data_errors_are_one_line_and_create_nothing(self, tmp_path, capsys):
        from repro.core.analyzer import main as analyzer_main
        from repro.core.rollup import main as rollup_main
        from repro.core.statistics import main
        from repro.loader.nl_load import main as nl_main
        from repro.netlogger.stream import write_events

        def one_line(rc, naming):
            err = capsys.readouterr().err
            assert rc == 1
            assert err.count("\n") == 1 and naming in err, err

        missing = tmp_path / "missing.db"
        one_line(main([str(missing)]), str(missing))
        one_line(analyzer_main([f"sqlite:///{missing}"]), str(missing))
        one_line(rollup_main(["status", str(missing)]), str(missing))
        assert not missing.exists()

        empty_glob = str(tmp_path / "shard-*.db")
        one_line(main([empty_glob]), empty_glob)
        one_line(analyzer_main([empty_glob]), empty_glob)
        one_line(rollup_main(["verify", empty_glob]), empty_glob)

        bp, db = tmp_path / "run.bp", f"sqlite:///{tmp_path / 'run.db'}"
        write_events(bp, diamond_events())
        nl_main([str(bp), "stampede_loader", f"connString={db}"])
        capsys.readouterr()
        one_line(main([db, "--wf-uuid", "nope"]), "'nope'")
        one_line(analyzer_main([db, "--wf-uuid", "nope"]), "'nope'")
