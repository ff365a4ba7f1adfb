import pytest

from repro.core.analyzer import analyze, render_analysis
from repro.loader import load_events
from repro.triana.appender import MemoryAppender
from repro.dart.workflow import run_dart_experiment
from repro.dart.sweep import sweep_grid

from tests.helpers import diamond_events


class TestAnalyzeFlat:
    def test_success_analysis(self):
        loader = load_events(diamond_events())
        analysis = analyze(loader.archive)
        assert analysis.ok
        assert analysis.total_jobs == 4
        assert analysis.succeeded == 4
        assert analysis.failed == 0
        assert analysis.failed_jobs == []
        assert analysis.status == 0

    def test_failure_analysis(self):
        loader = load_events(diamond_events(fail_job="c"))
        analysis = analyze(loader.archive)
        assert not analysis.ok
        assert analysis.failed == 1
        (report,) = analysis.failed_jobs
        assert report.exec_job_id == "c"
        assert report.exitcode == 1
        assert report.last_state == "JOB_FAILURE"
        assert report.hostname == "node1"
        assert report.stderr_text == "boom"

    def test_retry_then_success_not_failed(self):
        loader = load_events(diamond_events(retries={"b": 2}))
        analysis = analyze(loader.archive)
        assert analysis.ok
        assert analysis.failed == 0

    def test_unknown_workflow(self):
        loader = load_events(diamond_events())
        with pytest.raises(ValueError):
            analyze(loader.archive, wf_uuid="missing")

    def test_render_contains_failure_details(self):
        loader = load_events(diamond_events(fail_job="c"))
        text = render_analysis(analyze(loader.archive))
        assert "failed job c" in text
        assert "boom" in text
        assert "FAILED" in text

    def test_render_success(self):
        loader = load_events(diamond_events())
        text = render_analysis(analyze(loader.archive))
        assert "succeeded: 4" in text
        assert "failed: 0" in text


class TestAnalyzeHierarchy:
    @pytest.fixture(scope="class")
    def dart_archive(self):
        sink = MemoryAppender()
        commands = [c.line for c in sweep_grid()[:12]]
        res = run_dart_experiment(sink, seed=2, n_nodes=2, chunk_size=4,
                                  commands=commands)
        loader = load_events(sink.events)
        return loader.archive, res

    def test_root_identified(self, dart_archive):
        archive, res = dart_archive
        analysis = analyze(archive)
        assert analysis.wf_uuid == res.root_xwf_id
        assert analysis.total_jobs == 1  # the meta monitor

    def test_successful_subs_not_recursed_by_default(self, dart_archive):
        archive, _ = dart_archive
        analysis = analyze(archive)
        assert analysis.sub_analyses == []

    def test_full_recursion_flag(self, dart_archive):
        archive, _ = dart_archive
        analysis = analyze(archive, recurse_into_successful=True)
        assert len(analysis.sub_analyses) == 3  # 12 commands / 4 per bundle
        for sub in analysis.sub_analyses:
            assert sub.ok
            assert sub.total_jobs == 4 + 3  # execs + unit/zipper/Output_0

    def test_analyzer_cli(self, tmp_path, capsys, dart_archive):
        # exercise main() against a file-backed archive
        from repro.core.analyzer import main
        from repro.netlogger.stream import write_events
        from repro.triana.appender import MemoryAppender as MA

        sink = MA()
        commands = [c.line for c in sweep_grid()[:4]]
        run_dart_experiment(sink, seed=3, n_nodes=1, chunk_size=4,
                            commands=commands)
        bp = tmp_path / "run.bp"
        write_events(bp, sink.events)
        from repro.loader.nl_load import main as nl_main

        db = tmp_path / "run.db"
        nl_main([str(bp), "stampede_loader", f"connString=sqlite:///{db}"])
        rc = main([f"sqlite:///{db}"])
        assert rc == 0
        assert "succeeded" in capsys.readouterr().out


class TestAnalyzerOverShards:
    def test_shard_directory_reads_like_the_single_archive(self, tmp_path, capsys):
        from repro.archive.shard import shard_for
        from repro.core.analyzer import main

        from tests.archive.test_shard import ROOT_UUIDS, load_sharded_and_single

        assert {shard_for(u, 2) for u in ROOT_UUIDS} == {0, 1}
        shards, single = load_sharded_and_single(tmp_path)
        capsys.readouterr()
        exit_codes = set()
        for uuid in ROOT_UUIDS:  # every third one has a failed job
            rc_single = main([single, "--wf-uuid", uuid])
            out_single = capsys.readouterr().out
            rc_sharded = main([shards, "--wf-uuid", uuid])
            assert (rc_sharded, capsys.readouterr().out) == (rc_single, out_single)
            exit_codes.add(rc_sharded)
        assert exit_codes == {0, 1}
