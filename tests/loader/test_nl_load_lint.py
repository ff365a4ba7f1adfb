"""nl-load --lint: strict loading with event quarantine."""
import os

import pytest

from repro.archive import StampedeArchive
from repro.archive.merge import canonical_dump
from repro.archive.shard import open_archive
from repro.lint import Severity
from repro.loader.nl_load import _LintDecode, load_file, main
from repro.model.entities import InvocationRow, JobInstanceRow, WorkflowRow
from repro.netlogger.stream import write_events

from tests.helpers import diamond_events

FIXTURES = os.path.join(
    os.path.dirname(__file__), "..", "lint", "fixtures"
)
CORRUPTED_BP = os.path.join(FIXTURES, "corrupted.bp")


def load_linted(path, quarantine=None):
    """The ``--lint`` composition: one load_file, lint as its decode step."""
    lint = _LintDecode(path, quarantine=quarantine)
    try:
        loader = load_file(path, lint=lint)
    finally:
        lint.close()
    return loader, lint.findings, lint.quarantined


class TestLoadFileLinted:
    def test_clean_stream_loads_everything(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        loader, findings, quarantined = load_linted(str(bp))
        assert findings == []
        assert quarantined == 0
        archive = loader.archive
        assert archive.count(InvocationRow) == 4

    def test_corrupted_stream_quarantines_bad_lines(self, tmp_path):
        q = tmp_path / "bad.bp"
        loader, findings, quarantined = load_linted(
            CORRUPTED_BP, quarantine=str(q)
        )
        assert quarantined > 0
        assert any(f.severity >= Severity.ERROR for f in findings)
        # quarantine file holds the rejected lines verbatim
        lines = q.read_text().splitlines()
        assert len(lines) == quarantined
        assert "this line is not best-practices format at all" in lines

    def test_good_events_still_load(self):
        loader, findings, quarantined = load_linted(CORRUPTED_BP)
        archive = loader.archive
        # the clean prefix (wf.plan, job infos, ...) made it into the archive
        assert archive.count(WorkflowRow) >= 1
        assert archive.count(JobInstanceRow) >= 1

    def test_quarantined_plus_loaded_covers_stream(self, tmp_path):
        events = diamond_events()
        bp = tmp_path / "run.bp"
        # corrupt one event: drop xwf.start's mandatory restart_count
        lines = []
        for e in events:
            line = e.to_bp()
            if e.event == "stampede.xwf.start":
                line = line.replace(" restart_count=0", "")
            lines.append(line)
        bp.write_text("\n".join(lines) + "\n")
        loader, findings, quarantined = load_linted(str(bp))
        assert quarantined == 1
        assert {f.rule_id for f in findings} >= {"STL103"}


class TestNlLoadLintCli:
    def test_clean_input_exits_zero(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        assert main([str(bp), "--lint"]) == 0
        assert capsys.readouterr().err == ""

    def test_corrupted_input_exits_one_and_reports(self, tmp_path, capsys):
        q = tmp_path / "quarantine.bp"
        rc = main([CORRUPTED_BP, "--lint", "--quarantine", str(q)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "STL" in err
        assert "quarantined" in err
        assert q.exists() and q.read_text().strip()

    def test_quarantine_requires_lint(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        with pytest.raises(SystemExit):
            main([str(bp), "--quarantine", str(tmp_path / "q.bp")])

    def test_lint_mode_archives_good_events(self, tmp_path, capsys):
        db = tmp_path / "out.db"
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        rc = main([str(bp), "stampede_loader",
                   f"connString=sqlite:///{db}", "--lint"])
        assert rc == 0
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert archive.count(InvocationRow) == 4


class TestLintIntoShards:
    @pytest.mark.parametrize("bp_name", ["clean", "corrupted"])
    def test_lint_shard_dir_matches_lint_single_db(self, tmp_path, capsys, bp_name):
        """--lint composes with --shard-dir: same survivors, same
        quarantine bytes, same findings, same exit code."""
        if bp_name == "clean":
            bp = str(tmp_path / "run.bp")
            write_events(bp, diamond_events())
        else:
            bp = CORRUPTED_BP
        single_db = tmp_path / "single.db"
        rc_single = main([bp, "stampede_loader", f"connString=sqlite:///{single_db}",
                          "--lint", "--quarantine", str(tmp_path / "q1.bp")])
        err_single = capsys.readouterr().err
        shard_dir = tmp_path / "shards"
        rc_sharded = main([bp, "--shard-dir", str(shard_dir), "--shards", "2",
                           "--lint", "--quarantine", str(tmp_path / "q2.bp")])
        err_sharded = capsys.readouterr().err

        assert rc_sharded == rc_single == (0 if bp_name == "clean" else 1)
        assert (tmp_path / "q2.bp").read_bytes() == (tmp_path / "q1.bp").read_bytes()
        assert err_sharded.replace("q2.bp", "q1.bp") == err_single
        single = StampedeArchive.open(f"sqlite:///{single_db}")
        sharded = open_archive(str(shard_dir))
        assert canonical_dump(sharded) == canonical_dump(single)
        assert single.count(WorkflowRow) >= 1
