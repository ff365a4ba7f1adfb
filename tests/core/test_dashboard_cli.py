import json
import subprocess
import sys
import urllib.request

from repro.core.dashboard import Dashboard, main
from repro.loader import load_events
from repro.netlogger.stream import write_events

from tests.helpers import await_line, child_env, diamond_events


class TestGanttEndpoint:
    def test_payload(self):
        archive = load_events(diamond_events()).archive
        with Dashboard(archive) as dash:
            with urllib.request.urlopen(
                dash.url + "/api/workflow/1/gantt", timeout=5
            ) as resp:
                payload = json.loads(resp.read())
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert row["host"] == "node1"
            assert row["submit"] <= row["start"] <= row["end"]


class TestDashboardCli:
    def test_once_mode(self, tmp_path, capsys):
        from repro.loader.nl_load import main as nl_main

        bp = tmp_path / "run.bp"
        db = tmp_path / "run.db"
        write_events(bp, diamond_events())
        nl_main([str(bp), "stampede_loader", f"connString=sqlite:///{db}"])
        rc = main([f"sqlite:///{db}", "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "http://127.0.0.1:" in out

    def test_module_entry_prints_its_url_into_a_pipe(self, tmp_path):
        """``python -m repro.core.dashboard`` serves, and a parent
        reading its stdout through a pipe gets the URL while it runs —
        not when the buffer is flushed at exit."""
        db = tmp_path / "run.db"
        dashboard = subprocess.Popen(
            [sys.executable, "-m", "repro.core.dashboard", f"sqlite:///{db}"],
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = await_line(dashboard.stdout, "stampede dashboard at")
            url = line.rsplit(" ", 1)[-1].strip()
            with urllib.request.urlopen(url + "/api/workflows", timeout=5) as resp:
                assert json.loads(resp.read()) == {"workflows": []}
        finally:
            dashboard.kill()
            dashboard.wait(timeout=10)
            dashboard.stdout.close()
