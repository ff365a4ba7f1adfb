import json
import subprocess
import sys
import urllib.request

import pytest

from repro.archive.store import StampedeArchive
from repro.core.dashboard import Dashboard, DashboardData, main
from repro.loader import load_events
from repro.loader.nl_load import main as nl_main
from repro.netlogger.stream import write_events
from repro.obs.metrics import MetricsRegistry, set_registry

from tests.archive.test_federate import _strip_ids
from tests.archive.test_shard import load_sharded_and_single
from tests.helpers import await_line, child_env, diamond_events


@pytest.fixture
def process_registry():
    """``main()`` binds its dashboard to the process registry; give an
    in-process call one of its own."""
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


@pytest.fixture
def served(tmp_path):
    """``served(spec)`` -> URL of a ``python -m repro.core.dashboard spec``
    child, killed at teardown."""
    children = []

    def start(spec):
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.core.dashboard", spec],
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        children.append(child)
        line = await_line(child.stdout, "stampede dashboard at")
        return line.rsplit(" ", 1)[-1].strip()

    yield start
    for child in children:
        child.kill()
        child.wait(timeout=10)
        child.stdout.close()


def fetch(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


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
    def test_once_mode(self, tmp_path, capsys, process_registry):
        bp = tmp_path / "run.bp"
        db = tmp_path / "run.db"
        write_events(bp, diamond_events())
        nl_main([str(bp), "stampede_loader", f"connString=sqlite:///{db}"])
        rc = main([f"sqlite:///{db}", "--once"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "http://127.0.0.1:" in out

    def test_module_entry_prints_its_url_into_a_pipe(self, tmp_path, served):
        """``python -m repro.core.dashboard`` serves, and a parent
        reading its stdout through a pipe gets the URL while it runs —
        not when the buffer is flushed at exit."""
        url = served(f"sqlite:///{tmp_path / 'run.db'}")
        assert json.loads(fetch(url + "/api/workflows")) == {"workflows": []}

    def test_metrics_export_the_read_cache_counters(self, tmp_path, served):
        """``main()`` hands its dashboard the process registry, so the
        ``bind_live`` counters show up on ``/metrics``."""
        url = served(f"sqlite:///{tmp_path / 'run.db'}")
        fetch(url + "/api/workflows")
        fetch(url + "/api/workflows")
        samples = dict(
            line.split(" ", 1)
            for line in fetch(url + "/metrics").splitlines()
            if line.startswith("stampede_dashboard_cache_")
        )
        assert (
            float(samples["stampede_dashboard_cache_hits_total"])
            + float(samples["stampede_dashboard_cache_misses_total"])
        ) == 2

    def test_shard_directory_serves_like_the_single_archive(self, tmp_path, served):
        shards, single = load_sharded_and_single(tmp_path)

        def by_uuid(payload):
            return sorted(
                (row["wf_uuid"], sorted(_strip_ids(row).items()))
                for row in payload["workflows"]
            )

        sharded = json.loads(fetch(served(shards) + "/api/workflows"))
        archive = StampedeArchive.open(single)
        want = DashboardData(archive).workflows_payload()
        archive.close()
        assert len(want["workflows"]) == 6
        assert by_uuid(sharded) == by_uuid(json.loads(json.dumps(want)))
