"""nl-load CLI flags: tolerant mode, validation, stdin, errors."""
import io
import subprocess
import sys
import time

import pytest

from repro.archive import StampedeArchive
from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.shard import open_archive
from repro.bus.broker import DEAD_LETTER_QUEUE, Broker
from repro.bus.net import BrokerServer, RemotePublisher
from repro.core.rollup import main as rollup_main
from repro.loader import DeadLetterQueue, load_events
from repro.loader.nl_load import main
from repro.model.entities import InvocationRow
from repro.netlogger.stream import write_events
from repro.replay.soak import mixed_trace

from tests.archive.test_shard import workload_events
from tests.helpers import await_line, child_env, diamond_events


class TestNlLoadCli:
    def test_verbose_stats(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        rc = main([str(bp), "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events processed" in out
        assert "events/second" in out
        assert "cached workflows : 0" in out  # the diamond terminated

    def test_stdin_input(self, tmp_path, monkeypatch, capsys):
        text = "\n".join(e.to_bp() for e in diamond_events()) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        db = tmp_path / "out.db"
        rc = main(["-", "stampede_loader", f"connString=sqlite:///{db}"])
        assert rc == 0
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert archive.count(InvocationRow) == 4

    def test_unknown_module_rejected(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        with pytest.raises(SystemExit):
            main([str(bp), "other_loader"])

    def test_tolerant_flag(self, tmp_path):
        # out-of-order stream: fails strict, loads tolerantly
        events = diamond_events()
        reordered = events[-10:] + events[:-10]
        bp = tmp_path / "weird.bp"
        write_events(bp, reordered)
        with pytest.raises(Exception):
            main([str(bp)])
        rc = main([str(bp), "--tolerant"])
        assert rc == 0

    def test_validate_flag(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        assert main([str(bp), "--validate"]) == 0

    def test_batch_size_flag(self, tmp_path, capsys):
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        rc = main([str(bp), "-b", "1", "-v"])
        assert rc == 0
        out = capsys.readouterr().out
        flushes = int(next(l for l in out.splitlines() if "flushes" in l)
                      .split(":")[1])
        assert flushes > 10  # row-at-a-time flushing

    def test_bus_loader_says_when_it_has_subscribed(self, tmp_path):
        """A publish that beats the subscription is dead-lettered at the
        broker, so ``nl-load --bus`` tells its parent — on stderr, at
        once, pipe or not — when publishing may start."""
        db = tmp_path / "out.db"
        with BrokerServer(Broker()) as server:
            loader = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.loader.nl_load",
                    "--bus", server.url, "--queue", "events",
                    "--idle-exit", "0.5",
                    "stampede_loader", f"connString=sqlite:///{db}",
                ],
                env=child_env(),
                stderr=subprocess.PIPE,
                text=True,
            )
            try:
                line = await_line(loader.stderr, "subscribed:")
                assert line == "subscribed: events\n"
                publisher = RemotePublisher(server.url)
                publisher.publish_all(diamond_events())
                publisher.close()
                assert loader.wait(timeout=30) == 0
            finally:
                loader.kill()
                loader.wait(timeout=10)
                loader.stderr.close()
            assert DEAD_LETTER_QUEUE not in server.broker.queue_names()
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert archive.count(InvocationRow) == 4


#: every refusal nl-load still makes, with the reason its message must give
REFUSALS = [
    (["--bus", "tcp://127.0.0.1:1", "--checkpoint"], "redelivery"),
    (["--bus", "tcp://127.0.0.1:1", "--lint"], "dead-letter"),
    (["{bp}", "--group", "g"], "require --bus"),
    (["connString=sqlite:///x.db"], "need an input file"),
    (["{bp}", "stampede_loader", "extra"], "unexpected arguments"),
    (["{bp}", "other_loader"], "unknown loader module"),
    (["{bp}", "--quarantine", "q.bp"], "requires --lint"),
    (["-", "--checkpoint"], "seekable"),
    (["{bp}", "--lint", "--checkpoint"], "not checkpointed"),
    (["{bp}", "--shards", "2"], "requires --shard-dir"),
    (["{bp}", "--tier-finished"], "requires --shard-dir"),
    (["--bus", "tcp://127.0.0.1:1", "--shard-dir", "d"], "--group partitions"),
    (["{bp}", "connString=sqlite:///x.db", "--shard-dir", "d"], "conflicts"),
    # the parse pool is gone, flags and all
    (["{bp}", "--workers", "2"], "unrecognized arguments"),
    (["{bp}", "--worker-mode", "process"], "unrecognized arguments"),
    (["{bp}", "--chunk-size", "64"], "unrecognized arguments"),
    # rollups are how the archive is read: a load cannot skip them
    (["{bp}", "--no-rollup"], "unrecognized arguments"),
]


class TestRefusals:
    @pytest.mark.parametrize(
        "argv, reason", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS]
    )
    def test_refused_with_reason(self, argv, reason, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bp = tmp_path / "run.bp"
        write_events(bp, diamond_events())
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(bp=bp) for arg in argv])
        assert exit_info.value.code == 2
        assert reason in capsys.readouterr().err
        assert not (tmp_path / "d").exists()  # refused before any side effect

    def test_refusal_list_is_complete(self):
        """One REFUSALS row per ``parser.error`` site in ``main``."""
        import inspect

        sites = inspect.getsource(main).count("parser.error(")
        assert sites == len([r for r in REFUSALS if "unrecognized" not in r[1]])


class TestFaultsWithShards:
    def test_one_plan_counts_attempts_across_shards(self, tmp_path, capsys):
        """``--faults`` wraps every shard's database with the plan's one
        injector: the chosen attempts fail the same way on every run, the
        retries absorb them, and the shard set matches a sequential load."""
        events = workload_events()
        bp = tmp_path / "run.bp"
        write_events(bp, events)
        plan = tmp_path / "plan.json"
        plan.write_text('{"archive": {"fail_transactions": [1, 3]}}')
        want = canonical_dump(load_events(events).archive)
        for run in ("a", "b"):
            shards = str(tmp_path / run)
            argv = [str(bp), "--shard-dir", shards, "--shards", "4"]
            assert main(argv + ["--faults", str(plan), "-v"]) == 0
            out, err = capsys.readouterr()
            assert "faults injected  : 2" in err
            assert "retries          : 2" in out
            got = canonical_dump(open_archive(shards))
            assert diff_canonical(want, got) == []
            assert rollup_main(["verify", shards]) == 0


def _bus_load(url, db, publish=()):
    """One ``nl-load --bus`` run on the durable queue ``q``: publish
    ``publish`` once it has subscribed, and wait for it to drain and exit."""
    loader = subprocess.Popen(
        [
            sys.executable, "-m", "repro.loader.nl_load",
            "--bus", url, "--queue", "q", "--idle-exit", "1",
            "stampede_loader", f"connString=sqlite:///{db}",
        ],
        env=child_env(),
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert await_line(loader.stderr, "subscribed:") == "subscribed: q\n"
        if publish:
            publisher = RemotePublisher(url)
            publisher.publish_all(publish)
            publisher.close()
        assert loader.wait(timeout=60) == 0
    finally:
        loader.kill()
        loader.wait(timeout=10)
        loader.stderr.close()


class TestRestartedBusLoader:
    def test_restarted_bus_loader_continues_running_workflows(self, tmp_path):
        """A second ``nl-load --bus`` on the same durable queue and archive
        continues the workflows the first one left running: it warms them
        from the archive instead of dead-lettering their events."""
        events = [r.as_event() for r in mixed_trace(seed=11)]
        half = len(events) // 2
        expected = canonical_dump(load_events(events).archive)
        db = tmp_path / "bus.db"
        announce = tmp_path / "bus.url"
        serve = subprocess.Popen(
            [
                sys.executable, "-m", "repro.bus.cli",
                "serve", "--port", "0", "--announce", str(announce),
            ],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while not announce.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            url = announce.read_text().strip()
            _bus_load(url, db, publish=events[:half])
            publisher = RemotePublisher(url)  # nobody consumes: q holds them
            publisher.publish_all(events[half:])
            publisher.close()
            _bus_load(url, db)
        finally:
            serve.terminate()
            serve.wait(timeout=10)
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert DeadLetterQueue(archive).count() == 0
        assert diff_canonical(expected, canonical_dump(archive)) == []
        assert rollup_main(["verify", str(db)]) == 0
