"""Checkpoint/resume: a loader killed mid-run continues without duplicates.

The contract under test is exactly-once archiving: the checkpoint row
commits in the same transaction as the batch it describes, so after a
crash the archive and the recorded source position can never disagree.
A resumed run must therefore produce an archive byte-for-byte equivalent
(row counts AND surrogate keys) to an uninterrupted one.
"""
import dataclasses

import pytest

from repro.archive.store import StampedeArchive
from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.loader import load_file, load_from_bus, make_loader
from repro.loader.checkpoint import CheckpointManager
from repro.loader.monitord import Monitord
from repro.loader.stampede_loader import LoaderError, StampedeLoader
from repro.model.entities import (
    HostRow,
    InvocationRow,
    JobEdgeRow,
    JobInstanceRow,
    JobRow,
    JobStateRow,
    TaskEdgeRow,
    TaskRow,
    WorkflowRow,
    WorkflowStateRow,
)
from repro.netlogger.stream import read_events_with_offsets, write_events

from tests.helpers import diamond_events

ALL_ROWS = [
    WorkflowRow,
    WorkflowStateRow,
    TaskRow,
    TaskEdgeRow,
    JobRow,
    JobEdgeRow,
    JobInstanceRow,
    JobStateRow,
    InvocationRow,
    HostRow,
]


def dump_archive(archive: StampedeArchive):
    """Every row of every Fig. 3 table, surrogate keys included."""
    return {
        row_type.__name__: sorted(
            dataclasses.astuple(r) for r in archive.query(row_type).all()
        )
        for row_type in ALL_ROWS
    }


class TestCheckpointManager:
    def test_save_load_roundtrip(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        ckpt = CheckpointManager(archive, "run.bp")
        assert ckpt.load() is None
        ckpt.save(123, {"workflows": {}})
        loaded = ckpt.load()
        assert loaded.position == 123
        assert loaded.state == {"workflows": {}}
        ckpt.save(456, {"k": "v"})  # upsert, not a second row
        assert ckpt.load().position == 456

    def test_sources_are_independent(self):
        archive = StampedeArchive.open("sqlite:///:memory:")
        a = CheckpointManager(archive, "a.bp")
        b = CheckpointManager(archive, "b.bp")
        a.save(10, {})
        assert b.load() is None
        b.save(20, {})
        assert a.load().position == 10

    def test_resume_without_manager_raises(self):
        loader = make_loader()
        with pytest.raises(LoaderError):
            loader.resume()


class TestFileKillAndResume:
    def _bp_file(self, tmp_path):
        path = tmp_path / "diamond.bp"
        write_events(str(path), diamond_events(retries={"b": 1}))
        return str(path)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        """Kill the loader mid-run (unflushed batch lost, as in kill -9),
        resume, and compare the full archive against a clean run."""
        path = self._bp_file(tmp_path)

        clean = make_loader(f"sqlite:///{tmp_path/'clean.db'}", batch_size=7)
        load_file(path, clean)
        expected = dump_archive(clean.archive)

        # -- run 1: crash partway through ---------------------------------
        crash_db = f"sqlite:///{tmp_path/'crash.db'}"
        loader = make_loader(crash_db, batch_size=7, checkpoint_source=path)
        events = list(read_events_with_offsets(path))
        for event, offset in events[: len(events) * 2 // 3]:
            loader.position = offset
            loader.process(event)
        committed = loader.checkpoint.load()
        assert committed is not None and committed.position > 0
        flushes_before_crash = loader.stats.flushes
        assert flushes_before_crash > 1
        loader.archive.close()  # die without flushing the partial batch

        # -- run 2: fresh process resumes from the checkpoint --------------
        resumed = make_loader(crash_db, batch_size=7, checkpoint_source=path)
        start = resumed.resume()
        assert start == committed.position
        assert resumed.stats.resumes == 1
        load_file(path, resumed, resume=True)

        assert dump_archive(resumed.archive) == expected
        assert resumed.stats.events_processed == len(events)

    def test_resume_on_complete_run_is_a_noop(self, tmp_path):
        path = self._bp_file(tmp_path)
        db = f"sqlite:///{tmp_path/'done.db'}"
        loader = make_loader(db, checkpoint_source=path)
        load_file(path, loader)
        expected = dump_archive(loader.archive)
        events_loaded = loader.stats.events_processed
        loader.archive.close()

        again = make_loader(db, checkpoint_source=path)
        load_file(path, again, resume=True)
        assert dump_archive(again.archive) == expected
        # counters restored from checkpoint; nothing re-processed
        assert again.stats.events_processed == events_loaded

    def test_resume_without_prior_checkpoint_loads_everything(self, tmp_path):
        path = self._bp_file(tmp_path)
        loader = make_loader(
            f"sqlite:///{tmp_path/'fresh.db'}", checkpoint_source=path
        )
        load_file(path, loader, resume=True)
        assert loader.archive.count(InvocationRow) == 5
        assert loader.stats.resumes == 0  # nothing to resume from

    def test_cli_resume_roundtrip(self, tmp_path, capsys):
        from repro.loader.nl_load import main

        path = self._bp_file(tmp_path)
        db = tmp_path / "cli.db"
        conn = f"connString=sqlite:///{db}"
        assert main([path, "stampede_loader", conn, "--checkpoint"]) == 0
        assert main([path, "stampede_loader", conn, "--resume", "-v"]) == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert archive.count(InvocationRow) == 5  # not doubled

    @pytest.mark.parametrize("checkpointing", [False, True])
    def test_on_error_callable_sees_every_bad_line(self, tmp_path, checkpointing):
        """One reader, one policy: the callback fires with the byte
        offset after the bad line whether or not the loader checkpoints."""
        path = self._bp_file(tmp_path)
        good = open(path, "rb").read()
        lines = good.splitlines(keepends=True)
        bad = b"this is not a bp line ===\n"
        with open(path, "wb") as fh:
            fh.write(b"".join(lines[:3]) + bad + b"".join(lines[3:]))
        loader = make_loader(checkpoint_source=path if checkpointing else None)
        seen = []
        load_file(
            path, loader, on_error=lambda pos, line, exc: seen.append((pos, line))
        )
        assert seen == [
            (len(b"".join(lines[:3]) + bad), bad.decode().strip())
        ]
        assert loader.archive.count(InvocationRow) == 5
        with pytest.raises(ValueError):
            load_file(path, make_loader())  # default policy still raises

    def test_cli_checkpoint_rejects_stdin(self):
        from repro.loader.nl_load import main

        with pytest.raises(SystemExit):
            main(["-", "stampede_loader", "--checkpoint"])


class TestMonitordResume:
    def test_monitord_resumes_after_kill(self, tmp_path):
        events = diamond_events()
        path = tmp_path / "run.bp"
        write_events(str(path), events)
        db = f"sqlite:///{tmp_path/'mon.db'}"

        clean = make_loader(f"sqlite:///{tmp_path/'mclean.db'}")
        load_file(str(path), clean)
        expected = dump_archive(clean.archive)

        # first follower dies after a few committed batches
        loader = make_loader(db, batch_size=5, checkpoint_source=str(path))
        offsets = list(read_events_with_offsets(str(path)))
        for event, offset in offsets[:20]:
            loader.position = offset
            loader.process(event)
        assert loader.checkpoint.load() is not None
        loader.archive.close()

        loader2 = make_loader(db, batch_size=5, checkpoint_source=str(path))
        with Monitord(str(path), loader2, resume=True):
            pass  # context exit stops after the terminal state lands
        assert dump_archive(loader2.archive) == expected

    def test_monitord_resume_requires_checkpoint(self, tmp_path):
        loader = make_loader()
        with pytest.raises(ValueError):
            Monitord(str(tmp_path / "x.bp"), loader, resume=True)


class TestBusKillAndResume:
    def test_redelivered_messages_skip_committed_prefix(self, tmp_path):
        """Crash a bus consumer mid-stream; the requeued messages plus a
        resumed consumer must yield the uninterrupted archive."""
        events = diamond_events()

        clean = make_loader(f"sqlite:///{tmp_path/'bclean.db'}")
        for e in events:
            clean.process(e)
        clean.flush()
        expected = dump_archive(clean.archive)

        broker = Broker()
        broker.declare_queue("stampede", durable=True)
        broker.bind_queue("stampede", "stampede.#")
        EventPublisher(broker).publish_all(events)

        db = f"sqlite:///{tmp_path/'bus.db'}"
        archive = StampedeArchive.open(db)
        loader = StampedeLoader(
            archive,
            batch_size=8,
            checkpoint=CheckpointManager(archive, "stampede"),
        )
        boom = {"left": 30}
        original_process = loader.process

        def dying_process(event):
            if boom["left"] <= 0:
                raise RuntimeError("simulated crash")
            boom["left"] -= 1
            original_process(event)

        loader.process = dying_process
        with pytest.raises(RuntimeError):
            load_from_bus(
                broker, queue_name="stampede", loader=loader, durable=True,
                poll_timeout=0.01,
            )
        committed = loader.checkpoint.load()
        assert committed is not None and 0 < committed.position < len(events)
        archive.close()

        # unacked messages were requeued by the finally-cancel; a resumed
        # consumer skips tags at or below the checkpoint and loads the rest
        archive2 = StampedeArchive.open(db)
        loader2 = StampedeLoader(
            archive2,
            batch_size=8,
            checkpoint=CheckpointManager(archive2, "stampede"),
        )
        load_from_bus(
            broker, queue_name="stampede", loader=loader2, durable=True,
            poll_timeout=0.01, resume=True,
        )
        assert dump_archive(archive2) == expected
        assert loader2.stats.events_processed == len(events)
