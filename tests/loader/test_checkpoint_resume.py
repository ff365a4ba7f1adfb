"""Checkpoint/resume: a loader killed mid-run continues without duplicates.

The contract under test is exactly-once archiving: the checkpoint row
commits in the same transaction as the batch it describes, so after a
crash the archive and the recorded source position can never disagree.
A resumed run must therefore produce an archive byte-for-byte equivalent
(row counts AND surrogate keys) to an uninterrupted one.
"""
import dataclasses
import sqlite3
from contextlib import closing

import pytest

from repro.archive.merge import canonical_dump, diff_canonical
from repro.archive.shard import ShardedLoader, ShardSet
from repro.archive.store import StampedeArchive
from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.core.rollup import verify_rollups
from repro.loader import load_file, load_from_bus, make_loader
from repro.loader.checkpoint import CheckpointManager
from repro.loader.monitord import Monitord
from repro.loader.stampede_loader import StampedeLoader
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
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import read_events_with_offsets, write_events
from repro.replay.soak import mixed_trace, storm_stream
from repro.schema.stampede import Events

from tests.helpers import XWF, diamond_events, rollup_dump

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


class TestResumeContract:
    @pytest.mark.parametrize("sink", ["StampedeLoader", "ShardedLoader"])
    def test_resume_without_a_checkpoint_starts_at_zero(self, tmp_path, sink):
        """Every driver starts where ``resume()`` says, so a sink without
        a checkpoint answers 0 instead of refusing, and an uncheckpointed
        Monitord follows its file from the first byte."""
        if sink == "ShardedLoader":
            shard_set = ShardSet.create(None, 2)
            assert ShardedLoader(shard_set).resume() == 0
            shard_set.close()
        else:
            assert make_loader().resume() == 0

        path = tmp_path / "run.bp"
        write_events(str(path), diamond_events())
        follower = make_loader()
        with Monitord(str(path), follower, poll_interval=0.005) as monitord:
            pass  # context exit stops after the terminal state lands
        assert monitord.events_loaded == len(diamond_events())
        assert follower.stats.resumes == 0
        assert dump_archive(follower.archive) == dump_archive(
            load_file(str(path)).archive
        )


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
        load_file(path, resumed)

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
        load_file(path, again)
        assert dump_archive(again.archive) == expected
        # counters restored from checkpoint; nothing re-processed
        assert again.stats.events_processed == events_loaded

    def test_resume_without_prior_checkpoint_loads_everything(self, tmp_path):
        path = self._bp_file(tmp_path)
        loader = make_loader(
            f"sqlite:///{tmp_path/'fresh.db'}", checkpoint_source=path
        )
        load_file(path, loader)
        assert loader.archive.count(InvocationRow) == 5
        assert loader.stats.resumes == 0  # nothing to resume from

    def test_cli_resume_roundtrip(self, tmp_path, capsys):
        from repro.loader.nl_load import main

        path = self._bp_file(tmp_path)
        db = tmp_path / "cli.db"
        conn = f"connString=sqlite:///{db}"
        assert main([path, "stampede_loader", conn, "--checkpoint"]) == 0
        # the second run continues where the checkpoint says: nothing left
        assert main([path, "stampede_loader", conn, "--checkpoint", "-v"]) == 0
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
        with Monitord(str(path), loader2):
            pass  # context exit stops after the terminal state lands
        assert dump_archive(loader2.archive) == expected


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
            poll_timeout=0.01,
        )
        assert dump_archive(archive2) == expected
        assert loader2.stats.events_processed == len(events)


@pytest.fixture(scope="module")
def mixed():
    return mixed_trace(seed=11)


def _restarted_diamond():
    """The retry diamond, then a rescue run after its ``xwf.end``: a second
    ``xwf.start`` (``restart_count=1``) re-running job d on a new host."""
    events = diamond_events(retries={"b": 1})
    t = events[-1].ts
    d2 = {"xwf.id": XWF, "job.id": "d", "job_inst.id": 2}

    def ev(name, dt, **attrs):
        return NLEvent(name, t + dt, {**d2, **attrs})

    return events + [
        NLEvent(Events.XWF_START, t + 1.0, {"xwf.id": XWF, "restart_count": 1}),
        ev(Events.JOB_INST_SUBMIT_START, 2.0, **{"sched.id": "d.2"}),
        ev(Events.JOB_INST_HOST_INFO, 2.5, site="local", hostname="node2"),
        ev(Events.JOB_INST_MAIN_START, 3.0),
        ev(
            Events.INV_END,
            7.0,
            **{
                "inv.id": 1,
                "task.id": "d",
                "start_time": t + 3.0,
                "dur": 4.0,
                "exitcode": 0,
                "transformation": "tr_d",
                "executable": "/bin/d",
            },
        ),
        ev(
            Events.JOB_INST_MAIN_END,
            7.0,
            site="local",
            status=0,
            exitcode=0,
            **{"local.dur": 4.0},
        ),
        NLEvent(
            Events.XWF_END, t + 8.0, {"xwf.id": XWF, "restart_count": 1, "status": 0}
        ),
    ]


def _counting_warms(loader):
    warmed = []
    warm = loader.rollup.warm

    def counting(wf_id):
        warmed.append(wf_id)
        return warm(wf_id)

    loader.rollup.warm = counting
    return warmed


class TestArchiveIsTheLoaderState:
    """The archive is the only durable copy of the resolver state: a
    loader warms a workflow from its committed rows on a cache miss and
    drops it once its root's termination commits."""

    @pytest.mark.parametrize("workload", ["mixed", "retry_diamond"])
    def test_fresh_loader_at_every_commit_boundary(self, tmp_path, mixed, workload):
        """Open a fresh strict loader, with no checkpoint, on the archive as
        every commit left it, and feed it the events after that commit:
        each result is the one sequential load."""
        if workload == "mixed":
            events, batch_size = [r.as_event() for r in mixed], 500
        else:
            events, batch_size = diamond_events(retries={"b": 1}), 5
        live = tmp_path / "live.db"
        sequential = make_loader(f"sqlite:///{live}", batch_size=batch_size)
        boundaries = []

        def snapshot(loader):
            copy = tmp_path / f"commit{len(boundaries)}.db"
            with closing(sqlite3.connect(live)) as src, closing(
                sqlite3.connect(copy)
            ) as dst:
                src.backup(dst)
            boundaries.append((loader.stats.events_processed, copy))

        sequential.on_flush = snapshot
        sequential.process_all(events)
        expected = canonical_dump(sequential.archive)
        expected_rollups = rollup_dump(sequential.archive)
        boundaries = [(n, copy) for n, copy in boundaries if n < len(events)]
        assert len(boundaries) >= 10

        for committed, copy in boundaries:
            fresh = make_loader(f"sqlite:///{copy}", batch_size=batch_size)
            fresh.process_all(events[committed:])
            assert diff_canonical(expected, canonical_dump(fresh.archive)) == []
            assert rollup_dump(fresh.archive) == expected_rollups
            assert verify_rollups(fresh.archive) == []
            fresh.archive.close()

    def test_resume_ignores_parent_style_checkpoint_state(self, tmp_path):
        """Checkpoints written before the archive was the loader's state
        carry ``workflows`` and ``rollup`` parts; resume ignores them, and
        a new checkpoint no longer carries any cache."""
        path = tmp_path / "diamond.bp"
        write_events(str(path), diamond_events(retries={"b": 1}))
        clean = make_loader(f"sqlite:///{tmp_path/'clean.db'}", batch_size=7)
        load_file(str(path), clean)

        db = f"sqlite:///{tmp_path/'old.db'}"
        loader = make_loader(db, batch_size=7, checkpoint_source=str(path))
        events = list(read_events_with_offsets(str(path)))
        for event, offset in events[: len(events) // 2]:
            loader.position = offset
            loader.process(event)
        ckpt = loader.checkpoint.load()
        assert set(ckpt.state) == {"version", "deferred_subwf", "stats"}
        stale = {
            "wf_id": 99, "task_ids": {"a": 99}, "job_ids": {}, "job_instances": [],
            "host_ids": [], "jobstate_seq": {}, "static_done": True,
        }
        with loader.archive.transaction():
            loader.checkpoint.save(
                ckpt.position,
                {
                    **ckpt.state,
                    "workflows": {XWF: stale},
                    "rollup": {"jobs": {"99": [99, 1, 1, 0]}, "hosts": {"99": "x"}},
                },
            )
        loader.archive.close()

        resumed = make_loader(db, batch_size=7, checkpoint_source=str(path))
        load_file(str(path), resumed)
        assert diff_canonical(
            canonical_dump(clean.archive), canonical_dump(resumed.archive)
        ) == []
        assert rollup_dump(resumed.archive) == rollup_dump(clean.archive)
        assert verify_rollups(resumed.archive) == []

    def test_drop_and_rewarm_inside_one_loader(self):
        """Row at a time, the root's end commits alone and drops it, so
        the restart's first event re-warms it; in one batch nothing is
        dropped before the end.  Both land on the same archive."""
        events = _restarted_diamond()
        row_at_a_time = make_loader(batch_size=1)
        one_batch = make_loader(batch_size=10**6)
        rewarmed, unwarmed = _counting_warms(row_at_a_time), _counting_warms(one_batch)
        row_at_a_time.process_all(events)
        one_batch.process_all(events)
        assert rewarmed == [1]
        assert unwarmed == []
        assert diff_canonical(
            canonical_dump(one_batch.archive), canonical_dump(row_at_a_time.archive)
        ) == []
        assert rollup_dump(row_at_a_time.archive) == rollup_dump(one_batch.archive)
        for loader in (row_at_a_time, one_batch):
            assert verify_rollups(loader.archive) == []
            assert loader._workflows == {}

    def test_terminated_hierarchies_leave_the_caches(self, mixed):
        loader = make_loader()
        loader.process_all(r.as_event() for r in storm_stream(mixed, 3))
        assert loader._workflows == {}
        tracking = loader.rollup
        assert not any(
            (
                tracking._task_rows, tracking._task_outcome,
                tracking._orphan_outcome, tracking._jobs, tracking._inst,
                tracking._inst_host, tracking._inst_subwf, tracking._inst_wall,
                tracking._hosts, tracking._pending_host,
            )
        )
