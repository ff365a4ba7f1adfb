import threading
import time

import pytest

from repro.loader import Monitord, follow_file, make_loader
from repro.loader.stampede_loader import MAX_PENDING_AGE
from repro.model.entities import InvocationRow
from repro.netlogger.stream import BPWriter
from repro.query import StampedeQuery

from tests.helpers import diamond_events


class TestFollowFile:
    def test_loads_growing_file(self, tmp_path):
        path = tmp_path / "run.bp"
        events = diamond_events()
        writer = BPWriter(path)
        loader = make_loader()
        remaining = iter(events)

        def poll():
            # append a few more events per poll; stop when drained
            wrote = 0
            for event in remaining:
                writer.write(event)
                wrote += 1
                if wrote >= 10:
                    return True
            if wrote:
                return True
            writer.close()
            return False

        loaded = follow_file(path, loader, poll)
        assert loaded == len(events)
        assert loader.archive.count(InvocationRow) == 4

    def test_flushes_incrementally(self, tmp_path):
        """The follower commits on the live flush rule — the age of the
        oldest buffered event — not on an event count."""
        path = tmp_path / "run.bp"
        uuid2 = "22222222-3333-4333-8444-555555555555"
        events = diamond_events() + diamond_events(xwf=uuid2)
        writer = BPWriter(path)
        loader = make_loader(batch_size=10_000)  # rely on follow's flushes
        chunks = [events[:60], events[60:70], events[70:]]
        flushes_at_eof = []

        def poll():
            flushes_at_eof.append(loader.stats.flushes)
            if not chunks:
                writer.close()
                return False
            for event in chunks.pop(0):
                writer.write(event)
            # the chunk just read is now older than the deadline: the next
            # line to arrive finds its commit due
            time.sleep(1.5 * MAX_PENDING_AGE)
            return True

        loaded = follow_file(path, loader, poll)
        assert loaded == len(events)
        # the first line after each pause commits what waited through it
        # (a chunk read in one go does not flush, whatever its size —
        # unless the host stalls mid-chunk, so that is not asserted here
        # but on a fake clock in test_bus_consumption.TestFlushRule)
        assert flushes_at_eof[0] == 0
        assert flushes_at_eof[2] > flushes_at_eof[1]
        assert flushes_at_eof[3] > flushes_at_eof[2]
        assert loader.archive.count(InvocationRow) == 8


class TestMonitordThread:
    def test_follows_live_run_until_termination(self, tmp_path):
        path = tmp_path / "live.bp"
        loader = make_loader()
        monitord = Monitord(path, loader, poll_interval=0.005)
        monitord.start()
        # engine writes slowly on another thread
        events = diamond_events()

        def produce():
            with BPWriter(path) as writer:
                for event in events:
                    writer.write(event)
                    time.sleep(0.001)

        producer = threading.Thread(target=produce)
        producer.start()
        producer.join()
        monitord.join(timeout=10)
        assert not monitord.running
        assert monitord.events_loaded == len(events)
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        assert q.workflow_status(wf.wf_id) == 0

    def test_waits_for_file_creation(self, tmp_path):
        path = tmp_path / "late.bp"
        loader = make_loader()
        with Monitord(path, loader, poll_interval=0.005) as monitord:
            time.sleep(0.02)  # file does not exist yet
            with BPWriter(path) as writer:
                writer.write_all(diamond_events())
            deadline = time.time() + 10
            while monitord.running and time.time() < deadline:
                time.sleep(0.01)
        assert loader.archive.count(InvocationRow) == 4

    def test_explicit_stop(self, tmp_path):
        path = tmp_path / "stop.bp"
        events = diamond_events()[:10]  # no termination event
        with BPWriter(path) as writer:
            writer.write_all(events)
        loader = make_loader()
        monitord = Monitord(path, loader, poll_interval=0.005).start()
        time.sleep(0.05)
        assert monitord.running  # still tailing: no termination seen
        monitord.stop()
        monitord.join(timeout=10)
        assert not monitord.running
        assert monitord.events_loaded == 10

    def test_double_start_rejected(self, tmp_path):
        path = tmp_path / "x.bp"
        BPWriter(path).close()
        monitord = Monitord(path, make_loader()).start()
        with pytest.raises(RuntimeError):
            monitord.start()
        monitord.stop()
        monitord.join()

    def test_multi_workflow_termination_count(self, tmp_path):
        """With sub-workflows, monitord stops after ALL terminations."""
        from tests.helpers import diamond_events as mk

        path = tmp_path / "multi.bp"
        uuid2 = "22222222-3333-4333-8444-555555555555"
        events = mk() + mk(xwf=uuid2)
        with BPWriter(path) as writer:
            writer.write_all(events)
        loader = make_loader()
        monitord = Monitord(
            path, loader, poll_interval=0.005, expected_terminations=2
        ).start()
        monitord.join(timeout=10)
        assert not monitord.running
        q = StampedeQuery(loader.archive)
        assert len(q.workflows()) == 2

    def test_follower_failure_reraised_from_join(self, tmp_path):
        """A malformed line kills the follower thread; join() (and the
        context manager) must surface that instead of returning as if the
        run had simply ended."""
        from repro.netlogger.bp import BPParseError

        path = tmp_path / "bad.bp"
        events = diamond_events()
        with BPWriter(path) as writer:
            writer.write_all(events[:5])
        with open(path, "a") as fh:
            fh.write("this is not a bp line ===\n")
        monitord = Monitord(path, make_loader(), poll_interval=0.005).start()
        with pytest.raises(BPParseError):
            monitord.join(timeout=10)
        assert not monitord.running
        with pytest.raises(BPParseError):
            with Monitord(path, make_loader(), poll_interval=0.005) as again:
                deadline = time.time() + 10
                while again.running and time.time() < deadline:
                    time.sleep(0.005)
