import pytest

from repro.archive import StampedeArchive
from repro.archive.merge import canonical_dump, diff_canonical
from repro.bus.broker import Broker
from repro.bus.client import EventPublisher
from repro.core.rollup import verify_rollups
from repro.loader import (
    LoaderError,
    LoaderStats,
    StampedeLoader,
    load_events,
    load_file,
    load_from_bus,
    make_loader,
)
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
from repro.netlogger.events import NLEvent
from repro.netlogger.stream import write_events
from repro.query import StampedeQuery
from repro.replay.soak import mixed_trace
from repro.schema.stampede import Events

from tests.helpers import XWF, dart_events, diamond_events, rollup_dump


class TestLoaderBasics:
    def test_loads_diamond(self):
        loader = load_events(diamond_events())
        a = loader.archive
        assert a.count(WorkflowRow) == 1
        assert a.count(TaskRow) == 4
        assert a.count(JobRow) == 4
        assert a.count(JobInstanceRow) == 4
        assert a.count(InvocationRow) == 4
        assert a.count(HostRow) == 1
        assert a.count(WorkflowStateRow) == 2

    def test_workflow_row_fields(self):
        loader = load_events(diamond_events())
        wf = loader.archive.query(WorkflowRow).first()
        assert wf.wf_uuid == XWF
        assert wf.dag_file_name == "diamond.dag"
        assert wf.submit_hostname == "submit01"
        assert wf.root_wf_id == wf.wf_id
        assert wf.parent_wf_id is None

    def test_task_job_mapping_applied(self):
        loader = load_events(diamond_events())
        tasks = loader.archive.query(TaskRow).all()
        jobs = {j.exec_job_id: j.job_id for j in loader.archive.query(JobRow).all()}
        for task in tasks:
            assert task.job_id == jobs[task.abs_task_id]

    def test_job_instance_finalized(self):
        loader = load_events(diamond_events())
        for inst in loader.archive.query(JobInstanceRow).all():
            assert inst.exitcode == 0
            assert inst.local_duration == 4.0
            assert inst.site == "local"
            assert inst.host_id is not None

    def test_jobstates_ordered(self):
        loader = load_events(diamond_events())
        states = loader.archive.query(JobStateRow).eq("job_instance_id", 1).all()
        names = [s.state for s in states]
        assert names == [
            "SUBMIT",
            "EXECUTE",
            "JOB_TERMINATED",
            "JOB_SUCCESS",
        ]

    def test_host_deduplicated(self):
        loader = load_events(diamond_events())
        assert loader.archive.count(HostRow) == 1

    def test_failure_recorded(self):
        loader = load_events(diamond_events(fail_job="c"))
        q = StampedeQuery(loader.archive)
        wf = q.workflows()[0]
        failed = q.failed_job_instances(wf.wf_id)
        assert [j.exec_job_id for j, _ in failed] == ["c"]
        assert q.workflow_status(wf.wf_id) == -1

    def test_retries_create_instances(self):
        loader = load_events(diamond_events(retries={"b": 2}))
        insts = loader.archive.query(JobInstanceRow).all()
        assert len(insts) == 6  # 4 jobs + 2 extra attempts for b

    def test_stats(self):
        loader = load_events(diamond_events())
        stats = loader.stats
        assert stats.events_processed == len(diamond_events())
        assert stats.rows_inserted > 0
        assert stats.events_by_type[Events.INV_END] == 4

    def test_validation_mode(self):
        loader = load_events(diamond_events(), validate=True)
        assert loader.stats.validation_failures == 0


class TestLoaderStrictness:
    def test_unknown_workflow_strict(self):
        loader = make_loader()
        with pytest.raises(LoaderError):
            loader.process(
                NLEvent(Events.XWF_START, 1.0, {"xwf.id": XWF, "restart_count": 0})
            )

    def test_unknown_workflow_tolerant(self):
        loader = make_loader(strict=False)
        loader.process(
            NLEvent(Events.XWF_START, 1.0, {"xwf.id": XWF, "restart_count": 0})
        )
        loader.flush()
        assert loader.archive.count(WorkflowRow) == 1

    def test_execution_before_static_strict(self):
        events = diamond_events()
        plan = events[0]
        submit = next(e for e in events if e.event == Events.JOB_INST_SUBMIT_START)
        loader = make_loader()
        loader.process(plan)
        with pytest.raises(LoaderError):
            loader.process(submit)

    def test_execution_before_static_tolerant(self):
        events = diamond_events()
        plan = events[0]
        submit = next(e for e in events if e.event == Events.JOB_INST_SUBMIT_START)
        loader = make_loader(strict=False)
        loader.process(plan)
        loader.process(submit)
        loader.flush()
        assert loader.archive.count(JobRow) == 1  # placeholder synthesized

    def test_duplicate_task_info(self):
        loader = make_loader()
        events = diamond_events()
        task_info = next(e for e in events if e.event == Events.TASK_INFO)
        loader.process(events[0])
        loader.process(task_info)
        with pytest.raises(LoaderError):
            loader.process(task_info)

    def test_unknown_event_type(self):
        loader = make_loader()
        with pytest.raises(LoaderError):
            loader.process(NLEvent("stampede.bogus", 0.0, {"xwf.id": XWF}))
        tolerant = make_loader(strict=False)
        tolerant.process(NLEvent("stampede.bogus", 0.0, {"xwf.id": XWF}))

    def test_inv_end_unknown_task(self):
        loader = make_loader()
        events = diamond_events()
        for event in events:
            if event.event == Events.INV_END:
                bad = event.copy()
                bad.attrs["task.id"] = "ghost"
                with pytest.raises(LoaderError):
                    loader.process(bad)
                break
            loader.process(event)


def _rounded(dump):
    """A rollup dump with its float sums to 1e-6: how a batch groups the
    additions moves their last bits (the traces carry 6 decimals)."""
    return [
        [tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows]
        for rows in dump
    ]


@pytest.fixture(scope="module")
def parity_workloads():
    """Each workload's events with its default-batch archive dumps."""
    workloads = {}
    for name, events in (
        ("mixed", [r.as_event() for r in mixed_trace(seed=11)]),
        ("retry_diamond", diamond_events(retries={"b": 1})),
        ("dart", dart_events()),
    ):
        archive = load_events(events).archive
        workloads[name] = (
            events, canonical_dump(archive), _rounded(rollup_dump(archive))
        )
    return workloads


class TestBatching:
    @pytest.mark.parametrize("batch_size", [1, 7, 500, 10**6])
    def test_batch_sizes_equivalent(self, batch_size, parity_workloads):
        """At batch 1 every update targets a committed row (``update_many``);
        at 10**6 every update folds into its insert.  Each batch size
        writes the default batch's archive."""
        loader = load_events(diamond_events(), batch_size=batch_size)
        assert loader.archive.count(InvocationRow) == 4
        assert loader.archive.count(JobStateRow) == 16
        for events, rows, rollups in parity_workloads.values():
            archive = load_events(events, batch_size=batch_size).archive
            assert diff_canonical(rows, canonical_dump(archive)) == []
            assert _rounded(rollup_dump(archive)) == rollups
            assert verify_rollups(archive) == []

    def test_small_batches_flush_more(self):
        big = load_events(diamond_events(), batch_size=1000)
        small = load_events(diamond_events(), batch_size=1)
        assert small.stats.flushes > big.stats.flushes


class TestFileAndBus:
    def test_load_file(self, tmp_path):
        path = tmp_path / "run.bp"
        write_events(path, diamond_events())
        loader = load_file(path)
        assert loader.archive.count(InvocationRow) == 4

    def test_load_from_bus(self):
        broker = Broker()
        # Subscribe BEFORE publishing (queues only receive post-binding).
        loader = make_loader()
        publisher = EventPublisher(broker)
        consumer_loader_started = []

        from repro.bus.client import EventConsumer

        consumer = EventConsumer(broker, "stampede.#", queue_name="stampede")
        consumer.cancel()  # just verifying explicit naming works

        # Re-subscribe through load_from_bus's own consumer:
        # publish first into a durable queue, then drain.
        queue_consumer = broker.subscribe("stampede.#", queue_name="q1", durable=True, auto_delete=False)
        publisher.publish_all(diamond_events())
        # hand the pre-filled queue to the loader by draining it
        for msg in queue_consumer:
            loader.process(msg.body)
        loader.flush()
        assert loader.archive.count(InvocationRow) == 4

    def test_load_from_bus_api(self):
        broker = Broker()
        # establish the subscription first so published events are captured
        archive = StampedeArchive.open("sqlite:///:memory:")
        loader = StampedeLoader(archive)

        import threading

        result = {}

        def consume():
            result["loader"] = load_from_bus(
                broker,
                queue_name="stampede",
                loader=loader,
                durable=True,
                until=lambda ld: ld.archive.count(WorkflowStateRow) >= 2,
            )

        t = threading.Thread(target=consume)
        # pre-declare the queue so no events are lost before the thread binds
        broker.declare_queue("stampede", durable=True)
        broker.bind_queue("stampede", "stampede.#")
        t.start()
        EventPublisher(broker).publish_all(diamond_events())
        t.join(timeout=10)
        assert not t.is_alive()
        assert archive.count(InvocationRow) == 4

    def test_nl_load_cli(self, tmp_path):
        from repro.loader.nl_load import main

        bp = tmp_path / "run.bp"
        db = tmp_path / "run.db"
        write_events(bp, diamond_events())
        rc = main([str(bp), "stampede_loader", f"connString=sqlite:///{db}", "-v"])
        assert rc == 0
        archive = StampedeArchive.open(f"sqlite:///{db}")
        assert archive.count(InvocationRow) == 4


class TestLoaderStatsSnapshot:
    def test_snapshot_is_self_consistent(self):
        stats = LoaderStats()
        stats.events_processed = 10
        stats.rows_inserted = 12
        stats.flushes = 3
        stats.wall_seconds = 2.0
        stats.record_flush_latency(0.5)
        stats.record_queue_depth(4)
        stats.record_queue_depth(8)
        snap = stats.snapshot()
        assert snap["events_processed"] == 10
        assert snap["events_per_second"] == pytest.approx(5.0)
        assert snap["queue_depth_max"] == 8
        assert snap["queue_depth_avg"] == pytest.approx(6.0)
        assert snap["latency_percentiles"]["p50"] == pytest.approx(0.5)
        # the snapshot is detached: later mutations don't leak into it
        stats.events_by_type["x"] = 99
        assert "x" not in snap["events_by_type"]

    def test_snapshot_atomic_under_concurrent_mutation(self):
        """snapshot() must never observe a half-updated latency window or
        a depth sum/samples pair from two different batches while the
        parallel pipeline mutates the stats from another thread."""
        import threading

        stats = LoaderStats()
        rounds = 2000
        stop = threading.Event()
        errors = []

        def writer():
            for i in range(rounds):
                stats.record_flush_latency(0.001 * (i % 50))
                stats.record_queue_depth(i % 32)
                with stats.lock:
                    stats.flushes += 1
                    stats.rows_inserted += 3
            stop.set()

        def reader():
            while not stop.is_set():
                snap = stats.snapshot()
                try:
                    # rows are only ever added 3-per-flush under the lock,
                    # so any torn read shows up as a broken ratio
                    assert snap["rows_inserted"] == snap["flushes"] * 3
                    pcts = snap["latency_percentiles"]
                    assert 0.0 <= pcts["p50"] <= pcts["p99"] <= 0.05
                    if snap["queue_depth_samples"]:
                        assert 0.0 <= snap["queue_depth_avg"] <= snap["queue_depth_max"]
                except AssertionError as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert stats.snapshot()["flushes"] == rounds
