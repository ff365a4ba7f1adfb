"""Ingest-path invariants that outlived the parse pool: the fast
tokenizer and the strict reference scanner must produce row-identical
archives (surrogate keys included), raw BP strings on a chaotic bus
load like event objects, the ``--parse-mode``/``--profile`` CLI flags,
and the insert-path caches the loader leans on.

(The file keeps its historical name so the surviving tests keep their
ids; the pool itself — ``--workers`` and friends — was deleted because
no measurement showed it winning, see docs/loader.md.)
"""
import pytest

from repro.archive.store import StampedeArchive
from repro.faults import ChaosBroker, FaultPlan
from repro.loader import StampedeLoader, load_file, load_from_bus, make_loader
from repro.loader.nl_load import main as nl_load_main
from repro.netlogger.stream import write_events
from repro.orm import (
    Column,
    Integer,
    SqliteDatabase,
    Table,
    Text,
)
from repro.pegasus import PlannerConfig, Site, SiteCatalog, run_pegasus_workflow
from repro.triana.appender import MemoryAppender
from repro.workloads import cybershake

from tests.helpers import STORAGE_MODES, diamond_events, sqlite_path
from tests.integration.test_chaos_pipeline import QUEUE, baseline_run, bind_queue
from tests.loader.test_checkpoint_resume import dump_archive


def cybershake_events(n_ruptures: int = 5, seed: int = 0):
    sink = MemoryAppender()
    catalog = SiteCatalog(
        [Site("pool", slots=64, mean_queue_delay=2.0, hosts_per_site=16)]
    )
    run_pegasus_workflow(
        cybershake(n_ruptures=n_ruptures),
        sink,
        catalog=catalog,
        planner_config=PlannerConfig(cluster_size=8),
        seed=seed,
    )
    return list(sink.events)


@pytest.fixture(scope="module")
def cybershake_bp(tmp_path_factory):
    path = tmp_path_factory.mktemp("bp") / "cybershake.bp"
    events = cybershake_events()
    write_events(str(path), events)
    return path, len(events)


def _load(path, **kwargs):
    loader = StampedeLoader(StampedeArchive.open("sqlite:///:memory:"))
    load_file(str(path), loader, **kwargs)
    return loader


# ---------------------------------------------------------------------------
# end-to-end row identity: the parse mode must not change the archive
# ---------------------------------------------------------------------------

class TestRowIdentity:
    def test_fast_and_strict_identical(self, cybershake_bp):
        path, n_events = cybershake_bp
        fast = _load(path, parse_mode="fast")
        strict = _load(path, parse_mode="strict")
        assert fast.stats.events_processed == n_events
        assert dump_archive(fast.archive) == dump_archive(strict.archive)

    def test_unknown_parse_mode_rejected(self, cybershake_bp):
        path, _ = cybershake_bp
        with pytest.raises(ValueError, match="parse_mode"):
            _load(path, parse_mode="sloppy")

    @pytest.mark.parametrize("parse_mode", ["fast", "strict"])
    def test_bus_chaos_with_string_bodies(self, parse_mode):
        """Raw BP strings on the wire (not NLEvent objects) are parsed by
        the consumer; the archive must still match the baseline."""
        baseline = dump_archive(baseline_run().archive)
        plan = FaultPlan.from_dict({"seed": 9, "bus": {"drop": 0.1, "duplicate": 0.1}})
        broker = ChaosBroker(plan)
        bind_queue(broker)
        for seq, event in enumerate(diamond_events(), start=1):
            broker.publish(
                event.event,
                event.to_bp(),
                headers={"x-publisher": "bp-text-pub", "x-seq": seq},
            )
        loader = make_loader(batch_size=10)
        load_from_bus(
            broker, queue_name=QUEUE, durable=True, loader=loader,
            parse_mode=parse_mode,
        )
        assert dump_archive(loader.archive) == baseline


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_parse_mode_strict_flag(self, tmp_path):
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        rc = nl_load_main(
            [
                str(bp),
                "stampede_loader",
                "connString=sqlite:///:memory:",
                "--parse-mode",
                "strict",
            ]
        )
        assert rc == 0

    def test_profile_flag_writes_pstats(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bp = tmp_path / "run.bp"
        write_events(str(bp), diamond_events())
        out = tmp_path / "load.pstats"
        rc = nl_load_main(
            [
                str(bp),
                "stampede_loader",
                "connString=sqlite:///:memory:",
                "--profile",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists() and out.stat().st_size > 0
        assert "profile written to" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# insert-path caches: the max-id cache
# ---------------------------------------------------------------------------

def _table():
    return Table(
        "things",
        [
            Column("id", Integer(), primary_key=True),
            Column("name", Text(), nullable=False),
        ],
    )


@pytest.fixture(params=STORAGE_MODES)
def cache_db(request, tmp_path):
    database = SqliteDatabase(sqlite_path(request.param, tmp_path))
    yield database
    database.close()


class TestInsertPathCaches:
    def test_max_value_tracks_inserts(self, cache_db):
        table = _table()
        cache_db.create_tables([table])
        assert cache_db.max_value(table, "id") is None
        cache_db.insert(table, {"id": 7, "name": "a"})
        assert cache_db.max_value(table, "id") == 7
        cache_db.insert_many(table, [{"id": 9, "name": "b"}, {"id": 3, "name": "c"}])
        # cached max must have been bumped, not stale-served
        assert cache_db.max_value(table, "id") == 9

    def test_max_cache_survives_interleaved_updates(self, cache_db):
        table = _table()
        cache_db.create_tables([table])
        cache_db.insert(table, {"id": 1, "name": "a"})
        assert cache_db.max_value(table, "id") == 1
        # rewriting the cached column must invalidate, not stale-serve
        cache_db.update(table, {"id": 5}, {"name": "a"})
        assert cache_db.max_value(table, "id") == 5

    def test_max_cache_dropped_on_rollback(self):
        database = SqliteDatabase(":memory:")
        table = _table()
        database.create_tables([table])
        database.insert(table, {"id": 1, "name": "a"})
        assert database.max_value(table, "id") == 1
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.insert(table, {"id": 50, "name": "doomed"})
                raise RuntimeError("boom")
        # the rolled-back row must not linger in the cache
        assert database.max_value(table, "id") == 1
        database.close()
