"""ChaosDatabase: injected transient write failures and loader recovery."""
import sqlite3

import pytest

from repro.archive.store import StampedeArchive
from repro.faults import ChaosDatabase, FaultPlan
from repro.loader import load_events, make_loader
from repro.model.entities import WorkflowRow

from tests.helpers import diamond_events


def chaos_archive(**archive_spec):
    seed = archive_spec.pop("seed", 0)
    plan = FaultPlan.from_dict({"seed": seed, "archive": archive_spec})
    archive = StampedeArchive.open("sqlite:///:memory:")
    archive.db = plan.wrap_database(archive.db)
    return archive, plan


class TestChaosDatabase:
    def test_scripted_attempts_fail_with_locked_error(self):
        archive, plan = chaos_archive(fail_transactions=[1, 3])
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            with archive.db.transaction():
                pass
        with archive.db.transaction():  # attempt 2 is healthy
            pass
        with pytest.raises(sqlite3.OperationalError):
            with archive.db.transaction():
                pass
        assert plan.stats.archive_faults == 2

    def test_nested_transactions_count_as_one_attempt(self):
        archive, plan = chaos_archive(fail_transactions=[2])
        with archive.db.transaction():
            with archive.db.transaction():  # joins, does not consume attempt 2
                pass
        with pytest.raises(sqlite3.OperationalError):
            with archive.db.transaction():
                pass
        assert plan.stats.archive_faults == 1

    def test_failure_raised_before_any_statement_runs(self):
        # entry-time injection, like a BEGIN IMMEDIATE that cannot take the
        # write lock: the wrapped database never opens the failed transaction
        archive, plan = chaos_archive(fail_transactions=[1])
        inner_txns = []
        original = archive.db._inner.transaction

        def spying():
            inner_txns.append(1)
            return original()

        archive.db._inner.transaction = spying
        with pytest.raises(sqlite3.OperationalError):
            with archive.db.transaction():
                pass
        assert inner_txns == []
        with archive.db.transaction():
            pass
        assert inner_txns == [1]

    def test_transient_errors_includes_injected_type(self):
        archive, _ = chaos_archive(fail_transactions=[1])
        assert sqlite3.OperationalError in archive.db.TRANSIENT_ERRORS

    def test_delegates_everything_else(self):
        archive, _ = chaos_archive()
        assert isinstance(archive.db, ChaosDatabase)
        # attribute delegation reaches the inner database untouched
        assert archive.db.count.__self__ is archive.db._inner

    def test_error_rate_is_seed_deterministic(self):
        def failures(seed):
            archive, plan = chaos_archive(error_rate=0.5, seed=seed)
            out = []
            for _ in range(20):
                try:
                    with archive.db.transaction():
                        pass
                    out.append(False)
                except sqlite3.OperationalError:
                    out.append(True)
            return out

        assert failures(9) == failures(9)
        assert any(failures(9))
        assert not all(failures(9))


class TestLoaderRecovery:
    def test_loader_retries_through_injected_faults(self):
        archive, plan = chaos_archive(fail_transactions=[1, 2])
        loader = make_loader(archive=archive, batch_size=50)
        load_events(diamond_events(), loader)
        assert plan.stats.archive_faults == 2
        assert loader.stats.retries >= 2
        # the archive came out complete despite the failed flushes
        workflows = loader.archive.query(WorkflowRow).all()
        assert len(workflows) == 1

    def test_chaos_archive_matches_clean_archive(self):
        clean = make_loader(batch_size=50)
        load_events(diamond_events(), clean)

        archive, _ = chaos_archive(fail_transactions=[1, 3])
        chaotic = make_loader(archive=archive, batch_size=50)
        load_events(diamond_events(), chaotic)

        assert (
            chaotic.archive.query(WorkflowRow).all()
            == clean.archive.query(WorkflowRow).all()
        )
        assert chaotic.stats.rows_inserted == clean.stats.rows_inserted
