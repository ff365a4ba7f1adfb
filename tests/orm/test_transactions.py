"""Transaction scoping, pragmas, and aggregate helpers."""
import pytest

from repro.orm import Column, Integer, Query, SqliteDatabase, Table, Text

from tests.helpers import STORAGE_MODES, sqlite_path

T = Table(
    "t",
    [
        Column("id", Integer(), primary_key=True),
        Column("name", Text()),
        Column("score", Integer()),
    ],
)


@pytest.fixture(params=STORAGE_MODES)
def db(request, tmp_path):
    database = SqliteDatabase(sqlite_path(request.param, tmp_path))
    database.create_tables([T])
    yield database
    database.close()


class TestTransaction:
    def test_commit_groups_statements(self, db):
        with db.transaction():
            db.insert(T, {"id": 1, "name": "a"})
            db.insert_many(T, [{"id": 2, "name": "b"}, {"id": 3, "name": "c"}])
            db.update(T, {"score": 5}, {"id": 1})
        assert db.count(T) == 3
        rows = db.select(Query(T).eq("id", 1))
        assert rows[0]["score"] == 5

    def test_sqlite_rollback_on_error(self):
        db = SqliteDatabase()
        db.create_tables([T])
        db.insert(T, {"id": 1, "name": "keep"})
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(T, {"id": 2, "name": "lost"})
                raise RuntimeError("boom")
        assert db.count(T) == 1  # the in-transaction insert rolled back
        # the connection is usable again afterwards
        db.insert(T, {"id": 3, "name": "after"})
        assert db.count(T) == 2

    def test_nested_transactions_join_outermost(self, db):
        with db.transaction():
            db.insert(T, {"id": 1, "name": "outer"})
            with db.transaction():
                db.insert(T, {"id": 2, "name": "inner"})
        assert db.count(T) == 2

    def test_sqlite_nested_rollback_discards_all(self):
        db = SqliteDatabase()
        db.create_tables([T])
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(T, {"id": 1, "name": "outer"})
                with db.transaction():
                    db.insert(T, {"id": 2, "name": "inner"})
                raise RuntimeError("boom")
        assert db.count(T) == 0

    def test_autocommit_outside_transaction(self, db):
        db.insert(T, {"id": 1, "name": "a"})
        assert db.count(T) == 1


class TestPragmas:
    def test_file_backend_uses_wal(self, tmp_path):
        db = SqliteDatabase(str(tmp_path / "wal.db"))
        assert db.pragma("journal_mode") == "wal"
        assert db.pragma("synchronous") == 1  # NORMAL
        db.close()

    def test_memory_backend_skips_wal(self):
        db = SqliteDatabase()
        assert db.pragma("journal_mode") == "memory"
        db.close()


class TestAggregates:
    def test_count_where(self, db):
        db.insert_many(
            T, [{"id": i, "name": "x", "score": i % 2} for i in range(1, 11)]
        )
        assert db.count_where(Query(T).eq("score", 1)) == 5
        assert db.count_where(Query(T)) == 10
        assert db.count_where(Query(T).where("id", ">", 8)) == 2

    def test_max_value(self, db):
        assert db.max_value(T, "id") is None
        db.insert_many(T, [{"id": 3, "name": "a"}, {"id": 7, "name": "b"}])
        assert db.max_value(T, "id") == 7

    def test_max_value_unknown_column(self, db):
        with pytest.raises(ValueError):
            db.max_value(T, "nope")


class TestQueryCopy:
    def test_copy_is_independent(self):
        q = Query(T).eq("name", "a")
        clone = q.copy().limit(1)
        assert q.limit_count is None
        assert clone.limit_count == 1
        clone.where("id", ">", 0)
        assert len(q.predicates) == 1

    def test_to_count_sql(self):
        sql, params = Query(T).eq("name", "a").order_by("id").limit(5).to_count_sql()
        assert sql == "SELECT COUNT(*) FROM t WHERE name = ?"
        assert params == ["a"]
