import pytest

from repro.orm import (
    Boolean,
    Column,
    Integer,
    Query,
    Real,
    SqliteDatabase,
    Table,
    Text,
    connect,
)

from tests.helpers import STORAGE_MODES, sqlite_path


@pytest.fixture(params=STORAGE_MODES)
def db(request, tmp_path):
    database = SqliteDatabase(sqlite_path(request.param, tmp_path))
    yield database
    database.close()


@pytest.fixture
def people():
    return Table(
        "people",
        [
            Column("id", Integer(), primary_key=True),
            Column("name", Text(), nullable=False, index=True),
            Column("age", Integer()),
            Column("score", Real(), default=0.0),
            Column("active", Boolean(), default=True),
        ],
    )


def seed(db, people):
    db.create_tables([people])
    db.insert_many(
        people,
        [
            {"id": 1, "name": "ann", "age": 30, "score": 1.5},
            {"id": 2, "name": "bob", "age": 25, "score": 2.5, "active": False},
            {"id": 3, "name": "cat", "age": 35, "score": 3.5},
        ],
    )


class TestTableMetadata:
    def test_create_sql(self, people):
        sql = people.create_sql()
        assert "CREATE TABLE IF NOT EXISTS people" in sql
        assert "id INTEGER PRIMARY KEY" in sql
        assert "name TEXT NOT NULL" in sql

    def test_index_sql(self, people):
        assert people.index_sql() == [
            "CREATE INDEX IF NOT EXISTS ix_people_name ON people (name)"
        ]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [Column("a", Integer()), Column("a", Text())])

    def test_multiple_pks_rejected(self):
        with pytest.raises(ValueError):
            Table(
                "t",
                [
                    Column("a", Integer(), primary_key=True),
                    Column("b", Integer(), primary_key=True),
                ],
            )

    def test_coerce_row_unknown_column(self, people):
        with pytest.raises(ValueError):
            people.coerce_row({"nope": 1})

    def test_coerce_row_not_null(self, people):
        with pytest.raises(ValueError):
            people.coerce_row({"id": 1, "name": None})

    def test_coerce_applies_defaults(self, people):
        row = people.coerce_row({"id": 1, "name": "x"})
        assert row["score"] == 0.0
        assert row["active"] == 1  # boolean stored as int

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Table("bad name", [Column("a", Integer())])
        with pytest.raises(ValueError):
            Column("bad-name", Integer())


class TestBackends:
    def test_insert_select_roundtrip(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).order_by("id"))
        assert [r["name"] for r in rows] == ["ann", "bob", "cat"]
        assert rows[0]["active"] is True
        assert rows[1]["active"] is False

    def test_where_eq(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).eq("name", "bob"))
        assert len(rows) == 1 and rows[0]["age"] == 25

    def test_where_comparison(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).where("age", ">=", 30).order_by("age"))
        assert [r["name"] for r in rows] == ["ann", "cat"]

    def test_where_in(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).where("id", "in", [1, 3]).order_by("id"))
        assert [r["id"] for r in rows] == [1, 3]

    def test_where_in_empty(self, db, people):
        seed(db, people)
        assert db.select(Query(people).where("id", "in", [])) == []

    def test_like(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).where("name", "like", "%a%").order_by("id"))
        assert [r["name"] for r in rows] == ["ann", "cat"]

    def test_order_desc(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).order_by("age", descending=True))
        assert [r["age"] for r in rows] == [35, 30, 25]

    def test_multi_order(self, db, people):
        seed(db, people)
        db.insert(people, {"id": 4, "name": "ann", "age": 20})
        rows = db.select(Query(people).order_by("name").order_by("age"))
        assert [(r["name"], r["age"]) for r in rows][:2] == [("ann", 20), ("ann", 30)]

    def test_limit_offset(self, db, people):
        seed(db, people)
        rows = db.select(Query(people).order_by("id").limit(1, offset=1))
        assert [r["id"] for r in rows] == [2]

    def test_update(self, db, people):
        seed(db, people)
        changed = db.update(people, {"age": 99}, {"name": "bob"})
        assert changed == 1
        (row,) = db.select(Query(people).eq("name", "bob"))
        assert row["age"] == 99
        assert db.update(people, {"age": 1}, {"id": 9999}) == 0  # by pk, no such row

    def test_count(self, db, people):
        seed(db, people)
        assert db.count(people) == 3

    def test_insert_many_empty(self, db, people):
        db.create_tables([people])
        assert db.insert_many(people, []) == 0

    def test_null_handling(self, db, people):
        db.create_tables([people])
        db.insert(people, {"id": 1, "name": "x", "age": None})
        (row,) = db.select(Query(people).eq("id", 1))
        assert row["age"] is None

    def test_none_sorts_first(self, db, people):
        db.create_tables([people])
        db.insert_many(
            people,
            [{"id": 1, "name": "a", "age": None}, {"id": 2, "name": "b", "age": 5}],
        )
        rows = db.select(Query(people).order_by("age"))
        assert rows[0]["age"] is None


class TestQueryValidation:
    def test_unknown_column_where(self, people):
        with pytest.raises(ValueError):
            Query(people).eq("nope", 1)

    def test_unknown_column_order(self, people):
        with pytest.raises(ValueError):
            Query(people).order_by("nope")

    def test_unknown_operator(self, people):
        with pytest.raises(ValueError):
            Query(people).where("age", "~", 1)


class TestConnect:
    def test_sqlite_memory(self):
        assert isinstance(connect("sqlite:///:memory:"), SqliteDatabase)

    def test_sqlite_file(self, tmp_path):
        db = connect(f"sqlite:///{tmp_path}/t.db")
        assert isinstance(db, SqliteDatabase)
        db.close()

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            connect("postgres://nope")

    def test_sqlite_file_persistence(self, tmp_path, people):
        path = f"{tmp_path}/p.db"
        db = connect(f"sqlite:///{path}")
        db.create_tables([people])
        db.insert(people, {"id": 1, "name": "x"})
        db.close()
        db2 = connect(f"sqlite:///{path}")
        db2.create_tables([people])
        assert db2.count(people) == 1
        db2.close()
