"""Mini object-relational layer (SQLAlchemy substitute) over sqlite."""
from repro.orm.columns import Boolean, Column, ColumnType, Integer, Real, Text
from repro.orm.database import SqliteDatabase, connect
from repro.orm.query import Predicate, Query
from repro.orm.table import Table, Unique

__all__ = [
    "Boolean",
    "Column",
    "ColumnType",
    "Integer",
    "Real",
    "Text",
    "SqliteDatabase",
    "connect",
    "Predicate",
    "Query",
    "Table",
    "Unique",
]
