"""Column and type metadata for the mini object-relational layer.

The Stampede loader used SQLAlchemy to target SQLite/MySQL/PostgreSQL; the
reproduction ships its own small metadata layer over sqlite3.  Types
convert between Python values and storage values and carry enough DDL
info for sqlite.
"""
from __future__ import annotations

from typing import Any, Optional

__all__ = [
    "ColumnType",
    "Integer",
    "Real",
    "Text",
    "Boolean",
    "Column",
]


class ColumnType:
    """Base column type: storage affinity + value coercion both ways."""

    sql_name = "TEXT"

    def to_storage(self, value: Any) -> Any:
        return value

    def from_storage(self, value: Any) -> Any:
        return value

    def __repr__(self) -> str:
        return type(self).__name__


class Integer(ColumnType):
    sql_name = "INTEGER"

    def to_storage(self, value: Any) -> Optional[int]:
        return None if value is None else int(value)

    from_storage = to_storage


class Real(ColumnType):
    sql_name = "REAL"

    def to_storage(self, value: Any) -> Optional[float]:
        return None if value is None else float(value)

    from_storage = to_storage


class Text(ColumnType):
    sql_name = "TEXT"

    def to_storage(self, value: Any) -> Optional[str]:
        return None if value is None else str(value)

    from_storage = to_storage


class Boolean(ColumnType):
    """Stored as 0/1 integers (sqlite has no native boolean)."""

    sql_name = "INTEGER"

    def to_storage(self, value: Any) -> Optional[int]:
        if value is None:
            return None
        if isinstance(value, str):
            return 1 if value.lower() in ("1", "true", "t", "yes") else 0
        return 1 if value else 0

    def from_storage(self, value: Any) -> Optional[bool]:
        return None if value is None else bool(value)


class Column:
    """One column: name, type and constraints."""

    __slots__ = ("name", "type", "primary_key", "nullable", "default", "index")

    def __init__(
        self,
        name: str,
        type_: ColumnType,
        primary_key: bool = False,
        nullable: bool = True,
        default: Any = None,
        index: bool = False,
    ):
        if not name.isidentifier():
            raise ValueError(f"invalid column name {name!r}")
        self.name = name
        self.type = type_
        self.primary_key = primary_key
        self.nullable = nullable and not primary_key
        self.default = default
        self.index = index

    def ddl(self) -> str:
        parts = [self.name, self.type.sql_name]
        if self.primary_key:
            parts.append("PRIMARY KEY")
        elif not self.nullable:
            parts.append("NOT NULL")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.type!r})"
