"""Declarative query builder.

A :class:`Query` is a description — table, predicates, ordering, limit —
that the database compiles to parameterized SQL.  Only the operators the
Stampede tools need are implemented.
"""
from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.orm.table import Table

__all__ = ["Query", "Predicate"]

_OPS = frozenset({"=", "!=", "<", "<=", ">", ">=", "like", "in"})


class Predicate:
    __slots__ = ("column", "op", "value")

    def __init__(self, column: str, op: str, value: Any):
        if op not in _OPS:
            raise ValueError(f"unsupported operator {op!r}; use one of {sorted(_OPS)}")
        self.column = column
        self.op = op
        self.value = value

    def to_sql(self) -> Tuple[str, List[Any]]:
        if self.op == "in":
            values = list(self.value)
            if not values:
                return "1 = 0", []
            marks = ", ".join("?" for _ in values)
            return f"{self.column} IN ({marks})", values
        op = "LIKE" if self.op == "like" else self.op
        return f"{self.column} {op} ?", [self.value]


class Query:
    """Immutable-ish fluent query over one table."""

    def __init__(self, table: Table):
        self.table = table
        self.predicates: List[Predicate] = []
        self.order: List[Tuple[str, bool]] = []  # (column, descending)
        self.limit_count: Optional[int] = None
        self.offset_count: int = 0

    def where(self, column: str, op: str, value: Any) -> "Query":
        if column not in self.table.by_name:
            raise ValueError(f"no column {column!r} in table {self.table.name!r}")
        stored = self.table.by_name[column].type.to_storage
        coerced = [stored(v) for v in value] if op == "in" else stored(value)
        self.predicates.append(Predicate(column, op, coerced))
        return self

    def eq(self, column: str, value: Any) -> "Query":
        return self.where(column, "=", value)

    def order_by(self, column: str, descending: bool = False) -> "Query":
        if column not in self.table.by_name:
            raise ValueError(f"no column {column!r} in table {self.table.name!r}")
        self.order.append((column, descending))
        return self

    def limit(self, count: int, offset: int = 0) -> "Query":
        self.limit_count = count
        self.offset_count = offset
        return self

    def copy(self) -> "Query":
        """Independent clone; mutating the copy leaves the original alone."""
        clone = Query(self.table)
        clone.predicates = list(self.predicates)
        clone.order = list(self.order)
        clone.limit_count = self.limit_count
        clone.offset_count = self.offset_count
        return clone

    # -- SQL compilation ------------------------------------------------------
    def where_sql(self) -> Tuple[str, List[Any]]:
        """The `` WHERE ...`` suffix (empty without predicates) + its params."""
        if not self.predicates:
            return "", []
        clauses, params = [], []
        for pred in self.predicates:
            clause, vals = pred.to_sql()
            clauses.append(clause)
            params.extend(vals)
        return " WHERE " + " AND ".join(clauses), params

    def to_sql(self) -> Tuple[str, List[Any]]:
        where, params = self.where_sql()
        sql = (
            f"SELECT {', '.join(self.table.column_names())} "
            f"FROM {self.table.name}{where}"
        )
        if self.order:
            terms = [f"{c} {'DESC' if d else 'ASC'}" for c, d in self.order]
            sql += " ORDER BY " + ", ".join(terms)
        if self.limit_count is not None:
            sql += " LIMIT ? OFFSET ?"
            params.extend([self.limit_count, self.offset_count])
        return sql, params

    def to_count_sql(self) -> Tuple[str, List[Any]]:
        """Compile to SELECT COUNT(*) over the predicates (no order/limit)."""
        where, params = self.where_sql()
        return f"SELECT COUNT(*) FROM {self.table.name}{where}", params
