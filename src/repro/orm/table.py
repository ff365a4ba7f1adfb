"""Table metadata: ordered columns, row coercion, DDL generation."""
from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.orm.columns import Column, Integer, Real, Text

__all__ = ["Table", "Unique"]

#: sentinel distinguishing "column absent from the row" from None values
_MISSING = object()

#: column types whose to_storage is the identity when the value already
#: has exactly this Python type (bool is NOT an exact int match, so
#: Boolean columns and subclass tricks still coerce).
_PASSTHROUGH = {Integer: int, Real: float, Text: str}


class Unique(tuple):
    """A composite index whose columns form a key (``CREATE UNIQUE
    INDEX``), so it can be the conflict target of an upsert."""

    def __new__(cls, *columns: str) -> "Unique":
        return super().__new__(cls, columns)


class Table:
    """Schema metadata for one table.

    ``indexes`` declares composite (covering) indexes as column-name
    tuples, or as :class:`Unique` keys; single-column indexes keep using
    ``Column(index=True)``.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        indexes: Sequence[Sequence[str]] = (),
    ):
        if not name.isidentifier():
            raise ValueError(f"invalid table name {name!r}")
        if not columns:
            raise ValueError(f"table {name!r} requires at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {name!r}: {names}")
        pks = [c for c in columns if c.primary_key]
        if len(pks) > 1:
            raise ValueError(f"table {name!r} declares multiple primary keys")
        self.indexes: List[tuple] = [
            ix if isinstance(ix, Unique) else tuple(ix) for ix in indexes
        ]
        for ix in self.indexes:
            unknown = [c for c in ix if c not in names]
            if unknown:
                raise ValueError(
                    f"index {ix} on table {name!r} names unknown column(s) "
                    f"{unknown}"
                )
        self.name = name
        self.columns: List[Column] = list(columns)
        self.by_name: Dict[str, Column] = {c.name: c for c in columns}
        self.primary_key: Optional[Column] = pks[0] if pks else None
        self._names: List[str] = names
        self._known = set(names)
        # per-column coercion plan, precomputed once: the insert hot path
        # loops over plain tuples instead of attribute lookups per row
        self._coerce_plan = [
            (
                c.name,
                c.type.to_storage,
                _PASSTHROUGH.get(type(c.type)),
                c.default,
                callable(c.default),
                c.nullable or c.primary_key,
            )
            for c in self.columns
        ]
        # the read side's plan: a stored value that already has the exact
        # Python type needs no from_storage call
        self._decode_plan = [
            (c.name, c.type.from_storage, _PASSTHROUGH.get(type(c.type)))
            for c in self.columns
        ]

    # -- DDL -------------------------------------------------------------------
    def create_sql(self) -> str:
        cols = ", ".join(c.ddl() for c in self.columns)
        return f"CREATE TABLE IF NOT EXISTS {self.name} ({cols})"

    def index_sql(self) -> List[str]:
        single = [
            f"CREATE INDEX IF NOT EXISTS ix_{self.name}_{c.name} "
            f"ON {self.name} ({c.name})"
            for c in self.columns
            if c.index and not c.primary_key
        ]
        # a unique key is named apart from a plain index on the same
        # columns, so an archive created before the key was declared
        # gains it on open
        composite = [
            f"CREATE UNIQUE INDEX IF NOT EXISTS ux_{self.name}_{'_'.join(ix)} "
            f"ON {self.name} ({', '.join(ix)})"
            if isinstance(ix, Unique)
            else f"CREATE INDEX IF NOT EXISTS ix_{self.name}_{'_'.join(ix)} "
            f"ON {self.name} ({', '.join(ix)})"
            for ix in self.indexes
        ]
        return single + composite

    # -- row handling ------------------------------------------------------------
    def coerce_row(self, row: Dict[str, Any]) -> Dict[str, Any]:
        """Validate and convert a row dict to storage representation."""
        if not self._known.issuperset(row):
            unknown = set(row) - self._known
            raise ValueError(f"unknown column(s) for {self.name!r}: {sorted(unknown)}")
        out: Dict[str, Any] = {}
        get = row.get
        missing = _MISSING
        for (
            name,
            to_storage,
            exact,
            default,
            default_callable,
            nullable,
        ) in self._coerce_plan:
            value = get(name, missing)
            if value is missing:
                value = default() if default_callable else default
            if type(value) is exact:
                out[name] = value
                continue
            stored = to_storage(value)
            if stored is None and not nullable:
                raise ValueError(
                    f"column {self.name}.{name} is NOT NULL but got None"
                )
            out[name] = stored
        return out

    def row_encoder(self, names: Sequence[str]) -> Callable[[Sequence[Any]], List[Any]]:
        """The storage conversion of rows given as values for ``names``, in
        that order: what :meth:`coerce_row` does to a dict, planned once.

        Unknown names raise here; a None for a NOT NULL column raises per
        value.  Every name must be given a value (no defaults are filled).
        """
        unknown = [n for n in names if n not in self._known]
        if unknown:
            raise ValueError(f"unknown column(s) for {self.name!r}: {sorted(unknown)}")
        exacts = tuple(_PASSTHROUGH.get(type(self.by_name[n].type)) for n in names)
        converts = tuple(self._converter(self.by_name[n]) for n in names)

        def encode(values: Sequence[Any]) -> List[Any]:
            return [
                value if type(value) is exact else convert(value)
                for value, exact, convert in zip(values, exacts, converts)
            ]

        return encode

    def _converter(self, column: Column) -> Callable[[Any], Any]:
        to_storage = column.type.to_storage
        if column.nullable or column.primary_key:
            return to_storage
        where = f"{self.name}.{column.name}"

        def not_null(value: Any) -> Any:
            stored = to_storage(value)
            if stored is None:
                raise ValueError(f"column {where} is NOT NULL but got None")
            return stored

        return not_null

    def from_storage(self, values: Sequence[Any]) -> Dict[str, Any]:
        """Convert a storage tuple (in column order) back to a row dict."""
        out: Dict[str, Any] = {}
        for (name, from_storage, exact), value in zip(self._decode_plan, values):
            out[name] = (
                value if value is None or type(value) is exact else from_storage(value)
            )
        return out

    def column_names(self) -> List[str]:
        return self._names

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.columns)} columns)"
