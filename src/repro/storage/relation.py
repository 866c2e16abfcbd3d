"""Relations: ordered multisets of typed tuples.

A :class:`Relation` couples a :class:`~repro.storage.schema.Schema` with a
list of rows (plain Python tuples).  SQL bag semantics apply throughout —
duplicates are preserved and ``distinct()`` is explicit.  SQL NULL is the
Python value ``None``.

Scanning a relation through :meth:`Relation.scan` reports page and tuple
counts into the ambient :class:`~repro.storage.iostats.IOStats`; iteration
via ``__iter__`` is free and intended for cheap in-memory inspection (tests,
pretty-printing).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.storage.iostats import IOStats
from repro.storage.schema import Field, Schema
from repro.storage.types import DataType

Row = tuple


def count_nulls(rows: Sequence[Row], arity: int) -> list[int]:
    """Per-column NULL counts of ``rows``: the one full row pass.

    :meth:`Relation.null_counts` calls this at most once per relation;
    afterwards ``insert``/``extend`` keep the counts current.
    """
    return [list(map(itemgetter(position), rows)).count(None)
            for position in range(arity)]


class Relation:
    """A typed, ordered multiset of tuples."""

    __slots__ = ("schema", "rows", "name", "_columnar", "_nulls")

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
        name: str | None = None,
        validate: bool = True,
    ):
        self.schema = schema
        self.name = name
        if validate:
            self.rows: list[Row] = [self._check_row(row) for row in rows]
        else:
            self.rows = [tuple(row) for row in rows]
        # Columnar-encoding cache (repro.storage.columnar.cached_columnar),
        # keyed by NEVER-null position set.  Scan views share this dict so
        # repeated vectorized queries hit one encoding; mutations clear it.
        self._columnar: dict = {}
        # Per-column NULL counts (see null_counts): None until first
        # asked for, then kept current by insert/extend.  Like the
        # columnar cache, this is storage metadata that is only exact
        # while rows change through insert/extend, never by mutating
        # ``rows`` directly.
        self._nulls: list[int] | None = None

    def __getstate__(self) -> tuple:
        # Worker-pool pickling: ship data, not the encoding cache.
        return (self.schema, self.rows, self.name)

    def __setstate__(self, state: tuple) -> None:
        self.schema, self.rows, self.name = state
        self._columnar = {}
        self._nulls = None

    def _check_row(self, row: Sequence[Any]) -> Row:
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self.schema)}: {row!r}"
            )
        return tuple(
            field.dtype.validate(value)
            for field, value in zip(self.schema.fields, row)
        )

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def from_columns(
        pairs: Sequence[tuple[str, DataType]],
        rows: Iterable[Sequence[Any]] = (),
        name: str | None = None,
        qualifier: str | None = None,
    ) -> "Relation":
        """Build a relation from ``(name, dtype)`` pairs and row data."""
        schema = Schema(Field(n, t, qualifier) for n, t in pairs)
        return Relation(schema, rows, name=name)

    def copy(self) -> "Relation":
        """An independent snapshot: same schema/name, fresh row list.

        Rows are immutable tuples, so a shallow list copy is a full
        defensive copy — mutating the copy's ``rows`` cannot affect the
        original (the cache layers rely on this both when storing and
        when serving).
        """
        out = Relation(self.schema, self.rows, name=self.name, validate=False)
        out._nulls = self._copied_nulls()
        return out

    def insert(self, row: Sequence[Any]) -> None:
        checked = self._check_row(row)
        self.rows.append(checked)
        if self._columnar:
            self._columnar.clear()
        nulls = self._nulls
        if nulls is not None and None in checked:
            for position, value in enumerate(checked):
                if value is None:
                    nulls[position] += 1

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        for row in rows:
            self.insert(row)

    # -- basic properties ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        label = self.name or "relation"
        return f"<Relation {label} {len(self.schema)} cols x {len(self.rows)} rows>"

    def arity(self) -> int:
        return len(self.schema)

    def null_counts(self) -> tuple[int, ...]:
        """NULLs per column, in schema order.

        Computed by one row pass the first time it is asked for, then
        maintained incrementally by :meth:`insert`/:meth:`extend` and
        carried by :meth:`copy`/:meth:`rename`, so capability
        certification reads stored nullability in O(columns).
        """
        nulls = self._nulls
        if nulls is None:
            nulls = self._nulls = count_nulls(self.rows, len(self.schema))
        return tuple(nulls)

    def _copied_nulls(self) -> list[int] | None:
        return None if self._nulls is None else list(self._nulls)

    # -- accounted access ----------------------------------------------------

    def scan(self) -> Iterator[Row]:
        """Iterate all rows, charging a full relation scan to IOStats."""
        IOStats.ambient().record_scan(len(self.rows))
        return iter(self.rows)

    # -- bag comparisons -----------------------------------------------------

    def as_multiset(self) -> Counter:
        """Rows as a Counter, for order-insensitive bag comparison."""
        return Counter(self.rows)

    def bag_equal(self, other: "Relation") -> bool:
        """True when both relations hold the same multiset of rows.

        Schemas are compared by attribute *names only* (qualifiers and
        declared types may legitimately differ between two plans computing
        the same query).
        """
        if len(self.schema) != len(other.schema):
            return False
        return self.as_multiset() == other.as_multiset()

    # -- convenience transforms (used by tests and examples) ------------------

    def rename(self, qualifier: str) -> "Relation":
        """A view of this relation with every field re-qualified."""
        out = Relation(self.schema.rename(qualifier), self.rows, name=self.name,
                       validate=False)
        out._columnar = self._columnar  # views share the encoding cache
        out._nulls = self._copied_nulls()
        return out

    def distinct(self) -> "Relation":
        seen: set[Row] = set()
        out: list[Row] = []
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return Relation(self.schema, out, name=self.name, validate=False)

    def sorted_by(self, *references: str) -> "Relation":
        """Rows ordered by the given attributes (NULLs first)."""
        indexes = [self.schema.index_of(ref) for ref in references]

        def key(row: Row):
            return tuple(
                (row[i] is not None, row[i]) for i in indexes
            )

        return Relation(self.schema, sorted(self.rows, key=key),
                        name=self.name, validate=False)

    def column(self, reference: str) -> list[Any]:
        """All values of one attribute, in row order."""
        index = self.schema.index_of(reference)
        return [row[index] for row in self.rows]

    def filter_rows(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Plain-Python row filter (testing helper, not an operator)."""
        return Relation(self.schema, [r for r in self.rows if predicate(r)],
                        name=self.name, validate=False)

    # -- display ---------------------------------------------------------------

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width textual rendering of the first ``limit`` rows."""
        headers = [f.full_name for f in self.schema.fields]
        shown = self.rows[:limit]
        cells = [[("NULL" if v is None else str(v)) for v in row] for row in shown]
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in cells), 1)
            if cells else len(headers[i])
            for i in range(len(headers))
        ]
        def fmt(values: Sequence[str]) -> str:
            return " | ".join(v.ljust(w) for v, w in zip(values, widths))

        lines = [fmt(headers), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in cells)
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)
