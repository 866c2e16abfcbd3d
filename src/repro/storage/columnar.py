"""Column-major relation storage for batch execution.

A :class:`ColumnarRelation` holds the same bag of tuples as a
:class:`~repro.storage.relation.Relation`, transposed into per-attribute
columns with compact typed storage:

* ``INTEGER`` → ``array('q')`` (falls back to a plain object list when a
  Python int overflows 64 bits — SQL semantics keep arbitrary precision);
* ``FLOAT``   → ``array('d')``;
* ``BOOLEAN`` → a ``bytearray`` of 0/1;
* ``STRING``  → dictionary encoding: an ``array('i')`` of codes plus the
  list of distinct values (OLAP detail tables repeat their dimension
  strings heavily, so the dictionary is tiny relative to the column).

NULLs are carried out-of-band in a per-column validity ``bytearray``
(1 = present), so the typed arrays never need an in-band sentinel.  The
conversion is lossless in both directions: ``to_relation`` reproduces the
original rows exactly, duplicates and NULLs included, in the same order.

Columns a capability certificate proves NEVER-null
(:func:`repro.lint.absint.certify_capabilities`) skip the validity mask
entirely — :meth:`ColumnarRelation.from_relation` takes the set of such
column positions and encodes them with ``valid=None`` ("all present"),
eliding both the mask allocation and the per-element mask stores.  The
certificate is trusted but verified: a ``None`` encountered while
encoding a NEVER-null column raises
:class:`~repro.errors.CertificateViolation` on the spot.

The batch GMDJ kernels (:mod:`repro.gmdj.vectorized`) do not read the
typed arrays element-wise in their hot loops — they ask for
:meth:`ColumnarRelation.values`, a decoded plain list with ``None`` for
NULL, computed once per column and cached.  That keeps the per-element
access a single list index while the relation itself stays compact.
"""

from __future__ import annotations

from array import array
from typing import Any, Collection, Sequence

from repro.errors import CertificateViolation
from repro.storage.relation import Relation
from repro.storage.schema import Schema
from repro.storage.types import DataType

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: bytearray booleans decode through this table so ``to_relation``
#: restores real ``bool`` objects, not 0/1 ints.
_BOOLS = (False, True)


def _plain_list(data: Any) -> list:
    """Typed storage as a list of plain Python values.

    ``array`` and ndarray expose ``tolist`` (which converts numpy
    scalars to Python ints/floats/bools); ``bytearray`` iterates to
    ints directly.
    """
    tolist = getattr(data, "tolist", None)
    if tolist is not None:
        return tolist()
    return list(data)


class ColumnData:
    """One attribute's values: typed storage plus a validity mask.

    ``valid=None`` means "every value present" — the encoding used for
    columns certified NEVER-null, where the mask would be all ones and
    is not worth materializing.
    """

    __slots__ = ("kind", "data", "valid", "dictionary")

    def __init__(self, kind: str, data: Any, valid: bytearray | None,
                 dictionary: list | None = None) -> None:
        self.kind = kind  # "int" | "float" | "bool" | "dict" | "object"
        self.data = data
        self.valid = valid
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.data)

    @property
    def mask_free(self) -> bool:
        """True when this column was encoded without a validity mask."""
        return self.valid is None

    def null_count(self) -> int:
        """NULLs in this column, read off the validity mask."""
        if self.valid is None:
            return 0
        return self.valid.count(0)

    def decode(self) -> list:
        """The column as a plain list with ``None`` for NULL.

        Storage may be an ``array``/``bytearray`` (the encoder's output)
        or an ndarray (memory-mapped binary persistence); ``tolist``
        normalizes either to plain Python values so decoded rows are
        byte-for-byte the same regardless of where the column came from.
        """
        if self.kind == "dict":
            dictionary = self.dictionary or []
            codes = _plain_list(self.data)
            if self.valid is None:
                return [dictionary[code] for code in codes]
            return [dictionary[code] if ok else None
                    for code, ok in zip(codes, self.valid)]
        if self.kind == "bool":
            flags = _plain_list(self.data)
            if self.valid is None:
                return [_BOOLS[value] for value in flags]
            return [_BOOLS[value] if ok else None
                    for value, ok in zip(flags, self.valid)]
        if self.kind == "object":
            return list(self.data)
        values = _plain_list(self.data)
        if self.valid is None:
            return values
        return [value if ok else None
                for value, ok in zip(values, self.valid)]


def _object_column(values: list) -> ColumnData:
    return ColumnData("object", list(values), bytearray(
        0 if v is None else 1 for v in values))


def _encode_column(values: list, dtype: DataType) -> ColumnData:
    """Build typed storage for one column.

    Intermediate relations are constructed with ``validate=False``, so a
    column's *declared* dtype is not a guarantee about the Python types
    actually present (an INTEGER-typed intermediate may carry floats and
    vice versa).  Every value is therefore type-checked during encoding;
    any mismatch falls back to an object column — the round trip must be
    lossless for whatever bag of values the relation really holds.
    """
    n = len(values)
    valid = bytearray(n)
    if dtype is DataType.INTEGER:
        data = array("q", bytes(8 * n))
        for position, value in enumerate(values):
            if value is None:
                continue
            if (type(value) is not int
                    or value < _INT64_MIN or value > _INT64_MAX):
                return _object_column(values)
            data[position] = value
            valid[position] = 1
        return ColumnData("int", data, valid)
    if dtype is DataType.FLOAT:
        data = array("d", bytes(8 * n))
        for position, value in enumerate(values):
            if value is None:
                continue
            if type(value) is not float:
                return _object_column(values)
            data[position] = value
            valid[position] = 1
        return ColumnData("float", data, valid)
    if dtype is DataType.BOOLEAN:
        flags = bytearray(n)
        for position, value in enumerate(values):
            if value is None:
                continue
            if type(value) is not bool:
                return _object_column(values)
            flags[position] = 1 if value else 0
            valid[position] = 1
        return ColumnData("bool", flags, valid)
    if dtype is DataType.STRING:
        codes = array("i", bytes(4 * n))
        dictionary: list = []
        seen: dict[str, int] = {}
        for position, value in enumerate(values):
            if value is None:
                continue
            if type(value) is not str:
                return _object_column(values)
            code = seen.get(value)
            if code is None:
                code = seen[value] = len(dictionary)
                dictionary.append(value)
            codes[position] = code
            valid[position] = 1
        return ColumnData("dict", codes, valid, dictionary)
    return _object_column(values)


def _encode_never_null(
    values: list, dtype: DataType, column: str
) -> ColumnData:
    """Encode a column certified NEVER-null, skipping the validity mask.

    Type checking stays (declared dtypes are not guarantees on
    intermediates — see :func:`_encode_column`), but the mask is never
    allocated and no per-element validity store happens.  Observing a
    ``None`` here means the static analysis was wrong, which is a hard
    :class:`~repro.errors.CertificateViolation`, not a fallback case.
    """
    n = len(values)
    for value in values:
        if value is None:
            raise CertificateViolation(
                f"column {column!r} certified NEVER-null holds a NULL; "
                f"the capability certificate is unsound"
            )
    if dtype is DataType.INTEGER:
        data = array("q", bytes(8 * n))
        for position, value in enumerate(values):
            if (type(value) is not int
                    or value < _INT64_MIN or value > _INT64_MAX):
                return _object_column(values)
            data[position] = value
        return ColumnData("int", data, None)
    if dtype is DataType.FLOAT:
        data = array("d", bytes(8 * n))
        for position, value in enumerate(values):
            if type(value) is not float:
                return _object_column(values)
            data[position] = value
        return ColumnData("float", data, None)
    if dtype is DataType.BOOLEAN:
        flags = bytearray(n)
        for position, value in enumerate(values):
            if type(value) is not bool:
                return _object_column(values)
            flags[position] = 1 if value else 0
        return ColumnData("bool", flags, None)
    if dtype is DataType.STRING:
        codes = array("i", bytes(4 * n))
        dictionary: list = []
        seen: dict[str, int] = {}
        for position, value in enumerate(values):
            if type(value) is not str:
                return _object_column(values)
            code = seen.get(value)
            if code is None:
                code = seen[value] = len(dictionary)
                dictionary.append(value)
            codes[position] = code
        return ColumnData("dict", codes, None, dictionary)
    return _object_column(values)


class ColumnarRelation:
    """A relation transposed into typed columns (see module docstring)."""

    __slots__ = ("schema", "name", "length", "columns", "_decoded",
                 "_np_columns")

    def __init__(self, schema: Schema, columns: list[ColumnData],
                 length: int, name: str | None = None) -> None:
        self.schema = schema
        self.columns = columns
        self.length = length
        self.name = name
        self._decoded: list[list | None] = [None] * len(columns)
        # Lazily-built ndarray views (repro.storage.npcolumns); ``False``
        # marks "not built yet" so a built-but-unsupported column can
        # cache its ``None``.
        self._np_columns: list[Any] = [False] * len(columns)

    def __len__(self) -> int:
        return self.length

    @classmethod
    def from_relation(
        cls, relation: Relation,
        never_null: Collection[int] = frozenset(),
    ) -> "ColumnarRelation":
        """Transpose a row-major relation into columnar form.

        ``never_null`` lists column positions a capability certificate
        proves NULL-free; those columns encode mask-free (see
        :func:`_encode_never_null`).
        """
        schema = relation.schema
        rows = relation.rows
        n = len(rows)
        if rows:
            raw_columns: Sequence[Sequence[Any]] = list(zip(*rows))
        else:
            raw_columns = [[] for _ in schema.fields]
        columns = [
            _encode_never_null(list(raw), field.dtype, field.full_name)
            if position in never_null
            else _encode_column(list(raw), field.dtype)
            for position, (raw, field) in enumerate(
                zip(raw_columns, schema.fields))
        ]
        return cls(schema, columns, n,
                   name=getattr(relation, "name", None))

    def mask_free_columns(self) -> int:
        """How many columns were encoded without a validity mask."""
        return sum(1 for column in self.columns if column.mask_free)

    def to_relation(self) -> Relation:
        """Transpose back; reproduces the source rows exactly, in order.

        Columns decode transiently, not into the :meth:`values` cache:
        the rows hold the values, and the numpy kernel never reads the
        decoded lists (the python batch kernel decodes lazily through
        :meth:`values`).  The relation's null counts are seeded from the
        validity masks, so it never needs a row pass to certify.
        """
        decoded = [column.decode() for column in self.columns]
        if decoded:
            rows = list(zip(*decoded)) if self.length else []
        else:
            rows = [() for _ in range(self.length)]
        relation = Relation(self.schema, rows, name=self.name, validate=False)
        relation._nulls = [column.null_count() for column in self.columns]
        return relation

    def values(self, position: int) -> list:
        """Decoded value list of column ``position`` (cached)."""
        cached = self._decoded[position]
        if cached is None:
            cached = self._decoded[position] = self.columns[position].decode()
        return cached

    def value_columns(self) -> tuple[list, ...]:
        """Every column decoded, in schema order (the kernels' input)."""
        return tuple(self.values(i) for i in range(len(self.columns)))

    def row(self, position: int) -> tuple:
        """Materialize one row (mostly for tests and debugging)."""
        return tuple(self.values(i)[position]
                     for i in range(len(self.columns)))


def cached_columnar(
    relation: Relation, never_null: Collection[int] = frozenset(),
) -> ColumnarRelation:
    """The columnar encoding of ``relation``, cached on the relation.

    Repeated vectorized/batch queries over the same stored detail used
    to re-transpose and re-encode it per query (and per base fragment
    under ``chunk_budget``); the encoding now lives on the
    :class:`~repro.storage.relation.Relation` itself, keyed by the
    NEVER-null position set, and is invalidated exactly like the plan
    cache: ``insert``/``extend`` clear it, and DDL installs a fresh
    relation object (see ``Catalog.replace_table``).

    Scan views (``ScanTable``/``rename``) share the stored relation's
    cache dict, so a requalified view hits the same encoding — the
    typed columns are qualifier-independent; only the ``schema`` on the
    returned wrapper differs, and decoded lists plus ndarray views are
    shared with the cached instance.

    Hit/miss counts surface in the metrics registry as
    ``columnar.cache_hits`` / ``columnar.cache_misses``.
    """
    from repro.obs.metrics import get_registry

    cache = getattr(relation, "_columnar", None)
    if cache is None:
        return ColumnarRelation.from_relation(relation,
                                              never_null=never_null)
    key = frozenset(never_null)
    hit = cache.get(key)
    if hit is not None:
        get_registry().counter("columnar.cache_hits").inc()
        if hit.schema is relation.schema:
            return hit
        clone = ColumnarRelation(relation.schema, hit.columns, hit.length,
                                 name=getattr(relation, "name", None))
        clone._decoded = hit._decoded
        clone._np_columns = hit._np_columns
        return clone
    get_registry().counter("columnar.cache_misses").inc()
    built = ColumnarRelation.from_relation(relation, never_null=never_null)
    cache[key] = built
    return built
