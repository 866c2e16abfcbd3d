"""Scalar and predicate expressions.

Expressions form an immutable AST.  Binding an expression against a
:class:`~repro.storage.schema.Schema` compiles it into a plain Python
closure ``row -> value`` so the hot loops (GMDJ evaluation, joins,
selections) pay no tree-walking cost per tuple.

Value expressions produce Python values (``None`` for NULL); predicate
expressions produce :class:`~repro.algebra.truth.Truth`.  Comparisons
involving NULL yield UNKNOWN, per SQL.

A small embedded DSL keeps query construction readable::

    from repro.algebra.expressions import col, lit
    theta = (col("F.StartTime") >= col("H.StartInterval")) & \
            (col("F.StartTime") < col("H.EndInterval")) & \
            (col("F.Protocol") == lit("HTTP"))

Note ``==``/``!=`` on expressions build comparison nodes, so expression
objects are **not** usable as dict keys; structural identity is exposed via
``same_as`` instead.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.algebra.truth import Truth
from repro.errors import ExpressionError
from repro.storage.schema import Schema

Evaluator = Callable[[tuple], Any]

#: Evaluator memoization, keyed per (expression, schema) *object* pair
#: and the builder that made the evaluator (:meth:`Expression._bind`'s
#: closure chain, or :func:`repro.algebra.compile.compile_row`'s
#: generated function).  Chunked, partitioned, and pool evaluation
#: re-bind the same residual/key expressions against the same schema
#: objects once per fragment, and repeated queries over one stored
#: rollup re-run the same cached-translation predicates; the cache makes
#: the repeats O(1) instead of re-walking or re-compiling the tree.
#: Entries hold strong references to both objects, so a live key can
#: never alias a recycled ``id()``; the OrderedDict is LRU-capped to
#: keep long fuzzing sessions bounded.
_BIND_CACHE_LIMIT = 512
Builder = Callable[["Expression", Schema], Evaluator]
_bind_cache: OrderedDict[tuple[int, int, Builder],
                         tuple["Expression", Schema, Evaluator]] = OrderedDict()
_bind_lock = threading.Lock()


def bind_cache_clear() -> None:
    """Drop all memoized bound evaluators (tests and benchmarks)."""
    with _bind_lock:
        _bind_cache.clear()


def _bind_cache_count(name: str) -> None:
    # Imported lazily: repro.obs pulls in the explain/engine surface,
    # which transitively imports this module.
    from repro.obs.metrics import get_registry

    get_registry().counter(name).inc()


def _build_bound(expression: "Expression", schema: Schema) -> Evaluator:
    return expression._bind(schema)


def memoized_evaluator(expression: "Expression", schema: Schema,
                       build: Builder = _build_bound) -> Evaluator:
    """``build(expression, schema)``, memoized in the shared bind LRU."""
    key = (id(expression), id(schema), build)
    with _bind_lock:
        entry = _bind_cache.get(key)
        if entry is not None:
            _bind_cache.move_to_end(key)
    if entry is not None:
        _bind_cache_count("expr_bind_cache_hits")
        return entry[2]
    _bind_cache_count("expr_bind_cache_misses")
    evaluator = build(expression, schema)
    with _bind_lock:
        _bind_cache[key] = (expression, schema, evaluator)
        while len(_bind_cache) > _BIND_CACHE_LIMIT:
            _bind_cache.popitem(last=False)
    return evaluator

#: Comparison operator names in the paper's φ set.
COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

_PY_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: φ → the complement comparison (used when eliminating ¬ in front of
#: subqueries: ¬(t φ S) ⇒ t φ̄ S).
COMPLEMENT = {"=": "<>", "<>": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

#: φ → the mirrored comparison (t φ s ≡ s φ̃ t), used when normalizing the
#: orientation of correlation predicates.
MIRROR = {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


def _compare(op_name: str, left: Any, right: Any) -> Truth:
    """SQL comparison with NULL → UNKNOWN and loose numeric widening."""
    if left is None or right is None:
        return Truth.UNKNOWN
    if isinstance(left, str) != isinstance(right, str):
        raise ExpressionError(
            f"cannot compare {left!r} with {right!r} (string vs non-string)"
        )
    return Truth.of(_PY_COMPARE[op_name](left, right))


class Expression:
    """Base class for all expression nodes."""

    #: True for nodes producing Truth rather than a scalar value.
    is_predicate = False

    def bind(self, schema: Schema) -> Evaluator:
        """Compile into a closure evaluating rows of ``schema``.

        Memoized per (expression, schema) object pair — see
        :func:`memoized_evaluator`; node classes implement :meth:`_bind`.
        """
        return memoized_evaluator(self, schema)

    def _bind(self, schema: Schema) -> Evaluator:
        """Actually compile this node (implemented by subclasses)."""
        raise NotImplementedError

    def references(self) -> set[str]:
        """All attribute references appearing in this expression."""
        raise NotImplementedError

    def same_as(self, other: "Expression") -> bool:
        """Structural equality (``==`` is taken by the comparison DSL)."""
        return repr(self) == repr(other)

    # -- DSL -------------------------------------------------------------------

    def __eq__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return Comparison("=", self, _wrap(other))

    def __ne__(self, other: Any) -> "Comparison":  # type: ignore[override]
        return Comparison("<>", self, _wrap(other))

    def __lt__(self, other: Any) -> "Comparison":
        return Comparison("<", self, _wrap(other))

    def __le__(self, other: Any) -> "Comparison":
        return Comparison("<=", self, _wrap(other))

    def __gt__(self, other: Any) -> "Comparison":
        return Comparison(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "Comparison":
        return Comparison(">=", self, _wrap(other))

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other: Any) -> "And":
        return And(self, _wrap_predicate(other))

    def __or__(self, other: Any) -> "Or":
        return Or(self, _wrap_predicate(other))

    def __invert__(self) -> "Not":
        return Not(self)

    def __add__(self, other: Any) -> "Arithmetic":
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "Arithmetic":
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "Arithmetic":
        return Arithmetic("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "Arithmetic":
        return Arithmetic("/", self, _wrap(other))

    def is_null(self) -> "IsNull":
        return IsNull(self)


def _wrap(value: Any) -> Expression:
    if isinstance(value, Expression):
        return value
    return Literal(value)


def _wrap_predicate(value: Any) -> Expression:
    expr = _wrap(value)
    if not expr.is_predicate:
        raise ExpressionError(f"{expr!r} is not a predicate")
    return expr


@dataclass(frozen=True, eq=False, repr=False)
class Literal(Expression):
    """A constant value (``None`` for NULL)."""

    value: Any

    def _bind(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row: value

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Column(Expression):
    """An attribute reference, bare (``x``) or qualified (``F.x``)."""

    reference: str

    def _bind(self, schema: Schema) -> Evaluator:
        position = schema.index_of(self.reference)
        return lambda row: row[position]

    def references(self) -> set[str]:
        return {self.reference}

    @property
    def qualifier(self) -> str | None:
        if "." in self.reference:
            return self.reference.partition(".")[0]
        return None

    @property
    def bare_name(self) -> str:
        return self.reference.rpartition(".")[2]

    def requalified(self, qualifier: str) -> "Column":
        return Column(f"{qualifier}.{self.bare_name}")

    def __repr__(self) -> str:
        return f"Col({self.reference})"


@dataclass(frozen=True, eq=False, repr=False)
class Arithmetic(Expression):
    """Binary arithmetic; any NULL operand yields NULL."""

    op: str
    left: Expression
    right: Expression

    _FUNCS = {
        "+": operator.add,
        "-": operator.sub,
        "*": operator.mul,
        "/": operator.truediv,
    }

    def _bind(self, schema: Schema) -> Evaluator:
        func = self._FUNCS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def run(row: tuple) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            if self.op == "/" and b == 0:
                return None  # SQL engines raise; NULL keeps OLAP ratios total
            return func(a, b)

        return run

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Comparison(Expression):
    """``left φ right`` under SQL 3-valued logic."""

    op: str
    left: Expression
    right: Expression
    is_predicate = True

    def __post_init__(self) -> None:
        if self.op not in _PY_COMPARE:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def _bind(self, schema: Schema) -> Evaluator:
        op_name = self.op
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: _compare(op_name, left(row), right(row))

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def complemented(self) -> "Comparison":
        """¬(l φ r) as a comparison: l φ̄ r."""
        return Comparison(COMPLEMENT[self.op], self.left, self.right)

    def mirrored(self) -> "Comparison":
        """The same predicate with operands swapped: r φ̃ l."""
        return Comparison(MIRROR[self.op], self.right, self.left)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True, eq=False, repr=False)
class And(Expression):
    left: Expression
    right: Expression
    is_predicate = True

    def _bind(self, schema: Schema) -> Evaluator:
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def run(row: tuple) -> Truth:
            a = left(row)
            if a is Truth.FALSE:
                return Truth.FALSE
            return a.and_(right(row))

        return run

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Or(Expression):
    left: Expression
    right: Expression
    is_predicate = True

    def _bind(self, schema: Schema) -> Evaluator:
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def run(row: tuple) -> Truth:
            a = left(row)
            if a is Truth.TRUE:
                return Truth.TRUE
            return a.or_(right(row))

        return run

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


@dataclass(frozen=True, eq=False, repr=False)
class Not(Expression):
    operand: Expression
    is_predicate = True

    def _bind(self, schema: Schema) -> Evaluator:
        operand = self.operand.bind(schema)
        return lambda row: operand(row).not_()

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


@dataclass(frozen=True, eq=False, repr=False)
class IsNull(Expression):
    """``expr IS NULL`` — two-valued, never UNKNOWN."""

    operand: Expression
    negated: bool = False
    is_predicate = True

    def _bind(self, schema: Schema) -> Evaluator:
        operand = self.operand.bind(schema)
        if self.negated:
            return lambda row: Truth.of(operand(row) is not None)
        return lambda row: Truth.of(operand(row) is None)

    def references(self) -> set[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {suffix})"


@dataclass(frozen=True, eq=False, repr=False)
class Coalesce(Expression):
    """First non-NULL of two expressions (SQL COALESCE, binary form).

    Used by the join-unnesting baseline to repair the classic COUNT bug:
    an outer join leaves NULL where SQL semantics demand ``count = 0``.
    """

    first: Expression
    second: Expression

    def _bind(self, schema: Schema) -> Evaluator:
        first = self.first.bind(schema)
        second = self.second.bind(schema)

        def run(row: tuple) -> Any:
            value = first(row)
            return value if value is not None else second(row)

        return run

    def references(self) -> set[str]:
        return self.first.references() | self.second.references()

    def __repr__(self) -> str:
        return f"COALESCE({self.first!r}, {self.second!r})"


@dataclass(frozen=True, eq=False, repr=False)
class TruthLiteral(Expression):
    """A constant predicate (the ``true`` condition of the algorithm's seed)."""

    value: Truth
    is_predicate = True

    def _bind(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row: value

    def references(self) -> set[str]:
        return set()

    def __repr__(self) -> str:
        return f"TruthLit({self.value.name})"


TRUE = TruthLiteral(Truth.TRUE)
FALSE = TruthLiteral(Truth.FALSE)


def col(reference: str) -> Column:
    """Build an attribute reference expression."""
    return Column(reference)


def lit(value: Any) -> Literal:
    """Build a literal expression (``lit(None)`` is SQL NULL)."""
    return Literal(value)


def conjoin(predicates: Iterable[Expression]) -> Expression:
    """AND together a sequence of predicates (empty sequence → TRUE)."""
    result: Expression | None = None
    for predicate in predicates:
        result = predicate if result is None else And(result, predicate)
    return result if result is not None else TRUE


def disjoin(predicates: Iterable[Expression]) -> Expression:
    """OR together a sequence of predicates (empty sequence → FALSE)."""
    result: Expression | None = None
    for predicate in predicates:
        result = predicate if result is None else Or(result, predicate)
    return result if result is not None else FALSE


def conjuncts_of(predicate: Expression) -> list[Expression]:
    """Flatten a conjunction tree into its top-level conjuncts."""
    if isinstance(predicate, And):
        return conjuncts_of(predicate.left) + conjuncts_of(predicate.right)
    return [predicate]
