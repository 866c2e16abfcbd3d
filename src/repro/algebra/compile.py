"""Whole-expression codegen: one compiled function per expression tree.

:meth:`Expression.bind` produces a closure *per AST node*; evaluating a
bound predicate walks a chain of nested calls, paying Python call
overhead at every node for every tuple.  This module instead renders a
bound expression tree into **source code** for a single function and
``compile()``\\ s it — all operators become inline statements in one
frame, and the per-tuple cost collapses to plain bytecode.

Two forms are generated:

* **row form** (:func:`compile_row`): ``row -> value`` with exactly the
  signature and semantics of ``expression.bind(schema)`` — predicates
  return :class:`~repro.algebra.truth.Truth`, values return Python
  scalars with ``None`` for NULL.  A drop-in replacement for bound
  evaluators anywhere in the engine.
* **batch form** (:func:`compile_detail_filter`,
  :func:`compile_pair_filter`, :func:`compile_batch_keys`,
  :func:`compile_batch_values`): operates on decoded columns of a
  :class:`~repro.storage.columnar.ColumnarRelation` chunk and a list of
  row indices, looping *inside* the compiled frame.  Filters return the
  surviving indices (SQL truncation: only TRUE survives), key/value
  forms return one entry per index.

Inside generated code three-valued logic is carried as plain Python
objects — ``True``/``False`` for TRUE/FALSE and ``None`` for UNKNOWN —
and mapped back to :class:`Truth` only at a row-form boundary.  AND/OR
preserve the interpreter's exact short-circuit behaviour (the right
operand is evaluated unless the left already decides), NULL propagation
in arithmetic and ``/ 0 → NULL`` match
:class:`~repro.algebra.expressions.Arithmetic`, and comparisons reuse
the interpreter's :func:`~repro.algebra.expressions._compare` whenever
static type analysis cannot prove both operands are same-kinded (so the
string-vs-non-string :class:`~repro.errors.ExpressionError` fires with
identical text).  Expression node types this compiler does not know are
handled by falling back to ``bind`` — never by failing.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.algebra.expressions import (
    And,
    Arithmetic,
    Coalesce,
    Column,
    Comparison,
    Expression,
    IsNull,
    Literal,
    Not,
    Or,
    TruthLiteral,
    _compare,
    memoized_evaluator,
)
from repro.algebra.truth import Truth
from repro.storage.schema import Schema
from repro.storage.types import DataType

#: ``row -> scalar-or-Truth`` — interchangeable with ``Expression.bind``.
RowFunction = Callable[[tuple], Any]
#: ``(cols, indices) -> surviving indices`` over detail columns only.
DetailFilter = Callable[[Sequence[list], Sequence[int]], list[int]]
#: ``(base_row, cols, indices) -> surviving indices`` over base ++ detail.
PairFilter = Callable[[tuple, Sequence[list], Sequence[int]], list[int]]
#: ``(cols, indices) -> one key tuple per index``.
BatchKeys = Callable[[Sequence[list], Sequence[int]], list[tuple]]
#: ``(cols, indices) -> one scalar per index``.
BatchValues = Callable[[Sequence[list], Sequence[int]], list[Any]]

_PY_OPS = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _cmp3(op_name: str, left: Any, right: Any) -> bool | None:
    """Checked comparison: the interpreter's ``_compare``, 3VL as objects."""
    verdict = _compare(op_name, left, right)
    if verdict is Truth.TRUE:
        return True
    if verdict is Truth.FALSE:
        return False
    return None


class _Fallback(Exception):
    """Raised during emission when a node cannot be compiled."""


class _Emitter:
    """Accumulates statements and constants for one generated function."""

    def __init__(self, resolve: Callable[["_Emitter", Column], str],
                 stringness: Callable[[Column], str]) -> None:
        self.lines: list[str] = []
        self.env: dict[str, Any] = {"_cmp3": _cmp3}
        self._serial = 0
        self._resolve = resolve
        self._stringness_of_column = stringness
        #: detail column positions referenced (for the batch prologue).
        self.detail_columns: set[int] = set()

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def temp(self) -> str:
        self._serial += 1
        return f"t{self._serial}"

    def const(self, value: Any) -> str:
        name = f"k{len(self.env)}"
        self.env[name] = value
        return name

    # -- static string-ness analysis (drives comparison inlining) ----------

    def _stringness(self, expr: Expression) -> str:
        """``"str"`` / ``"nonstr"`` / ``"null"`` / ``"unknown"``."""
        if isinstance(expr, Literal):
            if expr.value is None:
                return "null"
            return "str" if isinstance(expr.value, str) else "nonstr"
        if isinstance(expr, Column):
            return self._stringness_of_column(expr)
        if isinstance(expr, Arithmetic):
            left = self._stringness(expr.left)
            right = self._stringness(expr.right)
            if left == "nonstr" and right == "nonstr":
                return "nonstr"
            return "unknown"
        if isinstance(expr, Coalesce):
            first = self._stringness(expr.first)
            second = self._stringness(expr.second)
            if first == "null":
                return second
            if second == "null" or first == second:
                return first
            return "unknown"
        return "unknown"

    def _comparison_inline_ok(self, node: Comparison) -> bool:
        left = self._stringness(node.left)
        right = self._stringness(node.right)
        if left == "null" or right == "null":
            return True  # the NULL guard fires before the raw operator
        return (left == right and left in ("str", "nonstr"))

    # -- node emission ------------------------------------------------------

    def emit(self, expr: Expression, depth: int) -> str:
        """Emit statements computing ``expr``; returns the result atom."""
        if isinstance(expr, Literal):
            if expr.value is None:
                return "None"
            return self.const(expr.value)
        if isinstance(expr, TruthLiteral):
            if expr.value is Truth.TRUE:
                return "True"
            if expr.value is Truth.FALSE:
                return "False"
            return "None"
        if isinstance(expr, Column):
            return self._resolve(self, expr)
        if isinstance(expr, Arithmetic):
            return self._emit_arithmetic(expr, depth)
        if isinstance(expr, Comparison):
            return self._emit_comparison(expr, depth)
        if isinstance(expr, And):
            return self._emit_and(expr, depth)
        if isinstance(expr, Or):
            return self._emit_or(expr, depth)
        if isinstance(expr, Not):
            operand = self.emit(expr.operand, depth)
            result = self.temp()
            self.line(depth,
                      f"{result} = None if {operand} is None "
                      f"else not {operand}")
            return result
        if isinstance(expr, IsNull):
            operand = self.emit(expr.operand, depth)
            result = self.temp()
            check = "is not None" if expr.negated else "is None"
            self.line(depth, f"{result} = {operand} {check}")
            return result
        if isinstance(expr, Coalesce):
            first = self.emit(expr.first, depth)
            result = self.temp()
            self.line(depth, f"{result} = {first}")
            self.line(depth, f"if {result} is None:")
            second = self.emit(expr.second, depth + 1)
            self.line(depth + 1, f"{result} = {second}")
            return result
        raise _Fallback(f"no emitter for {type(expr).__name__}")

    def _emit_arithmetic(self, node: Arithmetic, depth: int) -> str:
        left = self.emit(node.left, depth)
        right = self.emit(node.right, depth)
        result = self.temp()
        if node.op == "/":
            self.line(depth,
                      f"{result} = None if {left} is None or {right} is None "
                      f"or {right} == 0 else {left} / {right}")
        else:
            self.line(depth,
                      f"{result} = None if {left} is None or {right} is None "
                      f"else {left} {node.op} {right}")
        return result

    def _emit_comparison(self, node: Comparison, depth: int) -> str:
        left = self.emit(node.left, depth)
        right = self.emit(node.right, depth)
        result = self.temp()
        if self._comparison_inline_ok(node):
            self.line(depth,
                      f"{result} = None if {left} is None or {right} is None "
                      f"else {left} {_PY_OPS[node.op]} {right}")
        else:
            self.line(depth,
                      f"{result} = _cmp3({node.op!r}, {left}, {right})")
        return result

    def _emit_and(self, node: And, depth: int) -> str:
        left = self.emit(node.left, depth)
        result = self.temp()
        self.line(depth, f"if {left} is False:")
        self.line(depth + 1, f"{result} = False")
        self.line(depth, "else:")
        right = self.emit(node.right, depth + 1)
        self.line(depth + 1,
                  f"{result} = False if {right} is False else None "
                  f"if {left} is None or {right} is None else True")
        return result

    def _emit_or(self, node: Or, depth: int) -> str:
        left = self.emit(node.left, depth)
        result = self.temp()
        self.line(depth, f"if {left} is True:")
        self.line(depth + 1, f"{result} = True")
        self.line(depth, "else:")
        right = self.emit(node.right, depth + 1)
        self.line(depth + 1,
                  f"{result} = True if {right} is True else None "
                  f"if {left} is None or {right} is None else False")
        return result


def _assemble(emitter: _Emitter, signature: str, body: list[str],
              name: str = "_fn") -> Any:
    source = "\n".join([f"def {name}({signature}):"] + body)
    code = compile(source, "<repro:codegen>", "exec")
    namespace = emitter.env
    exec(code, namespace)  # noqa: S102 - our own generated source
    return namespace[name]


def _column_stringness(schema: Schema) -> Callable[[Column], str]:
    def stringness(column: Column) -> str:
        try:
            position = schema.index_of(column.reference)
        except Exception:
            return "unknown"
        dtype = schema.fields[position].dtype
        if dtype is DataType.STRING:
            return "str"
        if dtype in (DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN):
            return "nonstr"
        return "unknown"
    return stringness


def _row_resolver(schema: Schema) -> Callable[[_Emitter, Column], str]:
    def resolve(emitter: _Emitter, column: Column) -> str:
        return f"row[{schema.index_of(column.reference)}]"
    return resolve


def _detail_resolver(schema: Schema) -> Callable[[_Emitter, Column], str]:
    def resolve(emitter: _Emitter, column: Column) -> str:
        position = schema.index_of(column.reference)
        emitter.detail_columns.add(position)
        return f"c{position}[i]"
    return resolve


def _pair_resolver(base_schema: Schema,
                   detail_schema: Schema) -> Callable[[_Emitter, Column], str]:
    combined = base_schema.concat(detail_schema)
    base_arity = len(base_schema)

    def resolve(emitter: _Emitter, column: Column) -> str:
        position = combined.index_of(column.reference)
        if position < base_arity:
            return f"b[{position}]"
        detail_position = position - base_arity
        emitter.detail_columns.add(detail_position)
        return f"c{detail_position}[i]"
    return resolve


def _prologue(emitter: _Emitter) -> list[str]:
    return [f"    c{position} = cols[{position}]"
            for position in sorted(emitter.detail_columns)]


# -- public entry points ------------------------------------------------------


def compile_row(expression: Expression, schema: Schema) -> RowFunction:
    """Compile to ``row -> value``; drop-in for ``expression.bind(schema)``.

    Memoized per (expression, schema) object pair in the bind cache
    (:func:`~repro.algebra.expressions.memoized_evaluator`), so a plan
    re-run against the same schema object compiles its predicate once.
    """
    return memoized_evaluator(expression, schema, _compile_row)


def _compile_row(expression: Expression, schema: Schema) -> RowFunction:
    emitter = _Emitter(_row_resolver(schema), _column_stringness(schema))
    try:
        atom = emitter.emit(expression, 1)
    except _Fallback:
        return expression.bind(schema)
    body = list(emitter.lines)
    if expression.is_predicate:
        emitter.env["_T"] = Truth.TRUE
        emitter.env["_F"] = Truth.FALSE
        emitter.env["_U"] = Truth.UNKNOWN
        body.append(f"    return _T if {atom} is True "
                    f"else _F if {atom} is False else _U")
    else:
        body.append(f"    return {atom}")
    result: RowFunction = _assemble(emitter, "row", body)
    return result


def compile_pair_row(expression: Expression, base_schema: Schema,
                     detail_schema: Schema) -> RowFunction:
    """Row form over the concatenated ``base ++ detail`` schema."""
    return compile_row(expression, base_schema.concat(detail_schema))


def compile_detail_filter(predicate: Expression,
                          detail_schema: Schema) -> DetailFilter:
    """Batch filter over detail columns alone (invariant-block residuals)."""
    emitter = _Emitter(_detail_resolver(detail_schema),
                       _column_stringness(detail_schema))
    try:
        atom = emitter.emit(predicate, 2)
    except _Fallback:
        bound = predicate.bind(detail_schema)

        def fallback(cols: Sequence[list],
                     indices: Sequence[int]) -> list[int]:
            return [i for i in indices
                    if bound(tuple(c[i] for c in cols)).is_true]
        return fallback
    body = _prologue(emitter)
    body += ["    out = []", "    ap = out.append", "    for i in indices:"]
    body += emitter.lines
    body += [f"        if {atom} is True:", "            ap(i)",
             "    return out"]
    result: DetailFilter = _assemble(emitter, "cols, indices", body)
    return result


def compile_pair_filter(predicate: Expression, base_schema: Schema,
                        detail_schema: Schema) -> PairFilter:
    """Batch filter of detail indices against one base row.

    The generated function receives the base row ``b``, the decoded
    detail columns, and candidate indices; it returns the indices whose
    combined tuple satisfies the predicate (TRUE only, per SQL
    truncation).
    """
    combined = base_schema.concat(detail_schema)
    emitter = _Emitter(_pair_resolver(base_schema, detail_schema),
                       _column_stringness(combined))
    try:
        atom = emitter.emit(predicate, 2)
    except _Fallback:
        bound = predicate.bind(combined)

        def fallback(b: tuple, cols: Sequence[list],
                     indices: Sequence[int]) -> list[int]:
            return [i for i in indices
                    if bound(b + tuple(c[i] for c in cols)).is_true]
        return fallback
    body = _prologue(emitter)
    body += ["    out = []", "    ap = out.append", "    for i in indices:"]
    body += emitter.lines
    body += [f"        if {atom} is True:", "            ap(i)",
             "    return out"]
    result: PairFilter = _assemble(emitter, "b, cols, indices", body)
    return result


def compile_batch_keys(key_expressions: Sequence[Expression],
                       detail_schema: Schema) -> BatchKeys:
    """Batch hash-key extraction: one key tuple per index."""
    emitter = _Emitter(_detail_resolver(detail_schema),
                       _column_stringness(detail_schema))
    try:
        atoms = [emitter.emit(expr, 2) for expr in key_expressions]
    except _Fallback:
        bound = [expr.bind(detail_schema) for expr in key_expressions]

        def fallback(cols: Sequence[list],
                     indices: Sequence[int]) -> list[tuple]:
            out = []
            for i in indices:
                row = tuple(c[i] for c in cols)
                out.append(tuple(ev(row) for ev in bound))
            return out
        return fallback
    body = _prologue(emitter)
    body += ["    out = []", "    ap = out.append", "    for i in indices:"]
    body += emitter.lines
    body += [f"        ap(({', '.join(atoms)},))", "    return out"]
    result: BatchKeys = _assemble(emitter, "cols, indices", body)
    return result


def compile_batch_values(expression: Expression,
                         detail_schema: Schema) -> BatchValues:
    """Batch scalar evaluation: one value per index (aggregate arguments)."""
    emitter = _Emitter(_detail_resolver(detail_schema),
                       _column_stringness(detail_schema))
    try:
        atom = emitter.emit(expression, 2)
    except _Fallback:
        bound = expression.bind(detail_schema)

        def fallback(cols: Sequence[list],
                     indices: Sequence[int]) -> list[Any]:
            return [bound(tuple(c[i] for c in cols)) for i in indices]
        return fallback
    body = _prologue(emitter)
    body += ["    out = []", "    ap = out.append", "    for i in indices:"]
    body += emitter.lines
    body += [f"        ap({atom})", "    return out"]
    result: BatchValues = _assemble(emitter, "cols, indices", body)
    return result
