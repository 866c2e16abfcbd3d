"""Abstract interpretation over algebra + GMDJ plans: capability certificates.

Where :mod:`repro.lint.cost` certifies what a plan *costs* (output ≤ |B|,
one detail scan per GMDJ), this pass certifies what a plan's data and
operators *can do* — the side conditions the engine's optimizations rest
on, derived statically so the planner can gate on proof instead of
assumption:

* **Nullability** — a three-valued lattice per output column
  (:class:`Nullability`: NEVER / MAYBE / ALWAYS null), propagated from
  the stored data through every operator by transfer functions that
  mirror the runtime 3VL semantics in
  :mod:`repro.algebra.expressions` (NULL-strict arithmetic, ``x/0 →
  NULL``, COALESCE, outer-join padding, aggregate empty-input rules).
  Like :meth:`~repro.lint.infer.PlanTyper.column_possibly_null`, base
  facts are *data-dependent*: a column is NEVER-null because the rows it
  is computed from hold no NULLs right now, which is exactly the claim
  the runtime cross-check (:func:`repro.obs.invariants.
  check_capabilities`) verifies on every certified execution.

* **Aggregate classification** — every :class:`~repro.algebra.
  aggregates.AggregateSpec` is placed in Gray et al.'s Data Cube
  taxonomy (:func:`classify_aggregate`): *distributive* (count/sum/
  min/max — finalized partials merge by a named function), *algebraic*
  (avg — decomposes into the mergeable (sum, count) pair, the rewrite
  :func:`repro.gmdj.parallel._shadow_plan` performs), or *holistic*
  (DISTINCT-wrapped — unbounded auxiliary state, no merge function).
  Pool-parallel evaluation and MQO scan sharing require every aggregate
  to be non-holistic; both consult this classification.

* **θ-block facts** — each conjunct of every GMDJ θ condition is
  classified (:func:`classify_conjunct`) as a comparison over ordered
  columns (``range``, with the oriented monotone facts recorded),
  ``equality`` (including the translator's null-safe identity links),
  ``null-test``, ``constant``, or ``opaque``.  Rollup subsumption
  serving re-applies residual conjuncts to cached rows and therefore
  requires every residual to be in a non-opaque class.

The product is a :class:`CapabilityCertificate` — machine-checkable
(:meth:`~CapabilityCertificate.to_json`), cross-checked at runtime, and
consumed ambiently by the vectorized kernel through
:class:`capability_scope` / :func:`current_capabilities` (the columnar
encoder skips validity-mask work on detail columns certified
NEVER-null; observing a NULL there raises
:class:`~repro.errors.CertificateViolation`).
"""

from __future__ import annotations

from contextvars import ContextVar, Token
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence

from repro.algebra.aggregates import AggregateSpec
from repro.algebra.apply_op import Apply
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
    conjuncts_of,
)
from repro.algebra.nested import NestedSelect
from repro.algebra.operators import (
    Difference,
    Distinct,
    GroupBy,
    Intersect,
    Join,
    Limit,
    Operator,
    OrderBy,
    Project,
    Rename,
    ScanTable,
    Select,
    TableValue,
    Union,
)
from repro.errors import ReproError
from repro.gmdj.evaluate import SelectGMDJ
from repro.gmdj.operator import GMDJ, ThetaBlock
from repro.lint.rules import match_null_safe_equal
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.storage.types import DataType


class Nullability(Enum):
    """Per-column verdict of the 3VL null-propagation lattice."""

    NEVER = "never"
    MAYBE = "maybe"
    ALWAYS = "always"

    @staticmethod
    def join(left: "Nullability", right: "Nullability") -> "Nullability":
        """Least upper bound: agreement survives, disagreement is MAYBE."""
        return left if left is right else Nullability.MAYBE


NEVER = Nullability.NEVER
MAYBE = Nullability.MAYBE
ALWAYS = Nullability.ALWAYS


def stored_nullability(rows: Sequence[Sequence[Any]],
                       arity: int) -> list[Nullability]:
    """Data-dependent base facts: one verdict per column of stored rows.

    An empty relation is vacuously NEVER-null in every column; a column
    that is entirely NULL over non-empty rows is ALWAYS.
    """
    if not rows:
        return [NEVER] * arity
    verdicts: list[Nullability] = []
    total = len(rows)
    for position in range(arity):
        nulls = sum(1 for row in rows if row[position] is None)
        if nulls == 0:
            verdicts.append(NEVER)
        elif nulls == total:
            verdicts.append(ALWAYS)
        else:
            verdicts.append(MAYBE)
    return verdicts


def counted_nullability(null_counts: Sequence[int],
                        total: int) -> list[Nullability]:
    """The verdicts of :func:`stored_nullability` from per-column counts.

    ``null_counts`` is :meth:`~repro.storage.relation.Relation.null_counts`
    over ``total`` rows: no NULLs is NEVER (an empty relation vacuously
    so), all NULL over non-empty rows is ALWAYS, anything else MAYBE.
    """
    return [
        NEVER if nulls == 0 else ALWAYS if nulls == total else MAYBE
        for nulls in null_counts
    ]


#: Alias for the runtime cross-check direction: what the rows actually
#: show, computed with the same vocabulary the certificate speaks.
observed_nullability = stored_nullability


def _coalesce_transfer(first: Nullability,
                       second: Nullability) -> Nullability:
    """Transfer function of ``COALESCE(a, b)``: NULL iff both are NULL.

    Kept as a named module-level function so soundness tests can seed a
    deliberately broken lattice here and assert the differential /
    fuzz layer catches the unsound certificate.
    """
    if first is NEVER or second is NEVER:
        return NEVER
    if first is ALWAYS and second is ALWAYS:
        return ALWAYS
    return MAYBE


def expression_nullability(expression: Expression, schema: Schema,
                           env: Sequence[Nullability]) -> Nullability:
    """Abstract evaluation of one expression over a column environment.

    Mirrors the concrete ``_bind`` semantics of
    :mod:`repro.algebra.expressions`: arithmetic is NULL-strict except
    that division can produce NULL from non-NULL operands (``x/0``);
    predicates materialize UNKNOWN as NULL, so they are NEVER-null only
    when no operand can be NULL; ``IS NULL`` is never UNKNOWN.
    """
    if isinstance(expression, Column):
        try:
            return env[schema.index_of(expression.reference)]
        except ReproError:
            return MAYBE
    if isinstance(expression, Literal):
        return ALWAYS if expression.value is None else NEVER
    if isinstance(expression, TruthLiteral):
        return NEVER
    if isinstance(expression, IsNull):
        return NEVER
    if isinstance(expression, Coalesce):
        return _coalesce_transfer(
            expression_nullability(expression.first, schema, env),
            expression_nullability(expression.second, schema, env),
        )
    if isinstance(expression, Arithmetic):
        left = expression_nullability(expression.left, schema, env)
        right = expression_nullability(expression.right, schema, env)
        if left is ALWAYS or right is ALWAYS:
            return ALWAYS
        if expression.op == "/":
            # Division is the one non-strict case: x/0 yields NULL even
            # on NEVER-null operands, so NEVER cannot be certified.
            return MAYBE
        if left is NEVER and right is NEVER:
            return NEVER
        return MAYBE
    if isinstance(expression, Comparison):
        left = expression_nullability(expression.left, schema, env)
        right = expression_nullability(expression.right, schema, env)
        return NEVER if left is NEVER and right is NEVER else MAYBE
    if isinstance(expression, (And, Or)):
        left = expression_nullability(expression.left, schema, env)
        right = expression_nullability(expression.right, schema, env)
        # F AND U = F (and T OR U = T), so MAYBE operands stay MAYBE
        # rather than escalating; only all-NEVER certifies NEVER.
        return NEVER if left is NEVER and right is NEVER else MAYBE
    if isinstance(expression, Not):
        return expression_nullability(expression.operand, schema, env)
    return MAYBE


def aggregate_nullability(spec: AggregateSpec, keyed: bool, schema: Schema,
                          env: Sequence[Nullability]) -> Nullability:
    """Empty-input and NULL-skipping rules of one aggregate output.

    COUNT yields 0 on empty input, never NULL.  SUM/AVG/MIN/MAX yield
    NULL on empty or all-NULL input: over a *keyed* grouping every group
    is non-empty, so a NEVER-null argument certifies NEVER; over a
    scalar aggregate or a GMDJ θ-group (``keyed=False``) the input may
    be empty, so MAYBE is the ceiling unless the argument is ALWAYS
    null (then the output is too).
    """
    if spec.function == "count":
        return NEVER
    argument = (
        NEVER if spec.argument is None
        else expression_nullability(spec.argument, schema, env)
    )
    if argument is ALWAYS:
        return ALWAYS
    if keyed and argument is NEVER:
        return NEVER
    return MAYBE


# -- aggregate classification (Gray et al.'s Data Cube taxonomy) --------------


#: Merge function per distributive aggregate: how two finalized partial
#: values over a partitioned input combine into the total.
DISTRIBUTIVE_MERGES = {
    "count": "add",
    "sum": "add",
    "min": "min",
    "max": "max",
}

AGGREGATE_CLASSES = ("distributive", "algebraic", "holistic")


@dataclass(frozen=True)
class AggregateCapability:
    """One aggregate spec's place in the distributive/algebraic/holistic
    taxonomy, with the merge function named when partials merge."""

    spec: str
    function: str
    distinct: bool
    klass: str
    merge: str | None

    @property
    def decomposable(self) -> bool:
        """True when partition partials merge (pool / MQO eligible)."""
        return self.klass != "holistic"

    def to_json(self) -> dict:
        return {
            "spec": self.spec,
            "function": self.function,
            "distinct": self.distinct,
            "class": self.klass,
            "merge": self.merge,
        }


def classify_aggregate(spec: AggregateSpec) -> AggregateCapability:
    """Classify one aggregate spec (Gray et al., PAPERS.md).

    DISTINCT wraps any function into a holistic one: the auxiliary
    state is the value set itself, and finalized values do not merge
    (the partitioned evaluator forces a single scan for exactly this
    reason).  AVG is algebraic — :func:`repro.gmdj.parallel.
    _shadow_plan` decomposes it into the mergeable (sum, count) pair.
    """
    if spec.distinct:
        return AggregateCapability(
            spec=repr(spec), function=spec.function, distinct=True,
            klass="holistic", merge=None,
        )
    if spec.function == "avg":
        return AggregateCapability(
            spec=repr(spec), function=spec.function, distinct=False,
            klass="algebraic", merge="(sum, count) add pairwise",
        )
    return AggregateCapability(
        spec=repr(spec), function=spec.function, distinct=False,
        klass="distributive", merge=DISTRIBUTIVE_MERGES.get(spec.function),
    )


def decomposable_aggregates(gmdj: GMDJ) -> bool:
    """True when every aggregate of every θ-block merges across
    partitions — the side condition pool-parallel evaluation and MQO
    scan coalescing both require."""
    return all(
        classify_aggregate(spec).decomposable
        for block in gmdj.blocks for spec in block.aggregates
    )


# -- θ-block predicate facts ---------------------------------------------------


#: Conjunct classes, most to least structured.  ``opaque`` disqualifies
#: a residual from rollup subsumption serving.
CONJUNCT_CLASSES = (
    "equality", "inequality", "range", "null-test", "constant", "opaque",
)

_ORDERED_DTYPES = frozenset(
    {DataType.INTEGER, DataType.FLOAT, DataType.STRING}
)

_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _simple_operand(expression: Expression) -> bool:
    return isinstance(expression, (Column, Literal))


def classify_conjunct(
    conjunct: Expression,
) -> tuple[str, tuple[tuple[str, str], ...]]:
    """Classify one θ conjunct; returns ``(class, monotone_facts)``.

    Monotone facts are oriented ``(column_reference, op)`` pairs for
    ordered comparisons: ``r.Y > 5`` records ``("r.Y", ">")`` — the
    predicate's truth is monotone in the column's order, the property
    range-pruning and rollup residual re-application rely on.
    """
    if isinstance(conjunct, TruthLiteral):
        return "constant", ()
    if isinstance(conjunct, IsNull) and _simple_operand(conjunct.operand):
        return "null-test", ()
    if match_null_safe_equal(conjunct) is not None:
        return "equality", ()
    if isinstance(conjunct, Comparison):
        if not (_simple_operand(conjunct.left)
                and _simple_operand(conjunct.right)):
            return "opaque", ()
        if conjunct.op == "=":
            return "equality", ()
        if conjunct.op == "<>":
            return "inequality", ()
        if conjunct.op in _MIRRORED:
            facts: list[tuple[str, str]] = []
            if isinstance(conjunct.left, Column):
                facts.append((conjunct.left.reference, conjunct.op))
            if isinstance(conjunct.right, Column):
                facts.append(
                    (conjunct.right.reference, _MIRRORED[conjunct.op])
                )
            return "range", tuple(facts)
    return "opaque", ()


@dataclass(frozen=True)
class ThetaFact:
    """Per-conjunct classification of one θ-block condition."""

    block: int
    classes: tuple[str, ...]
    monotone: tuple[tuple[str, str], ...]

    @property
    def opaque(self) -> bool:
        return "opaque" in self.classes

    def to_json(self) -> dict:
        return {
            "block": self.block,
            "classes": list(self.classes),
            "monotone": [list(fact) for fact in self.monotone],
        }


def classify_condition(block_index: int, condition: Expression,
                       detail_schema: Schema | None = None) -> ThetaFact:
    """Classify every conjunct of a θ condition into one ThetaFact.

    ``detail_schema`` restricts the recorded monotone facts to columns
    of the detail relation (ordered types only); without it every
    oriented fact over an ordered comparison is kept.
    """
    classes: list[str] = []
    monotone: list[tuple[str, str]] = []
    for conjunct in conjuncts_of(condition):
        klass, facts = classify_conjunct(conjunct)
        classes.append(klass)
        for reference, op in facts:
            if detail_schema is not None:
                try:
                    field = detail_schema.field_of(reference)
                except ReproError:
                    continue
                if field.dtype not in _ORDERED_DTYPES:
                    continue
            monotone.append((reference, op))
    return ThetaFact(
        block=block_index, classes=tuple(classes), monotone=tuple(monotone),
    )


# -- the certificate -----------------------------------------------------------


@dataclass(frozen=True)
class ColumnCapability:
    """One output column's certified nullability (positional)."""

    name: str
    nullability: Nullability

    def to_json(self) -> dict:
        return {"name": self.name, "nullability": self.nullability.value}


@dataclass(frozen=True)
class GMDJCapabilityEntry:
    """The capability facts of one GMDJ operator in the plan.

    ``relation`` names the stored detail table when the detail is a
    plain scan (the key the vectorized mask-skip gates on), else None.
    ``detail_never_null`` holds the bare names of detail columns whose
    stored data is certified NULL-free.
    """

    path: str
    relation: str | None
    detail_never_null: tuple[str, ...]
    aggregates: tuple[AggregateCapability, ...]
    theta: tuple[ThetaFact, ...]

    @property
    def decomposable(self) -> bool:
        return all(capability.decomposable
                   for capability in self.aggregates)

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "relation": self.relation,
            "detail_never_null": list(self.detail_never_null),
            "aggregates": [c.to_json() for c in self.aggregates],
            "theta": [fact.to_json() for fact in self.theta],
            "decomposable": self.decomposable,
        }


@dataclass(frozen=True)
class CapabilityCertificate:
    """The machine-checkable capability claims of one plan.

    ``columns`` is positional over the plan's output schema — exactly
    what :func:`repro.obs.invariants.check_capabilities` cross-checks
    against executed rows.  ``complete`` is False when some subtree
    could not be analyzed (unknown schema, unrecognized operator); the
    verdicts that were produced are still sound — unanalyzable regions
    degrade to MAYBE, never to NEVER.
    """

    columns: tuple[ColumnCapability, ...]
    entries: tuple[GMDJCapabilityEntry, ...]
    complete: bool

    @property
    def never_null_columns(self) -> frozenset[str]:
        return frozenset(
            column.name for column in self.columns
            if column.nullability is NEVER
        )

    @property
    def decomposable(self) -> bool:
        """Every GMDJ's every aggregate merges across partitions."""
        return all(entry.decomposable for entry in self.entries)

    def detail_never_null(self) -> dict[str, frozenset[str]]:
        """Stored detail table -> bare columns certified NEVER-null.

        A table appearing as the detail of several GMDJs keeps only the
        columns every entry certifies (intersection — conservative).
        """
        merged: dict[str, frozenset[str]] = {}
        for entry in self.entries:
            if entry.relation is None:
                continue
            certified = frozenset(entry.detail_never_null)
            if entry.relation in merged:
                merged[entry.relation] &= certified
            else:
                merged[entry.relation] = certified
        return merged

    def summary(self) -> str:
        never = sum(1 for c in self.columns if c.nullability is NEVER)
        always = sum(1 for c in self.columns if c.nullability is ALWAYS)
        text = (
            f"capability certificate: {len(self.columns)} column(s) "
            f"({never} never-null, {always} always-null)"
        )
        if self.entries:
            counts = {klass: 0 for klass in AGGREGATE_CLASSES}
            for entry in self.entries:
                for capability in entry.aggregates:
                    counts[capability.klass] += 1
            classes = ", ".join(
                f"{count} {klass}" for klass, count in counts.items()
                if count
            )
            verdict = ("decomposable" if self.decomposable
                       else "holistic (single-scan only)")
            text += (
                f"; {len(self.entries)} GMDJ operator(s): "
                f"{classes or 'no aggregates'} — {verdict}"
            )
        if not self.complete:
            text += " (incomplete: unanalyzed subtree)"
        return text

    def to_json(self) -> dict:
        return {
            "complete": self.complete,
            "decomposable": self.decomposable,
            "columns": [column.to_json() for column in self.columns],
            "never_null_columns": sorted(self.never_null_columns),
            "entries": [entry.to_json() for entry in self.entries],
        }


# -- the abstract interpreter --------------------------------------------------


class _NullabilityPass:
    """One certification run's state: catalog plus a completeness bit."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.complete = True

    def env(
        self, node: Operator,
    ) -> tuple[Schema, list[Nullability]] | None:
        """Schema plus per-column nullability of one operator's output.

        Returns None (and clears ``complete``) when the schema itself
        cannot be derived; an operator without a dedicated transfer
        function degrades to all-MAYBE, also clearing ``complete``.
        """
        try:
            schema = node.schema(self.catalog)
        except ReproError:
            self.complete = False
            return None
        handler = getattr(self, f"_env_{type(node).__name__}", None)
        if handler is None:
            self.complete = False
            return schema, [MAYBE] * len(schema.fields)
        verdicts = handler(node, schema)
        if verdicts is None or len(verdicts) != len(schema.fields):
            self.complete = False
            return schema, [MAYBE] * len(schema.fields)
        return schema, verdicts

    def _child_env(
        self, child: Operator,
    ) -> tuple[Schema, list[Nullability]] | None:
        return self.env(child)

    # -- base facts (data-dependent, like column_possibly_null) ---------------

    def _env_ScanTable(self, node: ScanTable,
                       schema: Schema) -> list[Nullability] | None:
        try:
            relation = self.catalog.table(node.table_name)
        except ReproError:
            return None
        return counted_nullability(relation.null_counts(), len(relation))

    def _env_TableValue(self, node: TableValue,
                        schema: Schema) -> list[Nullability] | None:
        return counted_nullability(node.relation.null_counts(),
                                   len(node.relation))

    # -- row-filtering / order-preserving operators: verdicts pass through ----

    def _passthrough(self, node: Operator,
                     schema: Schema) -> list[Nullability] | None:
        resolved = self._child_env(node.child)  # type: ignore[attr-defined]
        return None if resolved is None else resolved[1]

    _env_Select = _passthrough
    _env_Distinct = _passthrough
    _env_Limit = _passthrough
    _env_OrderBy = _passthrough
    _env_Rename = _passthrough
    _env_NestedSelect = _passthrough

    def _env_Project(self, node: Project,
                     schema: Schema) -> list[Nullability] | None:
        resolved = self._child_env(node.child)
        if resolved is None:
            return None
        child_schema, env = resolved
        return [
            expression_nullability(item.expression, child_schema, env)
            for item in node._resolved_items()
        ]

    def _env_Union(self, node: Union,
                   schema: Schema) -> list[Nullability] | None:
        left = self._child_env(node.left)
        right = self._child_env(node.right)
        if left is None or right is None:
            return None
        return [Nullability.join(a, b) for a, b in zip(left[1], right[1])]

    def _env_Intersect(self, node: Intersect,
                       schema: Schema) -> list[Nullability] | None:
        resolved = self._child_env(node.left)
        return None if resolved is None else resolved[1]

    def _env_Difference(self, node: Difference,
                        schema: Schema) -> list[Nullability] | None:
        resolved = self._child_env(node.left)
        return None if resolved is None else resolved[1]

    def _env_Join(self, node: Join,
                  schema: Schema) -> list[Nullability] | None:
        left = self._child_env(node.left)
        if left is None:
            return None
        if node.kind in ("semi", "anti"):
            return left[1]
        right = self._child_env(node.right)
        if right is None:
            return None
        if node.kind == "left":
            # Unmatched left rows pad the right side with NULL: NEVER
            # weakens to MAYBE; ALWAYS stays (NULL padding is NULL too).
            padded = [
                verdict if verdict is ALWAYS else
                (MAYBE if verdict is NEVER else verdict)
                for verdict in right[1]
            ]
            return left[1] + padded
        return left[1] + right[1]

    def _env_GroupBy(self, node: GroupBy,
                     schema: Schema) -> list[Nullability] | None:
        resolved = self._child_env(node.child)
        if resolved is None:
            return None
        child_schema, env = resolved
        verdicts: list[Nullability] = []
        for key in node.keys:
            try:
                verdicts.append(env[child_schema.index_of(key)])
            except ReproError:
                verdicts.append(MAYBE)
        keyed = bool(node.keys)
        for spec in node.aggregates:
            verdicts.append(
                aggregate_nullability(spec, keyed, child_schema, env)
            )
        return verdicts

    def _env_GMDJ(self, node: GMDJ,
                  schema: Schema) -> list[Nullability] | None:
        base = self._child_env(node.base)
        detail = self._child_env(node.detail)
        if base is None or detail is None:
            return None
        detail_schema, detail_env = detail
        verdicts = list(base[1])
        for block in node.blocks:
            for spec in block.aggregates:
                # A θ-group can be empty for any base tuple, so GMDJ
                # aggregates follow the scalar (keyed=False) rules.
                verdicts.append(aggregate_nullability(
                    spec, False, detail_schema, detail_env,
                ))
        return verdicts

    def _env_SelectGMDJ(self, node: SelectGMDJ,
                        schema: Schema) -> list[Nullability] | None:
        resolved = self.env(node.gmdj)
        return None if resolved is None else resolved[1]

    def _env_Apply(self, node: Apply,
                   schema: Schema) -> list[Nullability] | None:
        resolved = self._child_env(node.child)
        if resolved is None:
            return None
        verdicts = list(resolved[1])
        # The applied subquery's scalar outputs depend on per-row inner
        # evaluation; certify conservatively.
        verdicts.extend([MAYBE] * (len(schema.fields) - len(verdicts)))
        return verdicts


def _gmdj_entries(plan: Operator,
                  interpreter: _NullabilityPass) -> list[GMDJCapabilityEntry]:
    """Collect one capability entry per GMDJ, cost-certificate paths."""
    entries: list[GMDJCapabilityEntry] = []

    def block_facts(
        blocks: Iterable[ThetaBlock], detail_schema: Schema | None,
    ) -> tuple[tuple[AggregateCapability, ...], tuple[ThetaFact, ...]]:
        aggregates: list[AggregateCapability] = []
        theta: list[ThetaFact] = []
        for index, block in enumerate(blocks):
            aggregates.extend(
                classify_aggregate(spec) for spec in block.aggregates
            )
            theta.append(
                classify_condition(index, block.condition, detail_schema)
            )
        return tuple(aggregates), tuple(theta)

    def visit(node: Operator, path: str) -> None:
        if isinstance(node, SelectGMDJ):
            visit(node.gmdj, path)
            return
        if isinstance(node, GMDJ):
            relation = (
                node.detail.table_name
                if isinstance(node.detail, ScanTable) else None
            )
            detail = interpreter.env(node.detail)
            detail_schema: Schema | None = None
            never_null: tuple[str, ...] = ()
            if detail is not None:
                detail_schema, detail_env = detail
                never_null = tuple(
                    field.name
                    for field, verdict in zip(detail_schema.fields,
                                              detail_env)
                    if verdict is NEVER
                )
            aggregates, theta = block_facts(node.blocks, detail_schema)
            entries.append(GMDJCapabilityEntry(
                path=path or "plan",
                relation=relation,
                detail_never_null=never_null,
                aggregates=aggregates,
                theta=theta,
            ))
            visit(node.base, f"{path}/base")
            visit(node.detail, f"{path}/detail")
            return
        for position, child in enumerate(node.children()):
            visit(child,
                  f"{path}/{type(node).__name__.lower()}[{position}]")

    visit(plan, "")
    return entries


def certify_capabilities(plan: Operator,
                         catalog: Catalog) -> CapabilityCertificate:
    """Run the abstract-interpretation pass over one plan.

    Always returns a certificate: columns whose nullability cannot be
    derived are MAYBE and the certificate is marked incomplete — sound
    in the only direction that matters (NEVER/ALWAYS are claims, MAYBE
    is the absence of one).
    """
    interpreter = _NullabilityPass(catalog)
    resolved = interpreter.env(plan)
    if resolved is None:
        columns: tuple[ColumnCapability, ...] = ()
    else:
        schema, env = resolved
        columns = tuple(
            ColumnCapability(name=field.full_name, nullability=verdict)
            for field, verdict in zip(schema.fields, env)
        )
    entries = _gmdj_entries(plan, interpreter)
    return CapabilityCertificate(
        columns=columns,
        entries=tuple(entries),
        complete=interpreter.complete and bool(columns),
    )


# -- ambient certificate (consumed by the vectorized kernel) -------------------


_capabilities_var: ContextVar[CapabilityCertificate | None] = ContextVar(
    "repro_capabilities", default=None
)


def current_capabilities() -> CapabilityCertificate | None:
    """The certificate of the plan currently executing, if any."""
    return _capabilities_var.get()


class capability_scope:
    """Context manager installing a plan's certificate for one run.

    The planner wraps every GMDJ-strategy execution in this; the
    vectorized kernel reads it back with :func:`current_capabilities`
    to gate validity-mask skipping.  A ContextVar, so concurrent serve
    requests each see their own plan's certificate.
    """

    def __init__(self, certificate: CapabilityCertificate | None) -> None:
        self.certificate = certificate
        self._token: Token[CapabilityCertificate | None] | None = None

    def __enter__(self) -> CapabilityCertificate | None:
        self._token = _capabilities_var.set(self.certificate)
        return self.certificate

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _capabilities_var.reset(self._token)


__all__ = [
    "AGGREGATE_CLASSES",
    "AggregateCapability",
    "CONJUNCT_CLASSES",
    "CapabilityCertificate",
    "ColumnCapability",
    "DISTRIBUTIVE_MERGES",
    "GMDJCapabilityEntry",
    "Nullability",
    "ThetaFact",
    "aggregate_nullability",
    "capability_scope",
    "certify_capabilities",
    "classify_aggregate",
    "classify_condition",
    "classify_conjunct",
    "counted_nullability",
    "current_capabilities",
    "decomposable_aggregates",
    "expression_nullability",
    "observed_nullability",
    "stored_nullability",
]
