"""``Select`` runs its predicate through the memoized compiled row form.

The codegen'd :func:`~repro.algebra.compile.compile_row` must be a
3VL-exact drop-in for ``Expression.bind`` on whatever a ``Select`` sees —
NULL-heavy rows, division by zero, strings — with identical ``IOStats``.
Compiled predicates share the bind LRU (same cap, same hit/miss
metrics), so a query re-served from one stored rollup compiles each
predicate once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.algebra import compile as compile_module
from repro.algebra.compile import compile_row
from repro.algebra.expressions import (
    And,
    Arithmetic,
    Comparison,
    IsNull,
    Literal,
    Not,
    Or,
    col,
    lit,
)
from repro.algebra.operators import Select, TableValue
from repro.errors import ExpressionError
from repro.obs.metrics import get_registry
from repro.storage import DataType
from repro.storage.iostats import IOStats, collect
from repro.storage.relation import Relation
from repro.storage.schema import Field, Schema

SCHEMA = Schema([
    Field("a", DataType.INTEGER, "t"),
    Field("b", DataType.INTEGER, "t"),
    Field("f", DataType.FLOAT, "t"),
    Field("s", DataType.STRING, "t"),
    Field("u", DataType.STRING, "t"),
])

OPS = ("=", "<>", "<", "<=", ">", ">=")


def _nullable(values):
    return st.one_of(st.none(), values)


ROWS = st.lists(
    st.tuples(
        _nullable(st.integers(-2, 2)),
        _nullable(st.integers(-2, 2)),
        _nullable(st.sampled_from([-1.5, 0.0, 0.5, 2.0])),
        _nullable(st.sampled_from(["", "a", "b", "ab"])),
        _nullable(st.sampled_from(["a", "b", "c"])),
    ),
    min_size=1,
    max_size=25,
)

NUMERIC_LEAVES = st.one_of(
    st.sampled_from([col("t.a"), col("t.b"), col("t.f")]),
    st.sampled_from([0, 1, -1, 2]).map(lit),
    st.just(Literal(None)),
)
NUMERIC = st.recursive(
    NUMERIC_LEAVES,
    lambda inner: st.builds(Arithmetic, st.sampled_from("+-*/"),
                            inner, inner),
    max_leaves=4,
)
STRINGS = st.one_of(
    st.sampled_from([col("t.s"), col("t.u")]),
    st.sampled_from(["a", "b", ""]).map(lit),
)
QUOTIENTS = st.builds(Arithmetic, st.just("/"), NUMERIC, NUMERIC)
ATOMS = st.one_of(
    st.builds(Comparison, st.sampled_from(OPS), NUMERIC, NUMERIC),
    st.builds(Comparison, st.sampled_from(OPS), QUOTIENTS, NUMERIC),
    st.builds(Comparison, st.sampled_from(OPS), STRINGS, STRINGS),
    st.builds(IsNull, st.one_of(NUMERIC, QUOTIENTS, STRINGS), st.booleans()),
)
PREDICATES = st.recursive(
    ATOMS,
    lambda inner: st.one_of(
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Not, inner),
    ),
    max_leaves=5,
)


def bound_select(relation: Relation, predicate) -> list[tuple]:
    """The interpreter ``Select`` as it ran before compilation."""
    stats = IOStats.ambient()
    test = predicate.bind(relation.schema)
    rows = []
    for row in relation.scan():
        stats.predicate_evals += 1
        if test(row).is_true:
            rows.append(row)
    stats.tuples_output += len(rows)
    return rows


def _outcome(thunk):
    with collect() as stats:
        try:
            value = thunk()
        except ExpressionError as error:
            value = ("error", str(error))
    return value, stats.snapshot()


@settings(max_examples=200)
@given(predicate=PREDICATES, rows=ROWS)
def test_compiled_select_matches_bound(predicate, rows):
    relation = Relation(SCHEMA, rows, validate=False)
    compiled = compile_row(predicate, SCHEMA)
    bound = predicate.bind(SCHEMA)
    for row in rows:
        assert compiled(row) is bound(row), (predicate, row)

    def run_compiled():
        return Select(TableValue(relation), predicate).evaluate(None).rows

    assert _outcome(run_compiled) == _outcome(
        lambda: bound_select(relation, predicate))


def test_division_by_zero_and_null_strings():
    rows = [(1, 0, 0.0, None, "a"), (None, 2, 1.0, "a", "a"),
            (4, 2, None, "b", None)]
    relation = Relation(SCHEMA, rows, validate=False)
    predicate = (IsNull(Arithmetic("/", col("t.a"), col("t.b")))
                 | (col("t.s") == col("t.u")))
    result = Select(TableValue(relation), predicate).evaluate(None)
    assert result.rows == rows[:2]


class TestMemo:
    def test_memo_stays_within_cap(self):
        from repro.algebra.expressions import _BIND_CACHE_LIMIT, _bind_cache

        relation = Relation(SCHEMA, [(1, 2, 0.5, "a", "b")], validate=False)
        for bound in range(_BIND_CACHE_LIMIT + 50):
            Select(TableValue(relation), col("t.a") < lit(bound)).evaluate(None)
        assert len(_bind_cache) <= _BIND_CACHE_LIMIT

    def test_repeated_rollup_hits_compile_once(self, monkeypatch):
        db = Database()
        db.create_table("B", [("k", DataType.INTEGER),
                              ("x", DataType.INTEGER)],
                        [(i, i % 7) for i in range(40)])
        db.create_table("R", [("k", DataType.INTEGER),
                              ("v", DataType.INTEGER)],
                        [(i % 40, i) for i in range(400)])
        query = db.sql(
            "SELECT b.k FROM B b WHERE b.x > 2 AND EXISTS "
            "(SELECT * FROM R r WHERE r.k = b.k AND r.v > 100)")
        options = QueryOptions(strategy="gmdj", rollup="subsume")
        compiles = []
        original = compile_module._compile_row

        def counting(expression, schema):
            compiles.append(expression)
            return original(expression, schema)

        monkeypatch.setattr(compile_module, "_compile_row", counting)
        # profile() always executes (no result cache) but shares the
        # translation cache, so every run below re-serves one rollup.
        first = db.profile(query, options).result
        warm = len(compiles)
        hits = get_registry().counter("expr_bind_cache_hits").value
        for _ in range(5):
            assert db.profile(query, options).result.rows == first.rows
        assert db.rollups.stats()["exact_hits"] == 5
        assert warm >= 1
        assert len(compiles) == warm      # every hit reused the compiled form
        assert get_registry().counter("expr_bind_cache_hits").value >= hits + 5
