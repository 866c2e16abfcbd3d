"""Property-based identity: python batch kernel vs. numpy backend.

The numpy whole-array backend must be invisible everywhere except wall
clock: for any random NULL-heavy database and any Table 1 subquery form,
``evaluate_plan_vectorized(..., backend="numpy")`` must return the
**identical row list** (values, duplicates, and order — not just bag
equality) as ``backend="python"``, with the **identical IOStats
snapshot** (scans, index probes, predicate evaluations, aggregate
updates), and must uphold capability certificates exactly as the python
kernel does.

This is deliberately stronger than the vectorized-vs-row-kernel
property (`test_property_vectorized`): the backend switch is a pure
array-kernel substitution inside one scan algorithm, so even the
per-operator counters must agree.

A second property draws multi-block hash GMDJs directly — blocks that
share a key or do not, duplicate base keys, NULL and constant key
components, two-column keys, bool/float/string keys — and holds the
row kernel, the python batch kernel and the numpy backend to the same
rows, order and counters.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy", exc_type=ImportError)

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra.aggregates import agg
from repro.algebra.expressions import TRUE, Comparison, Not, col, lit
from repro.algebra.nested import (
    Exists,
    NestedSelect,
    QuantifiedComparison,
    ScalarComparison,
    Subquery,
    in_predicate,
    not_in_predicate,
)
from repro.algebra.operators import ScanTable
from repro.gmdj import md
from repro.gmdj.evaluate import invariant_sharing
from repro.gmdj.modes import evaluate_plan_vectorized
from repro.lint.absint import capability_scope, certify_capabilities
from repro.storage import Catalog, DataType, Relation
from repro.storage.iostats import collect
from repro.unnesting import subquery_to_gmdj

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

small_int = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
small_str = st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc"]))
small_float = st.one_of(st.none(),
                        st.sampled_from([-1.5, 0.0, -0.0, 2.25, 9.5]))


@st.composite
def databases(draw):
    catalog = Catalog()
    b_rows = draw(st.lists(st.tuples(small_int, small_int, small_str),
                           min_size=0, max_size=8))
    r_rows = draw(st.lists(
        st.tuples(small_int, small_int, small_str, small_float),
        min_size=0, max_size=12))
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("X", DataType.INTEGER),
         ("S", DataType.STRING)], b_rows,
    ))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("Y", DataType.INTEGER),
         ("T", DataType.STRING), ("G", DataType.FLOAT)], r_rows,
    ))
    return catalog


comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])
agg_functions = st.sampled_from(["count", "sum", "avg", "min", "max"])


@st.composite
def inner_conditions(draw, alias="r"):
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append(col(f"{alias}.K") == col("b.K"))
    if draw(st.booleans()):
        # String equi-correlation: dictionary-coded hash keys.
        conjuncts.append(col(f"{alias}.T") == col("b.S"))
    if draw(st.booleans()):
        op = draw(comparison_ops)
        conjuncts.append(Comparison(op, col(f"{alias}.Y"),
                                    lit(draw(st.integers(0, 6)))))
    if draw(st.booleans()):
        # Float residual over a NULL-heavy column.
        conjuncts.append(Comparison(draw(comparison_ops),
                                    col(f"{alias}.G"), lit(1.5)))
    if not conjuncts:
        return TRUE
    predicate = conjuncts[0]
    for extra in conjuncts[1:]:
        predicate = predicate & extra
    return predicate


#: All six Table 1 subquery forms.
FORMS = ("exists", "not_exists", "in", "not_in", "quantified", "agg")

#: Inner item / aggregate argument columns, covering every array dtype.
ITEM_COLUMNS = ("Y", "T", "G")


@st.composite
def subquery_leaves(draw, alias="r"):
    theta = draw(inner_conditions(alias))
    kind = draw(st.sampled_from(FORMS))
    item_column = draw(st.sampled_from(ITEM_COLUMNS))
    item = col(f"{alias}.{item_column}")
    outer = col("b.S") if item_column == "T" else col("b.X")
    subquery = Subquery(ScanTable("R", alias), theta)
    if kind == "exists":
        return Exists(subquery)
    if kind == "not_exists":
        return Exists(subquery, negated=True)
    if kind == "in":
        return in_predicate(
            outer, Subquery(ScanTable("R", alias), theta, item=item))
    if kind == "not_in":
        return not_in_predicate(
            outer, Subquery(ScanTable("R", alias), theta, item=item))
    if kind == "agg":
        function = draw(agg_functions)
        argument = None if function == "count" else item
        outer_side = outer
        if item_column == "T" and function in ("count", "sum", "avg"):
            # These aggregates are numeric regardless of the argument;
            # keep the comparison type-correct.
            argument = None if function == "count" else col(f"{alias}.Y")
            outer_side = col("b.X")
        return ScalarComparison(
            draw(comparison_ops), outer_side,
            Subquery(ScanTable("R", alias), theta,
                     aggregate=agg(function, argument, "v")),
        )
    return QuantifiedComparison(
        draw(comparison_ops), draw(st.sampled_from(["some", "all"])),
        outer, Subquery(ScanTable("R", alias), theta, item=item),
    )


@st.composite
def predicates(draw):
    first = draw(subquery_leaves("r1"))
    shape = draw(st.sampled_from(["single", "and", "or", "not"]))
    if shape == "single":
        return first
    if shape == "not":
        return Not(first)
    second = draw(
        st.one_of(
            subquery_leaves("r2"),
            st.builds(lambda v: col("b.X") > lit(v), st.integers(0, 6)),
        )
    )
    if shape == "and":
        return first & second
    return first | second


def _run_both(plan, catalog, chunk_size=None):
    """Evaluate on both backends under IOStats collection."""
    with collect() as python_stats:
        python_result = evaluate_plan_vectorized(
            plan, catalog, chunk_size, backend="python")
    with collect() as numpy_stats:
        numpy_result = evaluate_plan_vectorized(
            plan, catalog, chunk_size, backend="numpy")
    return python_result, python_stats, numpy_result, numpy_stats


class TestBackendIdentity:
    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           optimize=st.booleans())
    def test_rows_order_and_counters_identical(self, catalog, predicate,
                                               optimize):
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=optimize)
        python_result, python_stats, numpy_result, numpy_stats = _run_both(
            plan, catalog)
        assert python_result.rows == numpy_result.rows
        assert python_stats.snapshot() == numpy_stats.snapshot()

    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           sharing=st.booleans())
    def test_identity_without_invariant_sharing(self, catalog, predicate,
                                                sharing):
        # Sharing off turns invariant blocks into scan blocks; both
        # backends must flip identically.
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog)
        with invariant_sharing(sharing):
            python_result, python_stats, numpy_result, numpy_stats = \
                _run_both(plan, catalog)
        assert python_result.rows == numpy_result.rows
        assert python_stats.snapshot() == numpy_stats.snapshot()

    @SETTINGS
    @given(catalog=databases(), predicate=predicates(),
           chunk_size=st.integers(min_value=1, max_value=6))
    def test_identity_at_any_chunk_size(self, catalog, predicate,
                                        chunk_size):
        # chunk_size shapes the *python* kernel's batching; the numpy
        # backend is whole-array regardless, and the results (and the
        # scan-level counters) must not depend on batch boundaries.
        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        python_result, python_stats, numpy_result, numpy_stats = _run_both(
            plan, catalog, chunk_size)
        assert python_result.rows == numpy_result.rows
        assert python_stats.snapshot() == numpy_stats.snapshot()

    @SETTINGS
    @given(catalog=databases(), predicate=predicates())
    def test_certificates_hold_on_both_backends(self, catalog, predicate):
        from repro.obs.invariants import check_capabilities

        query = NestedSelect(ScanTable("B", "b"), predicate)
        plan = subquery_to_gmdj(query, catalog, optimize=True)
        certificate = certify_capabilities(plan, catalog)
        for backend in ("python", "numpy"):
            with capability_scope(certificate):
                result = evaluate_plan_vectorized(
                    plan, catalog, None, backend=backend)
            report = check_capabilities(result.rows, certificate)
            assert not report.violations, (backend, report.violations)


# -- hash-block row grouping: multi-block GMDJs over many key shapes -------

key_int = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
key_str = st.one_of(st.none(), st.sampled_from(["aa", "bb"]))
key_bool = st.one_of(st.none(), st.booleans())
# NaN is drawn as a fresh object per row: Python's dict probe matches a
# NaN only against the very same object, which no kernel can preserve
# through a columnar encoding.
key_float = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5]),
                      st.builds(lambda: float("nan")))


@st.composite
def key_databases(draw):
    """Small key domains so base keys repeat and most detail rows hit."""
    catalog = Catalog()
    b_rows = draw(st.lists(
        st.tuples(key_int, key_str, key_float, key_bool, key_int),
        min_size=0, max_size=8))
    r_rows = draw(st.lists(
        st.tuples(key_int, key_str, key_float, key_bool, small_int),
        min_size=0, max_size=14))
    catalog.create_table("B", Relation.from_columns(
        [("K", DataType.INTEGER), ("S", DataType.STRING),
         ("F", DataType.FLOAT), ("Z", DataType.BOOLEAN),
         ("X", DataType.INTEGER)], b_rows,
    ))
    catalog.create_table("R", Relation.from_columns(
        [("K", DataType.INTEGER), ("T", DataType.STRING),
         ("G", DataType.FLOAT), ("Z", DataType.BOOLEAN),
         ("Y", DataType.INTEGER)], r_rows,
    ))
    return catalog


#: Equi-key conjunctions by name; a literal right-hand side is a
#: constant detail key component (``None`` makes the whole key NULL).
KEY_SHAPES = {
    "int": lambda c: col("b.K") == col("r.K"),
    # Same detail key as "int" against another base key: blocks must
    # not share a grouping whose buckets differ.
    "other_base_key": lambda c: col("b.X") == col("r.K"),
    "string": lambda c: col("b.S") == col("r.T"),
    "float": lambda c: col("b.F") == col("r.G"),
    "bool": lambda c: col("b.Z") == col("r.Z"),
    "int_float": lambda c: col("b.K") == col("r.G"),
    "two_column": lambda c: ((col("b.K") == col("r.K"))
                             & (col("b.S") == col("r.T"))),
    "with_constant": lambda c: ((col("b.K") == col("r.K"))
                                & (col("b.X") == lit(c))),
    "only_constant": lambda c: col("b.X") == lit(c),
}


@st.composite
def keyed_gmdjs(draw):
    """A GMDJ of 1–4 hash blocks that share key shapes or do not."""
    shapes = st.sampled_from(sorted(KEY_SHAPES))
    width = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        names = [draw(shapes)] * width  # one shared key for every block
    else:
        names = [draw(shapes) for _ in range(width)]
    constant = draw(st.one_of(st.none(), st.integers(0, 3)))
    aggregate_lists, conditions = [], []
    for position, name in enumerate(names):
        condition = KEY_SHAPES[name](constant)
        residual = draw(st.sampled_from(["none", "detail", "pair"]))
        if residual == "detail":
            condition = condition & (col("r.Y") > lit(draw(
                st.integers(0, 6))))
        elif residual == "pair":
            condition = condition & (col("r.Y") < col("b.X"))
        conditions.append(condition)
        aggregate_lists.append([
            agg("count", None, f"c{position}"),
            agg("sum", col("r.Y"), f"s{position}"),
            agg(draw(st.sampled_from(["min", "max", "avg"])),
                col("r.G"), f"g{position}"),
        ])
    return md(ScanTable("B", "b"), ScanTable("R", "r"),
              aggregate_lists, conditions)


def _nan_comparable(rows):
    """Rows with NaN replaced by a marker (``nan != nan`` in tuples
    whose NaNs are different objects)."""
    return [tuple("<NaN>" if isinstance(value, float) and value != value
                  else value for value in row) for row in rows]


class TestHashGroupingIdentity:
    @SETTINGS
    @given(catalog=key_databases(), gmdj=keyed_gmdjs())
    def test_row_python_numpy_identical(self, catalog, gmdj):
        with collect() as row_stats:
            row_result = gmdj.evaluate(catalog)
        python_result, python_stats, numpy_result, numpy_stats = _run_both(
            gmdj, catalog)
        assert (_nan_comparable(row_result.rows)
                == _nan_comparable(python_result.rows)
                == _nan_comparable(numpy_result.rows))
        assert (row_stats.snapshot() == python_stats.snapshot()
                == numpy_stats.snapshot())
