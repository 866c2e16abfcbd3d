"""Per-column NULL counts kept as storage metadata.

Capability certification reads stored nullability from
:meth:`Relation.null_counts` instead of counting NULLs over every row of
every scanned table per query.  Two contracts are pinned here:

* **exactness** — whatever sequence of mutations, copies, views,
  pickling round trips and catalog loads a relation goes through, its
  counts equal a fresh row pass, and the capability certificate derived
  from them equals the one the row-level oracle
  (:func:`~repro.lint.absint.stored_nullability`) derives;
* **no row pass on the serving path** — once a table is loaded from
  ``.cols`` and changed through ``Database.insert``, no execution path
  (rollup hits, row/batch/numpy kernels, batches) counts stored rows.
"""

from __future__ import annotations

import pickle
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, QueryOptions
from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import IsNull, col, lit
from repro.algebra.operators import ScanTable, Select, TableValue
from repro.errors import TranslationError
from repro.fuzz.datagen import random_database
from repro.fuzz.generator import random_query
from repro.fuzz.queries import render_repro_sql
from repro.gmdj import md
from repro.lint import absint
from repro.lint.absint import (
    certify_capabilities,
    counted_nullability,
    stored_nullability,
)
from repro.storage import DataType
from repro.storage import relation as relation_module
from repro.storage.binio import save_binary
from repro.storage.csvio import save_csv
from repro.storage.npcolumns import HAVE_NUMPY
from repro.storage.relation import Relation
from repro.unnesting.translate import subquery_to_gmdj

OPS = ("insert", "extend", "copy", "rename", "scan", "pickle", "count",
       "db_insert", "register", "create_table", "csv", "binary")


def assert_exact(relation: Relation) -> None:
    """Counts and their verdicts equal a fresh pass over the rows."""
    arity = len(relation.schema)
    counts = relation.null_counts()
    assert list(counts) == [
        sum(1 for row in relation.rows if row[position] is None)
        for position in range(arity)
    ]
    assert (counted_nullability(counts, len(relation))
            == stored_nullability(relation.rows, arity))


def _row_pass_env_scan(self, node, schema):
    """The certification base fact as derived before counts existed."""
    rows = self.catalog.table(node.table_name).rows
    return stored_nullability(rows, len(schema.fields))


def _row_pass_env_value(self, node, schema):
    return stored_nullability(node.relation.rows, len(schema.fields))


def row_pass_certificate(plan, catalog):
    """``certify_capabilities`` with the old per-query row pass."""
    with mock.patch.object(absint._NullabilityPass, "_env_ScanTable",
                           _row_pass_env_scan), \
            mock.patch.object(absint._NullabilityPass, "_env_TableValue",
                              _row_pass_env_value):
        return certify_capabilities(plan, catalog)


def _random_row(rng: random.Random) -> tuple:
    def maybe(value):
        return None if rng.random() < 0.5 else value

    return (maybe(rng.randrange(5)), maybe(rng.randrange(8)),
            maybe(rng.choice("abcd")))


def _plans(db: Database, seed: int, relation: Relation) -> list:
    """Translated fuzz queries over B/R/S plus a TableValue plan."""
    rng = random.Random(seed)
    plans = [Select(TableValue(relation, "t"), IsNull(col("t.y")))]
    for _ in range(4):
        try:
            query = db.sql(render_repro_sql(random_query(rng)))
            plans.append(subquery_to_gmdj(query, db.catalog,
                                          optimize=rng.random() < 0.5))
        except TranslationError:
            continue
    return plans


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000),
       ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=12))
def test_counts_stay_exact_through_any_sequence(seed, ops):
    rng = random.Random(seed)
    spec = random_database(rng, max_rows=12,
                           null_rate=rng.choice([0.25, 0.4, 0.6]))
    db = Database()
    for name, table in spec.tables.items():
        db.create_table(name, list(table.columns), table.rows)
    current = db.table("R")
    with tempfile.TemporaryDirectory() as directory:
        for step, op in enumerate(ops):
            fresh = f"T{step}"
            path = Path(directory) / fresh
            if op == "insert":
                current.insert(_random_row(rng))
            elif op == "extend":
                current.extend(_random_row(rng)
                               for _ in range(rng.randrange(4)))
            elif op == "copy":
                current = current.copy()
            elif op == "rename":
                current = current.rename("q")
            elif op == "scan":
                db.register("R", current)
                current = ScanTable("R", "r").evaluate(db.catalog)
            elif op == "pickle":
                current = pickle.loads(pickle.dumps(current))
            elif op == "count":
                current.null_counts()
            elif op == "db_insert":
                db.register("R", current)
                current = db.insert(
                    "R", [_random_row(rng) for _ in range(rng.randrange(4))])
            elif op == "register":
                current = db.register("R", current)
            elif op == "create_table":
                columns = [(field.name, field.dtype)
                           for field in current.schema.fields]
                current = db.create_table(fresh, columns, current.rows)
            elif op == "csv":
                save_csv(current, path.with_suffix(".csv"))
                current = db.load_csv(fresh, path.with_suffix(".csv"))
            elif op == "binary":
                save_binary(current, path.with_suffix(".cols"))
                current = db.load_binary(fresh, path.with_suffix(".cols"))
            assert_exact(current)
    db.register("R", current)
    for name in db.catalog.table_names():
        assert_exact(db.table(name))
    for plan in _plans(db, seed, current):
        assert (certify_capabilities(plan, db.catalog).to_json()
                == row_pass_certificate(plan, db.catalog).to_json())


class TestRelationCounts:
    def test_insert_before_and_after_first_count(self):
        relation = Relation.from_columns(
            [("a", DataType.INTEGER), ("b", DataType.STRING)],
            [(1, None), (None, None)],
        )
        relation.insert((None, "x"))          # counts not yet computed
        assert relation.null_counts() == (2, 2)
        relation.insert((None, None))         # maintained incrementally
        relation.extend([(3, "y"), (None, "z")])
        assert relation.null_counts() == (4, 3)

    def test_binary_load_is_seeded(self, tmp_path):
        relation = Relation.from_columns(
            [("a", DataType.INTEGER), ("s", DataType.STRING)],
            [(None, "x"), (2, None), (None, None)],
        )
        save_binary(relation, tmp_path / "t.cols")
        db = Database()
        loaded = db.load_binary("t", tmp_path / "t.cols")
        assert loaded._nulls == [2, 2]


# -- the serving path never counts stored rows --------------------------------

BASE_ROWS = 200
DETAIL_ROWS = 20_000


def _forbidden(*args, **kwargs):
    raise AssertionError("a per-row NULL count ran on the serving path")


@pytest.fixture
def loaded_db(tmp_path):
    rng = random.Random(13)
    base = Relation.from_columns(
        [("k", DataType.INTEGER), ("x", DataType.INTEGER)],
        [(i, rng.choice([None, rng.randrange(10)])) for i in range(BASE_ROWS)],
    )
    detail = Relation.from_columns(
        [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
        [(rng.randrange(BASE_ROWS), rng.choice([None, rng.randrange(1000)]))
         for _ in range(DETAIL_ROWS)],
    )
    save_binary(base, tmp_path / "B.cols")
    save_binary(detail, tmp_path / "R.cols")
    db = Database()
    db.load_binary("B", tmp_path / "B.cols")
    db.load_binary("R", tmp_path / "R.cols")
    db.insert("R", [(1, None), (2, 7)])
    return db


EXISTS = ("SELECT b.k FROM B b WHERE EXISTS "
          "(SELECT * FROM R r WHERE r.k = b.k AND r.v > 500)")
AGG = ("SELECT b.k FROM B b WHERE b.x < "
       "(SELECT COUNT(*) FROM R r WHERE r.k = b.k)")


def test_serving_path_never_counts_stored_rows(loaded_db, monkeypatch):
    db = loaded_db
    certified = []

    def counting_certify(plan, catalog):
        certified.append(plan)
        return certify_capabilities(plan, catalog)

    monkeypatch.setattr(relation_module, "count_nulls", _forbidden)
    monkeypatch.setattr(absint, "stored_nullability", _forbidden)
    monkeypatch.setattr(absint, "certify_capabilities", counting_certify)

    rollup = QueryOptions(strategy="gmdj", rollup="subsume", use_cache=False)
    db.execute_sql(EXISTS, rollup)
    db.execute_sql(EXISTS, rollup)
    assert db.rollups.stats()["exact_hits"] == 1

    aggs = [[count_star("cnt"), agg("max", col("r.v"), "mx")]]
    theta = [col("b.k") == col("r.k")]
    db.execute(md(ScanTable("B", "b"), ScanTable("R", "r"), aggs, theta),
               rollup)
    db.execute(md(Select(ScanTable("B", "b"), col("b.x") > lit(4)),
                  ScanTable("R", "r"), aggs, theta), rollup)
    assert db.rollups.stats()["subsume_hits"] == 1

    direct = dict(strategy="gmdj_optimized", rollup="off", use_cache=False)
    kernels = [QueryOptions(**direct),
               QueryOptions(**direct, mode="gmdj_vectorized")]
    if HAVE_NUMPY:
        kernels.append(QueryOptions(**direct, backend="numpy"))
    results = [db.execute_sql(AGG, options) for options in kernels]
    assert all(result.rows == results[0].rows for result in results)
    db.execute_sql_batch([EXISTS, AGG], QueryOptions(**direct))
    assert len(certified) >= 4 + len(kernels)
