"""Tests of the benchmark's own machinery (not of the engine's speed)."""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import datagen, measure
from perfbench.reference import Reference, digest
from perfbench.workloads import WORKLOADS, op_stream, repeated_text_share

ROOT = Path(__file__).resolve().parents[2]


def small(name: str):
    """The named workload shrunk to test size (same shape and forms)."""
    return dataclasses.replace(WORKLOADS[name], customers=40, orders=800)


# -- determinism ------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_new_seed_new_inputs(name):
    workload = small(name)
    assert op_stream(workload, 7, 120) == op_stream(workload, 7, 120)
    assert op_stream(workload, 7, 120) != op_stream(workload, 8, 120)
    first = datagen.checksum(datagen.make_tables(workload, 7))
    assert first == datagen.checksum(datagen.make_tables(workload, 7))
    assert first != datagen.checksum(datagen.make_tables(workload, 8))
    assert (datagen.insert_rows(workload, 7, 1)
            == datagen.insert_rows(workload, 7, 1))
    assert (datagen.insert_rows(workload, 7, 1)
            != datagen.insert_rows(workload, 8, 1))


@pytest.mark.parametrize("name", ["adhoc", "batch_refresh"])
def test_fresh_literals_never_repeat_a_text(name):
    assert repeated_text_share(op_stream(WORKLOADS[name], 3, 400)) == 0.0


def test_dashboard_stream_shape():
    ops = op_stream(WORKLOADS["dashboard"], 3, 1000)
    reads = [op for op in ops if op["kind"] == "read"]
    inserts = [op for op in ops if op["kind"] == "insert"]
    assert len(inserts) == 20  # 2% of ops
    assert [op["version"] for op in inserts] == list(range(1, 21))
    assert len({op["texts"][0] for op in reads}) <= 100


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_filters_every_subquery_by_version(name):
    for op in op_stream(WORKLOADS[name], 5, 60):
        for text in op.get("sqlite", ()):
            assert text.count("FROM orders o") == text.count("o.ver <= {v}")


# -- reference agreement on small data --------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engine_agrees_with_sqlite_reference(name, tmp_path):
    from repro import Database, QueryOptions

    workload = small(name)
    tables = datagen.make_tables(workload, 11)
    inserts = [datagen.insert_rows(workload, 11, 1)]
    datagen.write_cols(tables, tmp_path)
    db = Database()
    for table in tables:
        db.load_binary(table, tmp_path / f"{table}.cols")
    reference = Reference(tables, inserts)
    reads = [op for op in op_stream(workload, 11, 40) if op["kind"] == "read"]
    for op in reads[:14]:
        for text, sqlite_text in zip(op["texts"], op["sqlite"]):
            observed = digest(db.execute_sql(text, QueryOptions()).rows)
            assert reference.matches(sqlite_text, observed, range(0, 1)), text
    db.insert("orders", inserts[0])
    text, sqlite_text = reads[0]["texts"][0], reads[0]["sqlite"][0]
    observed = digest(db.execute_sql(text).rows)
    assert reference.matches(sqlite_text, observed, range(1, 2))
    reference.close()


def test_digest_is_a_null_aware_bag():
    assert digest([(1, 2.0), (None, 3)]) == digest([(None, 3), (1, 2)])
    assert digest([(1,), (1,)]) != digest([(1,)])
    assert digest([(None,)]) != digest([(0,)])


# -- tail percentile ----------------------------------------------------------

def test_tail_percentile_leaves_ten_samples_beyond():
    assert measure.tail_percentile(10) is None
    assert measure.tail_percentile(20) == 50.0
    assert measure.tail_percentile(39) == 50.0
    assert measure.tail_percentile(40) == 75.0
    assert measure.tail_percentile(100) == 90.0
    assert measure.tail_percentile(200) == 95.0
    assert measure.tail_percentile(1000) == 99.0
    assert measure.tail_percentile(10_000) == 99.9
    for count in (20, 40, 57, 100, 640, 5000):
        pct = measure.tail_percentile(count)
        assert measure.samples_beyond(count, pct) >= measure.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 75.0) == 75
    assert measure.percentile(values, 99.9) == 100
    assert measure.percentile([5.0], 50.0) == 5.0
    assert measure.percentile([3, 1, 2, 4], 50.0) == 2


def test_workload_tails_are_standard_percentiles():
    for workload in WORKLOADS.values():
        assert workload.tail_percentile in measure.TAIL_CANDIDATES


# -- failure counting ---------------------------------------------------------

def test_failed_frac_counts_errors_statuses_and_mismatches():
    outcomes = [
        measure.classify({"status": 200}, True),
        measure.classify({"status": 200}, None),      # a write: no rows
        measure.classify({"error": "Traceback ..."}, None),
        measure.classify({"status": None, "error": "ConnectionResetError"},
                         None),
        measure.classify({"status": 429}, None),
        measure.classify({"status": 500}, True),
        measure.classify({"status": 200}, False),
        measure.classify({}, False),                   # in-process mismatch
    ]
    counts = measure.tally(outcomes)
    assert counts["attempted"] == 8
    assert counts["failed"] == 6
    assert counts["failed_frac"] == pytest.approx(6 / 8)
    assert counts["by_outcome"] == {"ok": 2, "error": 2, "status": 2,
                                    "mismatch": 2}


def test_version_range_decides_a_concurrent_read(tmp_path):
    workload = small("dashboard")
    tables = datagen.make_tables(workload, 2)
    inserts = [datagen.insert_rows(workload, 2, 1)]
    reference = Reference(tables, inserts)
    # Only the inserted batch holds orderkeys past the initial ones.
    text = ("SELECT c.custkey FROM customer c WHERE EXISTS (SELECT * "
            "FROM orders o WHERE o.ver <= {v} AND o.custkey = c.custkey "
            f"AND o.orderkey >= {workload.orders})")
    before = reference.digest(text, 0)
    after = reference.digest(text, 1)
    assert before != after
    assert reference.matches(text, after, range(0, 2))
    assert not reference.matches(text, after, range(0, 1))
    assert measure.classify({"status": 200},
                            reference.matches(text, before, range(1, 2))) \
        == "mismatch"
    reference.close()


# -- the command -----------------------------------------------------------------

def test_printed_metrics_match_benchmark_json():
    import json

    from perfbench import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    for metric in spec["end_to_end"]:
        assert harness.UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert harness.layer_unit(metric["name"]) == metric["unit"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)



def test_command_fails_cleanly_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adhoc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert finished.returncode != 0
    assert finished.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()
