"""Rollup-store serving vs cold evaluation at paper scale.

The semantic rollup tier (:mod:`repro.engine.rollup`) claims that a
subsumption-served GMDJ touches only the ~|B| cached rollup rows, never
the |R| detail rows.  At |B|=200, |R|=100,000 that asymmetry should be
worth far more than the matcher's overhead; this benchmark pins the
claim down and commits the baseline to ``BENCH_rollup.json``:

* ``exact_replay`` — the identical query again (exact-tier hit);
* ``theta_residual`` — a finer θ answered from the coarser stored
  rollup by residual filtering (the headline workload);
* ``base_selection`` — a Select over the stored base answered by
  prefix filtering.

Every warm run is cross-checked three ways: rows identical to cold
vectorized evaluation, the serving tier actually engaged (store
counters), and the zero-detail-scan certificate — a traced warm run
must contain a ``rollup_hit`` span and not a single ``detail_scan``
span, with the rollup invariants passing strictly.

A second table, ``detail_sweep``, times warm exact hits end to end on
the SQL path (``profile_sql``: parse and bind, cached translation,
certification, rollup probe, the outer ``Select`` and ``Project``) at
|R| = 20k, 200k and 1M with |B| = 300.  A hit reads only the ~|B|
stored rollup rows, so its time must not grow with |R|: certification
reads each table's maintained null counts instead of counting NULLs
over the detail rows.
"""

from __future__ import annotations

import statistics
import time

from conftest import write_json, write_report
from repro import Database, DataType, QueryOptions
from repro.algebra.aggregates import agg, count_star
from repro.algebra.expressions import col, lit
from repro.algebra.operators import ScanTable, Select
from repro.data.rng import make_rng
from repro.obs.invariants import check_trace

BASE_ROWS = 200
DETAIL_ROWS = 100_000
HEADLINE = "theta_residual"

COLD = QueryOptions(strategy="gmdj", mode="gmdj_vectorized",
                    rollup="off", use_cache=False)
WARM = QueryOptions(strategy="gmdj", mode="gmdj_vectorized",
                    rollup="subsume", use_cache=False)

AGGS = [[count_star("cnt"),
         agg("sum", col("r.V"), "s"),
         agg("max", col("r.V"), "mx")]]
THETA = col("b.K") == col("r.K")


def _make_db() -> Database:
    rng = make_rng(7, "rollup")
    db = Database()
    db.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(i, rng.randint(0, 1000)) for i in range(BASE_ROWS)],
    )
    db.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(rng.randrange(BASE_ROWS), rng.randint(0, 1000))
         for _ in range(DETAIL_ROWS)],
    )
    return db


def _coarse():
    from repro.gmdj import md

    return md(ScanTable("B", "b"), ScanTable("R", "r"), AGGS, [THETA])


def _probes():
    from repro.gmdj import md

    return {
        "exact_replay": _coarse(),
        "theta_residual": md(
            ScanTable("B", "b"), ScanTable("R", "r"), AGGS,
            [THETA & (col("b.X") > lit(500))],
        ),
        "base_selection": md(
            Select(ScanTable("B", "b"), col("b.X") > lit(500)),
            ScanTable("R", "r"), AGGS, [THETA],
        ),
    }


SWEEP_BASE_ROWS = 300
SWEEP_DETAIL_ROWS = (20_000, 200_000, 1_000_000)
SWEEP_REPEATS = 25
SWEEP_SQL = ("SELECT b.K FROM B b WHERE b.X > 50 AND EXISTS "
             "(SELECT * FROM R r WHERE r.K = b.K AND r.V > 500)")
#: Cold priming on the whole-array kernel when numpy is present (the
#: store keys on the plan, not the kernel), so the 1M point stays quick.
SWEEP = QueryOptions(strategy="gmdj", rollup="exact", backend="auto")


def _sweep_db(detail_rows: int) -> Database:
    db = Database()
    db.create_table(
        "B", [("K", DataType.INTEGER), ("X", DataType.INTEGER)],
        [(i, i * 37 % 100) for i in range(SWEEP_BASE_ROWS)],
    )
    db.create_table(
        "R", [("K", DataType.INTEGER), ("V", DataType.INTEGER)],
        [(i * 7919 % SWEEP_BASE_ROWS, i * 104729 % 1000)
         for i in range(detail_rows)],
    )
    return db


def _detail_sweep() -> dict:
    """Median warm exact-hit wall time per detail size."""
    points = {}
    for detail_rows in SWEEP_DETAIL_ROWS:
        db = _sweep_db(detail_rows)
        cold_wall, cold = _timed(lambda: db.profile_sql(SWEEP_SQL, SWEEP))
        hits_before = db.rollups.stats()["exact_hits"]
        walls = []
        for _ in range(SWEEP_REPEATS):
            wall, warm = _timed(lambda: db.profile_sql(SWEEP_SQL, SWEEP))
            assert warm.result.rows == cold.result.rows
            walls.append(wall)
        assert (db.rollups.stats()["exact_hits"]
                == hits_before + SWEEP_REPEATS), "warm run missed the store"
        points[str(detail_rows)] = {
            "cold_ms": round(cold_wall * 1000, 3),
            "warm_hit_ms": round(statistics.median(walls) * 1000, 3),
        }
        del db
    return points


def _timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return time.perf_counter() - start, result


def _certificate(db: Database, plan) -> str:
    """Zero-detail-scan certificate for one warm serve, as pass/fail."""
    report = db.profile(plan, WARM, trace=True)
    spans = list(report.trace.walk())
    hits = [s for s in spans if s.kind == "rollup_hit"]
    scans = [s for s in spans if s.kind == "detail_scan"]
    invariants = check_trace(report.trace, strict=True)
    ok = bool(hits) and not scans and invariants.ok
    return "pass" if ok else "fail"


def test_rollup_report(benchmark):
    """Cold-vs-served comparison table + committed BENCH_rollup.json."""

    def run():
        payload = {
            "base_rows": BASE_ROWS,
            "detail_rows": DETAIL_ROWS,
            "headline": HEADLINE,
            "workloads": {},
        }
        lines = [
            "== GMDJ cold vectorized vs rollup-store serving ==",
            f"|B|={BASE_ROWS}  |R|={DETAIL_ROWS}",
            f"{'workload':<16} {'tier':<8} {'cold s':>9} {'warm s':>9} "
            f"{'speedup':>8} {'cert':>5}",
        ]
        for name, probe in _probes().items():
            db = _make_db()
            db.execute(_coarse(), WARM)  # prime the store
            stored = db.rollups.stats()
            cold_wall, cold = _timed(lambda: db.execute(probe, COLD))
            warm_wall, warm = _timed(lambda: db.execute(probe, WARM))
            assert warm.rows == cold.rows
            stats = db.rollups.stats()
            tier = ("exact" if stats["exact_hits"] > stored["exact_hits"]
                    else "subsume")
            assert stats["misses"] == stored["misses"], (
                f"{name}: warm probe missed the store"
            )
            certificate = _certificate(db, probe)
            payload["workloads"][name] = {
                "tier": tier,
                "modes": {
                    "cold_vectorized": {
                        "wall_seconds": round(cold_wall, 6),
                        "rows_per_sec": round(DETAIL_ROWS / cold_wall, 1),
                    },
                    "rollup_served": {
                        "wall_seconds": round(warm_wall, 6),
                        "rows_per_sec": round(DETAIL_ROWS / warm_wall, 1),
                    },
                },
                "speedup": round(cold_wall / warm_wall, 2),
                "zero_detail_scan_certificate": certificate,
            }
            lines.append(
                f"{name:<16} {tier:<8} {cold_wall:>9.4f} {warm_wall:>9.4f} "
                f"{cold_wall / warm_wall:>7.1f}x {certificate:>5}"
            )
        payload["detail_sweep"] = sweep = _detail_sweep()
        lines += [
            "",
            "== warm exact rollup hit vs detail size (SQL path) ==",
            f"|B|={SWEEP_BASE_ROWS}  median of {SWEEP_REPEATS} warm hits",
            f"{'|R|':>9} {'cold ms':>9} {'hit ms':>8}",
        ]
        lines += [
            f"{rows:>9} {point['cold_ms']:>9.1f} {point['warm_hit_ms']:>8.2f}"
            for rows, point in sweep.items()
        ]
        return payload, "\n".join(lines)

    payload, text = benchmark.pedantic(run, rounds=1, iterations=1)
    print(text)
    write_report("rollup_gmdj", text)
    write_json("BENCH_rollup", payload)
    for name, workload in payload["workloads"].items():
        assert workload["zero_detail_scan_certificate"] == "pass", name
    sweep = payload["detail_sweep"]
    smallest = sweep[str(SWEEP_DETAIL_ROWS[0])]["warm_hit_ms"]
    largest = sweep[str(SWEEP_DETAIL_ROWS[-1])]["warm_hit_ms"]
    assert largest <= 3 * smallest + 1.0, (
        f"warm rollup hit grows with |R|: {smallest} ms at "
        f"{SWEEP_DETAIL_ROWS[0]} rows, {largest} ms at "
        f"{SWEEP_DETAIL_ROWS[-1]} rows"
    )
    headline = payload["workloads"][HEADLINE]
    assert headline["tier"] == "subsume"
    assert headline["speedup"] >= 5.0, (
        f"subsumption serving only {headline['speedup']}x over cold "
        f"vectorized evaluation on {DETAIL_ROWS} detail rows"
    )
