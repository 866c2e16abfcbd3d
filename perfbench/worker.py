"""The engine process of the in-process workloads.

Run as ``python -m perfbench.worker SPEC.json``; the harness writes the
spec (data directory, op stream, options) and reads back the result
file it names.  Running the engine in its own process keeps the
harness's generated rows and SQLite reference out of ``peak_rss_mb``.

Modes (``spec["mode"]``):

* ``loop``   — load the tables ``setup_repeats`` times (``setup_s``),
  run the read ops as a closed loop for ``seconds``, then the write
  phase and one read after it.  With ``trace`` every read also runs
  under ``tracing()``/``collect()``/``metrics_scope()`` and is replayed
  layer by layer (:mod:`perfbench.layers`).
* ``replay`` — the ``dashboard`` trace run's in-process half: replay the
  served op stream's reads on the execute path, layer by layer, and its
  inserts through ``Database.insert``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import traceback

from perfbench import layers, measure
from perfbench.reference import digest


def _load(spec: dict):
    """Load every table into a fresh Database; returns (db, ms per table)."""
    from repro import Database

    db = Database()
    load_ms = {}
    for name, path in sorted(spec["tables"].items()):
        started = time.perf_counter()
        db.load_binary(name, path)
        load_ms[name] = (time.perf_counter() - started) * 1000.0
    return db, load_ms


def _setup(spec: dict):
    """``setup_repeats`` cold loads; the last database is kept."""
    setup_s, load_ms, cal_ms = [], {}, []
    db = None
    for _ in range(spec["setup_repeats"]):
        if db is not None:
            db.close()
            db = None
        gc.collect()
        cal_ms.append(measure.calibrate())
        started = time.perf_counter()
        db, per_table = _load(spec)
        setup_s.append(time.perf_counter() - started)
        for name, ms in per_table.items():
            load_ms.setdefault(name, []).append(ms)
    return db, {"setup_s": setup_s, "load_ms": load_ms, "cal_ms": cal_ms}


def _options(spec: dict):
    from repro import QueryOptions

    return None if spec["options"] is None else QueryOptions(**spec["options"])


def _runner(db, spec: dict):
    """The op's public entry point: one query or one batch."""
    options = _options(spec)
    if spec["batch"]:
        return lambda texts: db.execute_sql_batch(texts, options)
    return lambda texts: [db.execute_sql(texts[0], options)]


def _traced(run, texts):
    """Run one op under the engine's existing tracer and counters."""
    from repro.obs.metrics import metrics_scope
    from repro.obs.tracer import tracing
    from repro.storage import collect

    with metrics_scope() as metrics, collect() as io, tracing() as tracer:
        started = time.perf_counter()
        result = run(texts)
        elapsed = time.perf_counter() - started
    scans = [s for s in tracer.trace().walk() if s.kind == "detail_scan"]
    counters = {name: counter.value
                for name, counter in metrics.counters.items()}
    return result, elapsed, {
        "io": io.snapshot(),
        "detail_scans": len(scans),
        "fallback_scans": sum(1 for s in scans if s.attrs.get("fallbacks")),
        "counters": counters,
    }


def _batch_report(result) -> dict | None:
    report = getattr(result, "report", None)
    if report is None:
        return None
    return {"scans_saved": report.scans_saved,
            "share_groups": len(report.groups)}


def _read(run, op: dict, trace: bool, db, spec: dict) -> dict:
    record: dict = {"index": op["index"], "queries": len(op["texts"])}
    record["cal_ms"] = measure.calibrate(spec["probe"])
    try:
        if trace:
            result, elapsed, observed = _traced(run, op["texts"])
            record.update(observed)
            if spec["batch"]:
                record["layers"] = layers.batch(db.catalog, op["texts"],
                                                _options(spec))
            else:
                record["layers"] = layers.single_query(
                    db.catalog, op["texts"][0], spec["strategy"],
                    (spec["options"] or {}).get("backend"))
        else:
            started = time.perf_counter()
            result = run(op["texts"])
            elapsed = time.perf_counter() - started
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        record["error"] = traceback.format_exc(limit=3)
        return record
    record["ms"] = elapsed * 1000.0
    record["result"] = result
    return record


def _finish(record: dict) -> dict:
    """Replace the live result with its digests (outside any timing)."""
    result = record.pop("result", None)
    if result is not None:
        record["digests"] = [digest(relation.rows) for relation in result]
        batch = _batch_report(result)
        if batch is not None:
            record["batch"] = batch
    return record


def run_loop(spec: dict) -> dict:
    db, setup = _setup(spec)
    run = _runner(db, spec)
    trace = bool(spec["trace"])
    ops = spec["ops"]
    # One untimed warm-up op pays the lazy imports every later op skips.
    warmup = _read(run, ops[0], trace, db, spec)
    reads = []
    position = 1
    started = time.perf_counter()
    deadline = started + spec["seconds"]
    while time.perf_counter() < deadline and position < len(ops) - 1:
        reads.append(_read(run, ops[position], trace, db, spec))
        position += 1
    wall = time.perf_counter() - started
    writes = []
    for rows in spec["writes"]:
        cal_ms = measure.calibrate()
        begun = time.perf_counter()
        try:
            db.insert("orders", [tuple(row) for row in rows])
            writes.append({"ms": (time.perf_counter() - begun) * 1000.0,
                           "cal_ms": cal_ms})
        except Exception:  # noqa: BLE001
            writes.append({"error": traceback.format_exc(limit=3)})
    after = _read(run, ops[position], trace, db, spec)
    orders_rows = len(db.table("orders"))
    db.close()
    return {
        **setup,
        "warmup": _finish(warmup),
        "reads": [_finish(record) for record in reads],
        "wall_s": wall,
        "writes": writes,
        "after_writes": _finish(after),
        "orders_rows": orders_rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def run_replay(spec: dict) -> dict:
    """In-process replay of the dashboard ops (execute path, layered)."""
    from repro import QueryOptions

    db, setup = _setup(spec)
    options = QueryOptions(**spec["options"])
    replayed, inserts = [], []
    version = 0
    deadline = time.perf_counter() + spec["seconds"]
    for op in spec["ops"]:
        if op["kind"] == "insert":
            rows = [tuple(row) for row in spec["inserts"][op["version"] - 1]]
            started = time.perf_counter()
            db.insert("orders", rows)
            inserts.append((time.perf_counter() - started) * 1000.0)
            version = op["version"]
            continue
        if time.perf_counter() >= deadline:
            continue
        text = op["texts"][0]
        started = time.perf_counter()
        result = db.execute_sql(text, options)
        elapsed = (time.perf_counter() - started) * 1000.0
        replayed.append({
            "index": op["index"], "version": version, "ms": elapsed,
            "digest": digest(result.rows),
            "layers": layers.single_query(db.catalog, text,
                                          spec["strategy"]),
        })
    db.close()
    return {**setup, "reads": replayed, "insert_ms": inserts}


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        spec = json.load(handle)
    # One CPU for the whole run, so the calibration probe before each op
    # measures the CPU the op then runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    result = run_replay(spec) if spec["mode"] == "replay" else run_loop(spec)
    with open(spec["result_path"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
