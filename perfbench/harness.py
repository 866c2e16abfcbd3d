"""The benchmark command: generate, run, verify, report.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``

1. Generates the workload's tables and op stream from ``--seed`` and
   writes the tables as ``.cols`` under ``.perfbench_work/`` in the
   checkout (excluded from every metric but ``setup_s``).
2. Runs the engine: a worker process for the in-process workloads
   (:mod:`perfbench.worker`), a ``repro serve`` subprocess plus client
   threads for ``dashboard`` (:mod:`perfbench.serveload`).
3. Checks every op against the SQLite reference
   (:mod:`perfbench.reference`), outside every timed region.
4. Prints a detail report line, then the result line: ``correct``,
   ``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``)
   or the per-layer metrics (``--trace 1``).

Every ``REPRO_*`` environment hook is removed before anything runs, in
this process, the worker and the server: CI legs set them suite-wide and
they would swap the engine under test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

from perfbench import datagen, measure, serveload
from perfbench.layers import LEDGER_LAYERS, ledger_ms
from perfbench.reference import Reference, digest
from perfbench.workloads import (
    INSERT_ROWS,
    WORKLOADS,
    WRITE_PHASE_OPS,
    Workload,
    op_stream,
    repeated_text_share,
)

ROOT = Path(__file__).resolve().parent.parent

#: Options each in-process workload passes (None: the defaults).
INPROCESS = {
    "adhoc": {"options": None, "strategy": "gmdj_optimized",
              "batch": False, "stream": 3_000},
    "batch_refresh": {"options": {"backend": "auto"},
                      "strategy": "gmdj_optimized", "batch": True,
                      "stream": 600},
}
DASHBOARD_STREAM = 30_000

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = {"adhoc": 9, "batch_refresh": 9, "dashboard": 5}

END_TO_END = ("setup_s", "latency_p50_ms", "latency_tail_ms",
              "throughput_qps", "write_p50_ms", "success_frac",
              "peak_rss_mb")
UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "throughput_qps": "1/s", "write_p50_ms": "ms",
         "success_frac": "frac", "peak_rss_mb": "MB"}

PER_LAYER = (
    "sql.compile_ms", "unnesting.translate_ms", "lint.certify_ms",
    "algebra.scan_ms", "gmdj.kernel_ms", "gmdj.fallback_frac",
    "engine.mqo_plan_ms", "engine.scans_saved",
    "engine.result_cache_hit_frac", "engine.rollup_hit_frac",
    "engine.unattributed_ms", "engine.layer_coverage_frac",
    "storage.load_ms", "storage.insert_ms", "storage.columnar_hit_frac",
    "io.tuples_scanned", "io.predicate_evals", "io.aggregate_updates",
    "io.relation_scans", "serve.overhead_ms", "serve.tier_p50_ms.cache",
    "serve.tier_p50_ms.rollup", "serve.tier_p50_ms.execute",
)
IO_COUNTERS = ("tuples_scanned", "predicate_evals", "aggregate_updates",
               "relation_scans")


def layer_unit(name: str) -> str:
    if name.startswith("io.") or name.endswith("scans_saved"):
        return "count"
    if name.endswith("_frac"):
        return "frac"
    return "ms"


def probe_kind(workload: Workload) -> str:
    """The workload's read probe; the python probe without numpy (the
    ``auto`` backend then runs the python kernel too)."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "python"
    return workload.probe


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


# -- environment -----------------------------------------------------------

def pinned_environment() -> tuple[dict, list[str]]:
    """This process's environment without ``REPRO_*`` hooks, plus the
    names removed.  ``os.environ`` is cleaned in place as well."""
    stripped = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in stripped:
        del os.environ[key]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env, stripped


def configuration(workload: Workload, args, stripped: list[str]) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    config = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload.name,
        "customers": workload.customers,
        "orders": workload.orders,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stripped_env": stripped,
        "probe": probe_kind(workload),
    }
    if workload.name == "dashboard":
        config["server_flags"] = list(serveload.SERVER_FLAGS)
        config["connections"] = serveload.CONNECTIONS
    else:
        config["options"] = INPROCESS[workload.name]["options"] or "defaults"
        config["entry_point"] = ("execute_sql_batch"
                                 if INPROCESS[workload.name]["batch"]
                                 else "execute_sql")
    return config


# -- in-process workloads --------------------------------------------------

def _run_worker(spec: dict, work: Path, env: dict, timeout: float) -> dict:
    spec_path = work / "spec.json"
    spec["result_path"] = str(work / "result.json")
    spec_path.write_text(json.dumps(spec))
    with open(work / "worker.log", "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker", str(spec_path)],
            env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            raise BenchmarkError("engine worker timed out")
    if code != 0:
        raise BenchmarkError(
            f"engine worker failed ({code}):\n"
            + (work / "worker.log").read_text()[-3000:])
    return json.loads(Path(spec["result_path"]).read_text())


def _check_read(reference: Reference, op: dict, record: dict,
                versions: range) -> str:
    digests = record.get("digests")
    if record.get("error") or digests is None:
        return measure.classify(record, None)
    matches = len(digests) == len(op["sqlite"]) and all(
        reference.matches(text, observed, versions)
        for text, observed in zip(op["sqlite"], digests))
    return measure.classify(record, matches)


def run_inprocess(workload: Workload, args, env: dict, work: Path) -> dict:
    setting = INPROCESS[workload.name]
    ops = op_stream(workload, args.seed, setting["stream"])
    for index, op in enumerate(ops):
        op["index"] = index
    tables = datagen.make_tables(workload, args.seed)
    data_dir = work / "data"
    datagen.write_cols(tables, data_dir)
    writes = [datagen.insert_rows(workload, args.seed, version)
              for version in range(1, WRITE_PHASE_OPS + 1)]
    spec = {
        "mode": "loop", "trace": args.trace, "seconds": args.seconds,
        "setup_repeats": SETUP_REPEATS[workload.name],
        "tables": {name: str(data_dir / f"{name}.cols") for name in tables},
        "options": setting["options"], "strategy": setting["strategy"],
        "batch": setting["batch"], "probe": probe_kind(workload),
        "ops": [{"index": op["index"], "texts": op["texts"]} for op in ops],
        "writes": writes,
    }
    result = _run_worker(spec, work, env, timeout=170)

    reference = Reference(tables, writes)
    outcomes = [_check_read(reference, ops[r["index"]], r, range(0, 1))
                for r in [result["warmup"], *result["reads"]]]
    after = result["after_writes"]
    outcomes.append(_check_read(reference, ops[after["index"]], after,
                                range(len(writes), len(writes) + 1)))
    expected_rows = workload.orders + sum(len(rows) for rows in writes)
    for position, record in enumerate(result["writes"]):
        last = position == len(result["writes"]) - 1
        outcomes.append(measure.classify(
            record, result["orders_rows"] == expected_rows if last else None))
    reference.close()

    reads = [r for r in result["reads"] if "ms" in r]
    read_ops = [ops[r["index"]] for r in result["reads"]]
    properties = {
        "checksum": datagen.checksum(tables),
        "read_ops": len(result["reads"]),
        "repeated_text_share": repeated_text_share(read_ops),
    }
    by_form: dict[str, list[float]] = {}
    for record in reads:
        form = "+".join(ops[record["index"]]["forms"])
        by_form.setdefault(form, []).append(record["ms"])
    properties["form_p50_ms"] = {form: measure.median(values)
                                 for form, values in sorted(by_form.items())}
    batches = [r["batch"] for r in reads if "batch" in r]
    if batches:
        properties["scans_saved_per_batch"] = measure.median(
            [b["scans_saved"] for b in batches])
        properties["share_groups_per_batch"] = measure.median(
            [b["share_groups"] for b in batches])
    return {
        "outcomes": outcomes, "properties": properties,
        "load_ms": result["load_ms"],
        "samples": {
            "setup": list(zip(result["setup_s"], result["cal_ms"])),
            "reads": [(r["ms"], r["cal_ms"]) for r in reads],
            "writes": [(w["ms"], w["cal_ms"]) for w in result["writes"]
                       if "ms" in w],
        },
        "queries": sum(r["queries"] for r in reads),
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "traced_reads": reads if args.trace else [],
    }


# -- dashboard --------------------------------------------------------------

def run_dashboard(workload: Workload, args, env: dict, work: Path) -> dict:
    ops = op_stream(workload, args.seed, DASHBOARD_STREAM)
    for index, op in enumerate(ops):
        op["index"] = index
    tables = datagen.make_tables(workload, args.seed)
    data_dir = work / "data"
    datagen.write_cols(tables, data_dir)
    total_inserts = (sum(op["kind"] == "insert" for op in ops)
                     + WRITE_PHASE_OPS)
    inserts = [datagen.insert_rows(workload, args.seed, version)
               for version in range(1, total_inserts + 1)]

    # The server and this load generator share one CPU, so the
    # calibration probe the clients take measures the CPU serving them.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setup_s, setup_cal_ms = [], []
    server = None
    try:
        for _ in range(SETUP_REPEATS[workload.name]):
            if server is not None:
                server.stop()
            setup_cal_ms.append(measure.calibrate())
            server = serveload.Server(sys.executable, data_dir, env,
                                      work / "serve.log", cpu)
            setup_s.append(server.wait_healthy())
        records, wall = serveload.closed_loop(server.port, ops, inserts,
                                              args.seconds)
        loop_writes = sum(r["kind"] == "insert" for r in records)
        final_read = next(op for op in ops[records[-1]["index"] + 1:]
                          if op["kind"] == "read")
        write_records = serveload.write_phase(
            server.port, loop_writes + 1, WRITE_PHASE_OPS, inserts,
            final_read)
        peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    replay = None
    if args.trace:
        executed = [ops[r["index"]] for r in records] + [
            {"kind": "insert", "version": r["version"]}
            for r in write_records if r["kind"] == "insert"]
        spec = {
            "mode": "replay", "seconds": args.seconds / 2,
            "setup_repeats": 1,
            "tables": {name: str(data_dir / f"{name}.cols")
                       for name in tables},
            "options": {"strategy": "gmdj", "use_cache": False},
            "strategy": "gmdj",
            "ops": executed,
            "inserts": inserts,
        }
        replay = _run_worker(spec, work, env, timeout=170)

    reference = Reference(tables, inserts)
    outcomes = []
    for record in records + write_records:
        if record["kind"] == "insert":
            expected = workload.orders + INSERT_ROWS * record["version"]
            outcomes.append(measure.classify(
                record, record.get("row_count") == expected))
            continue
        rows = record.get("rows")
        matches = None
        if rows is not None and record.get("status") == 200:
            matches = reference.matches(
                ops[record["index"]]["sqlite"][0], digest(rows),
                range(record["v_lo"], record["v_hi"] + 1))
        outcomes.append(measure.classify(record, matches))
    if replay is not None:
        for read in replay["reads"]:
            op = ops[read["index"]]
            outcomes.append(measure.classify(read, reference.matches(
                op["sqlite"][0], read["digest"],
                range(read["version"], read["version"] + 1))))
    reference.close()

    reads = [r for r in records if r["kind"] == "read"]
    ok_reads = [r for r in reads if r.get("status") == 200]
    loop_write_ms = [r["ms"] for r in records
                     if r["kind"] == "insert" and r.get("status") == 200]
    tiers: dict[str, int] = {}
    for record in ok_reads:
        tiers[record["served_by"]] = tiers.get(record["served_by"], 0) + 1
    properties = {
        "checksum": datagen.checksum(tables),
        "read_ops": len(reads),
        "write_ops": len(records) - len(reads),
        "interleaved_write_p50_ms": _median_or_zero(loop_write_ms),
        "repeated_text_share": repeated_text_share(
            [ops[r["index"]] for r in reads]),
        "served_by": {tier: count / len(ok_reads)
                      for tier, count in sorted(tiers.items())}
        if ok_reads else {},
    }
    return {
        "outcomes": outcomes, "properties": properties,
        "samples": {
            "setup": list(zip(setup_s, setup_cal_ms)),
            "reads": [(r["ms"], r["cal_ms"]) for r in ok_reads],
            "writes": [(r["ms"], r["cal_ms"]) for r in write_records
                       if r["kind"] == "insert" and r.get("status") == 200],
        },
        "queries": len(ok_reads),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "served_reads": ok_reads,
        "replay": replay,
    }


# -- metrics ------------------------------------------------------------------

def end_to_end_metrics(workload: Workload, run: dict,
                       counts: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, normalized to the reference machine speed,
    and the same metrics as measured.

    This host's speed drifts by up to a quarter, in spells of a few
    seconds.  A calibration probe (:func:`perfbench.measure.calibrate`)
    runs right before every set-up, read and write, and each sample's
    time is scaled by the reference probe time over the probe time
    taken with it: the workload's probe for reads, the python probe for
    set-ups and writes.  Throughput is scaled by the run's time-weighted
    slowdown (raw read time over normalized read time).
    """
    samples = run["samples"]
    kinds = {"setup": "python", "reads": probe_kind(workload),
             "writes": "python"}
    scaled = {phase: [measure.normalized(value, cal, kinds[phase])
                      for value, cal in pairs]
              for phase, pairs in samples.items()}
    raw = {phase: [value for value, _ in pairs]
           for phase, pairs in samples.items()}
    tail = workload.tail_percentile
    throughput = run["queries"] / run["wall_s"]
    common = {"success_frac": 1.0 - counts["failed_frac"],
              "peak_rss_mb": run["peak_rss_mb"]}

    def metrics(times: dict, rate: float) -> dict:
        return {
            "setup_s": measure.median(times["setup"]),
            "latency_p50_ms": measure.median(times["reads"]),
            "latency_tail_ms": measure.percentile(times["reads"], tail),
            "throughput_qps": rate,
            "write_p50_ms": measure.median(times["writes"]),
            **common,
        }

    slowdown = sum(raw["reads"]) / sum(scaled["reads"])
    return metrics(scaled, throughput * slowdown), metrics(raw, throughput)


def _median_or_zero(values) -> float:
    values = list(values)
    return measure.median(values) if values else 0.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _ledger(reads: list[dict]) -> dict:
    """Layer medians, unattributed time and coverage over traced reads."""
    metrics = {}
    for name in (*LEDGER_LAYERS, "algebra.scan_ms"):
        metrics[name] = _median_or_zero(
            r["layers"].get(name, 0.0) for r in reads)
    metrics["engine.unattributed_ms"] = _median_or_zero(
        r["ms"] - ledger_ms(r["layers"]) for r in reads)
    metrics["engine.layer_coverage_frac"] = _frac(
        sum(ledger_ms(r["layers"]) for r in reads),
        sum(r["ms"] for r in reads))
    return metrics


def _load_ms(load_ms: dict) -> float:
    return sum(measure.median(values) for values in load_ms.values())


def per_layer_inprocess(run: dict) -> dict:
    reads = run["traced_reads"]
    metrics = _ledger(reads)
    queries = sum(r["queries"] for r in reads)
    counter = lambda name: sum(r["counters"].get(name, 0) for r in reads)
    hits, misses = (counter("columnar.cache_hits"),
                    counter("columnar.cache_misses"))
    metrics.update({
        "gmdj.fallback_frac": _frac(sum(r["fallback_scans"] for r in reads),
                                    sum(r["detail_scans"] for r in reads)),
        "engine.scans_saved": _median_or_zero(
            r["batch"]["scans_saved"] for r in reads if "batch" in r),
        "engine.result_cache_hit_frac": _frac(counter("cache.result_hits"),
                                              queries),
        "engine.rollup_hit_frac": _frac(
            counter("rollup.exact_hits") + counter("rollup.subsume_hits"),
            queries),
        "storage.load_ms": _load_ms(run["load_ms"]),
        "storage.insert_ms": _median_or_zero(
            ms for ms, _ in run["samples"]["writes"]),
        "storage.columnar_hit_frac": _frac(hits, hits + misses),
    })
    for name in IO_COUNTERS:
        metrics[f"io.{name}"] = _frac(sum(r["io"].get(name, 0)
                                          for r in reads), len(reads))
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)  # the serve tier is not on this path
    return metrics


def per_layer_dashboard(run: dict) -> dict:
    served = run["served_reads"]
    replay = run["replay"]
    metrics = _ledger(replay["reads"])
    by_tier = lambda tier: [r["ms"] for r in served
                            if r["served_by"] == tier]
    counter = lambda name: sum(r["counters"].get(name, 0) for r in served)
    hits, misses = (counter("columnar.cache_hits"),
                    counter("columnar.cache_misses"))
    metrics.update({
        # The served strategy runs the row kernel: no array backend to
        # fall back from, and no batches.
        "gmdj.fallback_frac": 0.0,
        "engine.scans_saved": 0.0,
        "engine.result_cache_hit_frac": _frac(len(by_tier("cache")),
                                              len(served)),
        "engine.rollup_hit_frac": _frac(len(by_tier("rollup")), len(served)),
        "storage.load_ms": _load_ms(replay["load_ms"]),
        "storage.insert_ms": _median_or_zero(replay["insert_ms"]),
        "storage.columnar_hit_frac": _frac(hits, hits + misses),
        "serve.overhead_ms": _median_or_zero(
            r["ms"] - r["elapsed_ms"] for r in served),
    })
    for tier in ("cache", "rollup", "execute"):
        metrics[f"serve.tier_p50_ms.{tier}"] = _median_or_zero(by_tier(tier))
    for name in IO_COUNTERS:
        metrics[f"io.{name}"] = _frac(sum((r["io"] or {}).get(name, 0)
                                          for r in served), len(served))
    return metrics


# -- entry --------------------------------------------------------------------

def parse_args(argv: list[str]):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    """Run one workload; returns (report, result line)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    env, stripped = pinned_environment()
    sys.path[:0] = [str(ROOT / "src")]
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        if workload.name == "dashboard":
            outcome = run_dashboard(workload, args, env, work)
        else:
            outcome = run_inprocess(workload, args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    counts = measure.tally(outcome["outcomes"])
    read_count = len(outcome["samples"]["reads"])
    report = {
        "config": configuration(workload, args, stripped),
        "properties": outcome["properties"],
        "outcomes": counts["by_outcome"],
        "tail": {"percentile": workload.tail_percentile,
                 "samples": read_count,
                 "beyond": measure.samples_beyond(read_count,
                                                  workload.tail_percentile)},
        "harness_s": time.perf_counter() - started,
    }
    if args.trace:
        values = (per_layer_dashboard(outcome) if workload.name == "dashboard"
                  else per_layer_inprocess(outcome))
        metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                   for name in PER_LAYER}
    else:
        values, report["raw_metrics"] = end_to_end_metrics(
            workload, outcome, counts)
        metrics = {name: {"value": values[name], "unit": UNITS[name]}
                   for name in END_TO_END}
    line = {"correct": counts["failed"] == 0,
            "attempted": counts["attempted"],
            "failed": counts["failed"],
            "metrics": metrics}
    report["result"] = line
    (work_root / f"last-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    return report, line


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, line = run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print("report " + json.dumps(report))
    print(json.dumps(line))
    return 0
