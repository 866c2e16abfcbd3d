"""Record a baseline: repeated runs per workload plus one traced run.

``python3 perfbench/baseline.py --runs 10 --seconds 25 --out perfbench/baseline``

For each workload this runs ``perfbench/run.py`` with seeds 1..runs
(``--trace 0``) and once with ``--trace 1`` (seed 1), then writes
``<out>/<workload>.json`` (every result and report line, plus each
end-to-end metric's median, quartiles and spread = IQR / median, as
``statistics.quantiles(values, n=4)`` gives them) and ``<out>/BASELINE.md``
(the same as tables, with the traced run's per-layer ledger and its
coverage).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if finished.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{finished.stderr[-3000:]}")
    lines = finished.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(lines[-1]),
            "report": json.loads(lines[-2][len("report "):])}


def summarize(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, series in values.items():
        q1, q2, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def markdown(results: dict, bounds: dict) -> str:
    lines = ["# perfbench baseline", "",
             "Written by `python3 perfbench/baseline.py`; see "
             "`perfbench/README.md` for the metrics.", ""]
    for workload, data in results.items():
        runs = data["runs"]
        config = runs[0]["report"]["config"]
        lines += [f"## {workload}", "",
                  f"{len(runs)} runs of {config['seconds']:g} s, seeds "
                  f"{runs[0]['seed']}..{runs[-1]['seed']}; python "
                  f"{config['python']}, numpy {config['numpy']}, nproc "
                  f"{config['nproc']}; all correct: "
                  f"{all(r['result']['correct'] for r in runs)}.", "",
                  "| metric | median | q1 | q3 | spread | bound |",
                  "|---|---|---|---|---|---|"]
        for name, row in data["summary"].items():
            unit = runs[0]["result"]["metrics"][name]["unit"]
            lines.append(
                f"| `{name}` ({unit}) | {row['median']:.4g} | "
                f"{row['q1']:.4g} | {row['q3']:.4g} | {row['spread']:.3f} "
                f"| {bounds.get(name, '')} |")
        tail = [r["report"]["tail"] for r in runs]
        lines += ["", f"Tail p{tail[0]['percentile']:g}: "
                  f"{min(t['samples'] for t in tail)}–"
                  f"{max(t['samples'] for t in tail)} read ops per run, "
                  f"{min(t['beyond'] for t in tail)}–"
                  f"{max(t['beyond'] for t in tail)} beyond the tail.",
                  "", "Workload properties (seed "
                  f"{runs[0]['seed']}): `"
                  + json.dumps(runs[0]["report"]["properties"]) + "`", ""]
        traced = data["traced"]
        metrics = traced["result"]["metrics"]
        lines += [f"Traced run (seed {traced['seed']}, --trace 1):", "",
                  "| layer metric | value | unit |", "|---|---|---|"]
        for name, metric in metrics.items():
            lines.append(f"| `{name}` | {metric['value']:.4g} | "
                         f"{metric['unit']} |")
        lines += ["", "Coverage (ledger ÷ end-to-end): "
                  f"{metrics['engine.layer_coverage_frac']['value']:.3f}.",
                  ""]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*",
                        default=["adhoc", "dashboard", "batch_refresh"])
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench"
                        / "baseline")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"]
              for metric in spec["end_to_end"]}
    args.out.mkdir(parents=True, exist_ok=True)
    results = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]),
                  flush=True)
        traced = run_once(workload, args.first_seed, args.seconds, 1)
        results[workload] = {"runs": runs, "summary": summarize(runs),
                             "traced": traced}
        (args.out / f"{workload}.json").write_text(
            json.dumps(results[workload], indent=1))
    (args.out / "BASELINE.md").write_text(markdown(results, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
