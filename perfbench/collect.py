"""Run the benchmark on several seeds per workload and summarize the spread.

Usage, from the repository root:

    python3 perfbench/collect.py --runs 10 [--first-seed 1] [--workloads wigner,algebra] \
        [--write results/BENCH_1.json]

For each workload it makes ``--runs`` untraced runs on consecutive seeds
and one traced run. It prints each end-to-end metric's median and spread
(interquartile distance over the median, from ``statistics.quantiles``)
next to its bound from BENCHMARK.json, and writes the medians, quartiles,
values and traced per-layer metrics to ``--write`` (a path relative to
this directory) when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}: {completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    machine = next(json.loads(line[len("machine "):]) for line in lines if line.startswith("machine "))
    return {"seed": seed, "machine": machine, **json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    summary = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds, 0)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        entry = {
            "machine": results[0]["machine"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: summarize([r["metrics"][name]["value"] for r in results]) for name in bounds
            },
        }
        traced = run(workload, args.first_seed, seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        summary["workloads"][workload] = entry
        print(f"{workload}: {entry['failed']} of {entry['attempted']} ops failed")
        for name, stats in entry["end_to_end"].items():
            print(f"  {name:12s} median {stats['median']:10.4f}  spread {stats['spread']:.4f}  "
                  f"bound {bounds[name]}")
        sys.stdout.flush()
    if args.write is not None:
        (BENCH / args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
