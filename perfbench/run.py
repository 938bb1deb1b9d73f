"""Scenario-sweep benchmark of phasedec: one workload, one seed, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload wigner --seed 1 --seconds 25 --trace 0

Workloads: wigner, algebra, decoherence, trajectory (see METRICS.md).
With ``--trace 0`` the run reports the end-to-end metrics. It starts
WORKERS worker processes one after the other, each with an equal share
of ``--seconds``; each sets up, runs the first op cold and then runs whole
cycles of the op mix, so set-up and cold-op samples are spread over the
run. With ``--trace 1`` one worker reports the per-layer metrics of a
traced half-run against an untraced half-run.
End-to-end times are scaled by a calibration kernel timed next to every
op, to cancel the drift of a shared machine's speed; the table also
prints them as measured (METRICS.md explains both).
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

This launcher uses only the standard library, so it never loads numpy and
its thread pools; the workers get their thread counts from the
environment before they import anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("wigner", "algebra", "decoherence", "trajectory")
#: workers per untraced run; setup_s and first_op_s are medians over them
WORKERS = 5
#: BLAS/OpenMP threads per worker (see METRICS.md for why one)
BLAS_THREADS = 1
#: a worker is killed this long after its deadline, so a run with
#: --seconds <= 60 always ends within 180 s
WORKER_GRACE_S = 60
#: end-to-end times are scaled to the machine speed at which the calibration
#: kernel (worker.Calibration) takes this long: its fast mode on the 2-core
#: machine measured (see METRICS.md)
CALIBRATION_REFERENCE_S = 0.0056
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "first_op_s": "s",
}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(role: str, args, work: Path, index: int, until: float) -> dict:
    """Run one worker to completion and return its result record."""
    result = work / f"{role}-{index}.json"
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--out", str(work / "out"),
        "--result", str(result),
    ]
    if args.wrong_reference:
        command.append("--wrong-reference")
    started = time.perf_counter()
    try:
        completed = subprocess.run(
            command + ["--started", repr(started), "--until", repr(until)],
            env=worker_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            timeout=max(until - started, 0.0) + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker ran {WORKER_GRACE_S} s past its deadline") from exc
    if completed.returncode != 0 or not result.is_file():
        raise WorkerError(f"{role} worker exited with status {completed.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def cycle_ops(records: list[dict]) -> list[dict]:
    return [op for record in records for cycle in record["cycles"] for op in cycle["ops"]]


def sum_of_kind_medians(ops: list[dict], field: str) -> float:
    """One pass of the op mix: the median of each op kind, summed over the kinds."""
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op[field])
    return sum(statistics.median(values) for values in by_kind.values())


def end_to_end(records: list[dict], reference_s: float | None = CALIBRATION_REFERENCE_S) -> dict:
    """End-to-end metrics, each time scaled by reference_s over its calibration time.

    With ``reference_s=None`` the times are returned as measured.
    """

    def scaled(seconds, calibration_s):
        return seconds if reference_s is None else seconds * reference_s / calibration_s

    warm = [
        {"kind": op["kind"], "wall_s": scaled(op["wall_s"], op["cal_s"]),
         "cpu_s": scaled(op["cpu_s"], op["cal_s"])}
        for op in cycle_ops(records)
    ]
    return {
        "wall_s": sum_of_kind_medians(warm, "wall_s"),
        "cpu_s": sum_of_kind_medians(warm, "cpu_s"),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_cal_s"]) for r in records),
        "first_op_s": statistics.median(
            scaled(r["first_op"]["wall_s"], r["first_op"]["cal_s"]) for r in records
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="phasedec scenario-sweep benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="give every op a deliberately wrong reference (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasedec" / "__init__.py").is_file():
        print(f"error: no phasedec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)

    # workers inherit one fixed core: the highest-numbered one, which on Linux
    # usually serves fewer interrupts than core 0, and no migrations between cores
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = time.perf_counter()
    try:
        if args.trace:
            records = [spawn("trace", args, work, 0, start + args.seconds)]
        else:
            records = [
                spawn("main", args, work, i, start + (i + 1) * args.seconds / WORKERS)
                for i in range(WORKERS)
            ]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [record["first_op"] for record in records] + cycle_ops(records)
    failed = [op for op in ops if not op["ok"]]
    for op in failed[:5]:
        print(f"FAILED {op['kind']} (op {op['op_id']}): {op['error'].strip()}", file=sys.stderr)

    if args.trace:
        metrics = records[0]["per_layer"]
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(records)
        units = END_TO_END_UNITS

    n_cycles = sum(len(record["cycles"]) for record in records)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"workers {len(records)}  cycles {n_cycles}  ops {len(ops)}")
    print("machine " + json.dumps(records[0]["machine"], sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:58s} {value:16.6f} {units[name]}")
    if not args.trace:
        for name, value in end_to_end(records, reference_s=None).items():
            print(f"{'as_measured.' + name:58s} {value:16.6f} {units[name]}")
    print(f"{'fail_frac':58s} {len(failed) / len(ops):16.6f} ratio")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
