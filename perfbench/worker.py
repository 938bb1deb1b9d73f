"""Benchmark worker: set up one workload, then run its ops as a closed loop.

Started by ``run.py`` with the BLAS/OpenMP thread counts and PYTHONPATH
already set. One client issues ops one after the other from this single
process; each op starts when the previous one has finished and been
checked. A fixed calibration kernel is timed just before and just after
every op. The result goes to the JSON file named by ``--result``.

Roles:
  main   set up, run the first op cold, then run whole cycles of the op
         mix until the ``--until`` deadline (at least one cycle);
  trace  set up and run the first op, run untraced cycles until halfway to
         the deadline, then install the tracer and run traced cycles.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

_SC_LEVEL3_CACHE_SIZE = 194  # glibc sysconf name


class Calibration:
    """A fixed numpy kernel that does not touch phasedec, timed next to every op.

    Its time tracks how fast the machine runs at that moment: complex exp,
    a small matmul and numpy call overhead, like the ops themselves.
    """

    def __init__(self):
        self.matrix = np.random.default_rng(12345).standard_normal((96, 96))
        self.phase = np.linspace(0.0, 40.0, 8192)
        self.ones = np.ones(8192)
        self()  # the first call pays one-off costs

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(24):
            np.exp(1j * self.phase) @ self.ones
            self.matrix @ self.matrix
        return time.perf_counter() - start


def run_op(op, op_id: int, calibration, tracer=None) -> dict:
    """Time one op, then check its output. A raise or a failed check fails the op.

    The calibration kernel runs just before and just after the op.
    """
    cal_before = calibration()
    if tracer is not None:
        tracer.op_id = op_id
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        output = op.run()
    except Exception:  # the loop goes on; the op counts as failed, never retried
        output, error = None, traceback.format_exc(limit=3)
    else:
        error = ""
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.op_id = -1
    cal = (cal_before + calibration()) / 2
    ok = False
    if not error:
        try:
            ok, error = op.check(output)
        except Exception:
            error = traceback.format_exc(limit=3)
    return {
        "kind": op.kind, "op_id": op_id, "wall_s": wall, "cpu_s": cpu, "cal_s": cal, "ok": ok,
        "error": error,
    }


def run_cycles(ops, deadline: float, next_id: int, calibration, tracer=None) -> list[dict]:
    """Whole cycles of the op mix, at least one, until the perf_counter ``deadline``."""
    cycles = []
    while not cycles or time.perf_counter() < deadline:
        start = time.perf_counter()
        records = []
        for op in ops:
            records.append(run_op(op, next_id, calibration, tracer))
            next_id += 1
        cycles.append({"wall_s": time.perf_counter() - start, "ops": records})
    return cycles


def machine_info() -> dict:
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "pinned_cores": sorted(os.sched_getaffinity(0)),
        "l3_bytes": int(libc.sysconf(_SC_LEVEL3_CACHE_SIZE)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("main", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--wrong-reference", action="store_true")
    parser.add_argument("--out", type=Path, required=True, help="scratch directory for outputs")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="perf_counter reading taken by the parent just before spawning")
    parser.add_argument("--until", type=float, required=True, help="perf_counter deadline")
    args = parser.parse_args(argv)

    import workloads

    ops = workloads.build(args.workload, args.seed, args.size, args.out, args.wrong_reference)
    result = {"setup_s": time.perf_counter() - args.started}
    calibration = Calibration()
    result["setup_cal_s"] = calibration()
    result["first_op"] = run_op(ops[0], 0, calibration)

    if args.role == "main":
        result["cycles"] = run_cycles(ops, args.until, 1, calibration)
    else:
        import tracing

        untraced = run_cycles(ops, (time.perf_counter() + args.until) / 2, 1, calibration)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_cycles(ops, args.until, 1 + len(untraced) * len(ops), calibration, tracer)
        result["cycles"] = untraced + traced
        result["per_layer"] = tracer.layer_metrics(
            len(traced),
            {op["op_id"]: op["wall_s"] for cycle in traced for op in cycle["ops"]},
            sum(cycle["wall_s"] for cycle in untraced) / len(untraced),
            sum(cycle["wall_s"] for cycle in traced) / len(traced),
        )
        tracer.write(args.out / "spans.jsonl")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["machine"] = machine_info()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
