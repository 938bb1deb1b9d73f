"""Self-test of the benchmark: every workload at a tiny size, plus checks that can fail.

Usage, from the repository root:

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that
  * an untraced run passes and prints every end-to-end metric with its unit;
  * a traced run prints every per-layer metric with its unit, and every
    traced self time is nonnegative and no larger than the traced cycle;
  * a run whose ops all get a deliberately wrong reference counts every
    op as failed (fail_frac 1).
It then drives single ops in-process to show that a failing scenario, an
op that raises, a wrong trajectory rate and a wrong trajectory sample are
each counted as failed. Exits 0 when everything holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

failures: list[str] = []


def expect(condition: bool, message: str):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def run(workload: str, *extra: str) -> tuple[dict, str]:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
               "--size", "tiny", *extra]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        return {}, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stdout


def check_metrics(label: str, result: dict, text: str, spec: list[dict]):
    """Every listed metric, and no other, is in the result line and the table with its unit."""
    printed = result.get("metrics", {})
    table = {tuple(line.split()[::2]) for line in text.splitlines() if len(line.split()) == 3}
    missing = [
        m["name"] for m in spec
        if printed.get(m["name"], {}).get("unit") != m["unit"] or (m["name"], m["unit"]) not in table
    ]
    expect(list(printed) == [m["name"] for m in spec] and not missing,
           f"{label}: prints all {len(spec)} listed metrics with their units {missing or ''}")


def check_workload(workload: str, benchmark: dict):
    result, text = run(workload, "--seconds", "1", "--trace", "0")
    expect(result.get("correct") is True and result.get("failed") == 0, f"{workload}: tiny run passes")
    check_metrics(f"{workload} untraced", result, text, benchmark["end_to_end"])

    result, text = run(workload, "--seconds", "2", "--trace", "1")
    expect(result.get("correct") is True, f"{workload}: tiny traced run passes")
    check_metrics(f"{workload} traced", result, text, benchmark["per_layer"])
    values = {name: entry["value"] for name, entry in result.get("metrics", {}).items()}
    wall = values.get("trace.cycle_wall_s", 0.0)
    self_times = {name: v for name, v in values.items() if name.endswith(".self_s")}
    expect(all(v >= 0.0 for v in self_times.values()), f"{workload}: traced self times are nonnegative")
    expect(wall > 0.0 and sum(self_times.values()) <= wall,
           f"{workload}: traced self times sum to at most the traced cycle wall time")

    result, _ = run(workload, "--seconds", "1", "--trace", "0", "--wrong-reference")
    expect(result.get("correct") is False and result.get("failed") == result.get("attempted", -1) > 0,
           f"{workload}: every op with a wrong reference counts as failed")


def check_single_ops():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np
    import worker
    import workloads

    calibration = worker.Calibration()
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    scenario_log = io.StringIO()  # run_scenario prints its assertion lines
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as scratch, \
            contextlib.redirect_stdout(scenario_log):
        out = Path(scratch)
        failing = workloads.ScenarioOp(
            "failing", "moyal-convergence", {"grid": {"count": 81}, "truncation_order": 0}, 0, out / "a"
        )
        failing_record = worker.run_op(failing, 0, calibration)
        raising = workloads.ScenarioOp("raising", "moyal-convergence", {"no_such_option": 1}, 0, out / "b")
        raising_record = worker.run_op(raising, 0, calibration)
    expect(not failing_record["ok"] and "returned 3" in failing_record["error"],
           "a scenario whose assertions fail counts as failed")
    expect(not raising_record["ok"] and "ValueError" in raising_record["error"],
           "an op that raises counts as failed")

    trajectory = workloads.TrajectoryOp("trajectory", np.random.default_rng(0), 401, 1000)

    def trajectory_ok() -> bool:
        return worker.run_op(trajectory, 0, calibration)["ok"]

    expect(trajectory_ok(), "a trajectory op with the right references passes")
    trajectory.expected_rate *= 1.1
    expect(not trajectory_ok(), "a trajectory op with a wrong rate counts as failed")
    trajectory.expected_rate /= 1.1
    trajectory.sample_shift = 1e-6
    expect(not trajectory_ok(), "a trajectory op with a wrong sample counts as failed")

def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in benchmark["workloads"]:
        check_workload(workload["name"], benchmark)
    check_single_ops()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
