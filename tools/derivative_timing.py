"""Time the finite-difference derivative passes of ``phasedec.phase_space``.

Prints the median microseconds per ``_derivative_values`` call (order 2)
for every axis of real and complex samples on 21^4, 161^2 and 1281^2
grids, then the calls per axis, and their summed time, that one star
product of order 4 on real 21^4 samples makes. Stdlib and numpy only; it
gates nothing.

Run from anywhere: ``python3 tools/derivative_timing.py [src_dir]``, with
``src_dir`` the ``src`` of the tree to time (this checkout's by default).
Pin the process to one core and set ``OPENBLAS_NUM_THREADS=1`` to compare
two trees, since the calls are small BLAS matmuls.
"""

import collections
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: (label, nodes per axis, degrees of freedom) of the grids timed per axis and dtype
GRIDS = (("21^4", 21, 2), ("161^2", 161, 1), ("1281^2", 1281, 1))
#: timed rounds per case; the median round is reported
ROUNDS = 7
#: least wall time per round, in seconds, so a fast call is timed in bulk
ROUND_SECONDS = 0.02


def median_call_us(derivative, values: np.ndarray, grid, axis: int, out: np.ndarray) -> float:
    """Median over ``ROUNDS`` rounds of the microseconds per call, after one warm-up call."""
    derivative(values, grid, axis, 2, out=out)
    start = time.perf_counter()
    derivative(values, grid, axis, 2, out=out)
    calls = max(1, int(ROUND_SECONDS / max(time.perf_counter() - start, 1e-9)))
    rounds = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            derivative(values, grid, axis, 2, out=out)
        rounds.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(rounds)


def per_call_table(phase_space):
    print(f"{'grid':>8} {'dtype':>10} {'axis':>4} {'MB':>7} {'us/call':>10}")
    rng = np.random.default_rng(0)
    for label, count, n_dof in GRIDS:
        grid = phase_space.Grid.square(-2.0, 2.0, count, n_dof)
        for dtype in (float, complex):
            values = rng.standard_normal(grid.shape)
            if dtype is complex:
                values = values + 1j * rng.standard_normal(grid.shape)
            out = np.empty_like(values)
            for axis in range(len(grid.axes)):
                us = median_call_us(phase_space._derivative_values, values, grid, axis, out)
                name, mb = np.dtype(dtype).name, values.nbytes / 1e6
                print(f"{label:>8} {name:>10} {axis:>4} {mb:>7.2f} {us:>10.1f}")


def star_product_calls(phase_space, moyal):
    grid = phase_space.Grid.square(-2.0, 2.0, 21, n_dof=2)
    f = phase_space.PhaseFunction.sample(grid, lambda q1, q2, p1, p2: q1**2 * p2 + q2 * p1**3 + p1 * p2)
    g = phase_space.PhaseFunction.sample(grid, lambda q1, q2, p1, p2: p1**2 * q2**2 + q1 * p2**3 + q2)
    derivative = moyal._derivative_values
    calls, seconds = collections.Counter(), collections.defaultdict(list)

    def timed(values, grid, axis, order, out=None):
        start = time.perf_counter()
        result = derivative(values, grid, axis, order, out=out)
        seconds[axis][-1] += time.perf_counter() - start
        calls[axis] += 1
        return result

    moyal.star_product(f, g, 0.5, 4)  # fills the stencil cache
    moyal._derivative_values = timed
    try:
        for _ in range(ROUNDS):
            for axis in range(len(grid.axes)):
                seconds[axis].append(0.0)
            moyal.star_product(f, g, 0.5, 4)
    finally:
        moyal._derivative_values = derivative
    print(f"\none star product of order 4, real 21^4 samples: median of {ROUNDS}")
    print(f"{'axis':>4} {'calls':>6} {'us/call':>10} {'ms':>8}")
    for axis in sorted(calls):
        ms, count = 1e3 * statistics.median(seconds[axis]), calls[axis] // ROUNDS
        print(f"{axis:>4} {count:>6} {1e3 * ms / count:>10.1f} {ms:>8.2f}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = (Path(args[0]) if args else Path(__file__).parents[1] / "src").resolve()
    sys.path.insert(0, str(src))
    from phasedec import moyal, phase_space

    per_call_table(phase_space)
    star_product_calls(phase_space, moyal)
    return 0


if __name__ == "__main__":
    sys.exit(main())
