"""Test-only reference constructions that the package does not need at run time.

``dense_kernel`` forms the full array of a factored ``OperatorKernel``,
``harmonic_map`` realizes the energy label as the oscillator Hamiltonian,
whose compact orbits give closed-form singular symbols, and ``mesh`` gives
full coordinate arrays for closed-form symbols on a grid.
"""

import numpy as np

from phasedec.phase_space import Grid, PhaseFunction
from phasedec.spectral import MomentumMap
from phasedec.weyl import OperatorKernel


def dense_kernel(kernel: OperatorKernel) -> np.ndarray:
    """The full ``(n, n)`` array U V^H + R of a factored kernel: O(k n^2)."""
    out = kernel.u.T @ kernel.v.conj()
    return out if kernel.values is None else out + kernel.values


def harmonic_map(grid: Grid) -> MomentumMap:
    """H = (q^2 + p^2) / 2 on an N = 1 grid; compact circular orbits."""
    if grid.n_dof != 1:
        raise ValueError("harmonic map is provided for N = 1")
    return MomentumMap(PhaseFunction.sample(grid, lambda q, p: 0.5 * (q**2 + p**2), label="H"))


def mesh(grid: Grid) -> tuple[np.ndarray, ...]:
    """Full coordinate arrays, one per axis, each of the grid's shape."""
    return tuple(np.meshgrid(*(axis.nodes() for axis in grid.axes), indexing="ij"))
