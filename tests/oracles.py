"""Test-only reference constructions that the package does not need at run time.

``dense_kernel`` forms the full array of a factored ``OperatorKernel``,
``dense_as_factors`` holds a full array K as n factor pairs u = K^T, v = I,
``harmonic_map`` realizes the energy label as the oscillator Hamiltonian,
whose compact orbits give closed-form singular symbols, ``mesh`` gives
full coordinate arrays for closed-form symbols on a grid,
``per_row_difference_matrix`` builds each differentiation-matrix row with
its own Fornberg call on the physical nodes, and ``placed_tiles`` places
the derivative's tiles into the full matrix they apply.
"""

import numpy as np

from phasedec.phase_space import Grid, PhaseFunction, _fornberg_weights, _tiles
from phasedec.spectral import MomentumMap
from phasedec.weyl import OperatorKernel


def dense_kernel(kernel: OperatorKernel) -> np.ndarray:
    """The full ``(n, n)`` array U^T conj(V) of a factored kernel: O(k n^2)."""
    return kernel.u.T @ kernel.v.conj()


def dense_as_factors(axis, values) -> OperatorKernel:
    """A full ``(n, n)`` kernel array K as n factor pairs u_k = K[:, k], v_k = e_k.

    Each lag sum over k has one nonzero product, an entry of K times 1, so
    the lags are K's entries bit for bit; u_k != v_k sends every pair down
    the generic non-hermitian path. A transform costs n times that of one
    factor pair.
    """
    values = np.asarray(values)
    return OperatorKernel(axis, u=values.T, v=np.eye(len(values)))


def harmonic_map(grid: Grid) -> MomentumMap:
    """H = (q^2 + p^2) / 2 on an N = 1 grid; compact circular orbits."""
    if grid.n_dof != 1:
        raise ValueError("harmonic map is provided for N = 1")
    return MomentumMap(PhaseFunction.sample(grid, lambda q, p: 0.5 * (q**2 + p**2), label="H"))


def mesh(grid: Grid) -> tuple[np.ndarray, ...]:
    """Full coordinate arrays, one per axis, each of the grid's shape."""
    return tuple(np.meshgrid(*(axis.nodes() for axis in grid.axes), indexing="ij"))


def placed_tiles(count: int, spacing: float, order: int, parts: int = 1) -> np.ndarray:
    """The ``(parts count, parts count)`` matrix that the tiles of ``phase_space._tiles`` apply.

    Each tile's weights are written into its rows and columns; the tiles'
    rows do not overlap. Built uncached, so no test shares the package's
    tiles or fills its cache.
    """
    d = np.zeros((parts * count, parts * count))
    for rows, cols, weights in _tiles.__wrapped__(count, spacing, order, parts, "C"):
        d[rows, cols] = weights
    return d


def per_row_difference_matrix(count: int, spacing: float, order: int) -> np.ndarray:
    """The matrix of ``placed_tiles`` built row by row: one Fornberg call per row.

    Each row's weights come from the nodes ``k * spacing`` around it: the
    centred window of ``2 half + 1`` nodes in the interior, the first or
    last ``order + 4`` nodes within ``half`` of an edge. O(count) Fornberg
    calls, against the package's 1 + half per order.
    """
    x = np.arange(count) * spacing
    half = (order + 1) // 2 + 1
    central, sided = 2 * half + 1, order + 4
    d = np.zeros((count, count))
    for i in range(count):
        if half <= i < count - half:
            lo, size = i - half, central
        else:
            lo, size = min(max(i - sided // 2, 0), count - sided), sided
        d[i, lo : lo + size] = _fornberg_weights(x[i], x[lo : lo + size], order)
    return d
