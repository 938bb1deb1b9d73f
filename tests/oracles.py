"""Test-only reference constructions that the package does not need at run time.

``dense_kernel`` forms the full array of a factored ``OperatorKernel``,
``dense_as_factors`` holds a full hermitian array K as its n eigenvectors
u = V^T with weights s = lambda, ``dense_terms`` forms the full (n, n)
array of a ``CoherenceTerms`` kernel,
``harmonic_map`` realizes the energy label as the oscillator Hamiltonian,
whose compact orbits give closed-form singular symbols, ``mesh`` gives
full coordinate arrays for closed-form symbols on a grid,
``per_row_difference_matrix`` builds each differentiation-matrix row with
its own Fornberg call on the physical nodes, and ``placed_tiles`` places
the derivative's tiles into the full matrix they apply.

``reference_kernel_rows``, ``reference_cos_sin`` and
``reference_plane_wave_matrix`` compute the Wigner fold, the cos/sin table
and the plane-wave table with every intermediate in its own fresh array
and the table built apart from E and copied in transposed. The package
writes the same terms in the same order into one workspace (or straight
into E), so its results must match these bit for bit.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from phasedec.phase_space import (
    Axis,
    Grid,
    PhaseFunction,
    _check_phases,
    _fornberg_weights,
    _tiles,
    _trapezoid_weights,
)
from phasedec.spectral import CoherenceTerms, MomentumMap
from phasedec.weyl import OperatorKernel, _half_window


def dense_kernel(kernel: OperatorKernel) -> np.ndarray:
    """The full ``(n, n)`` array U^T S conj(U) of a factored kernel: O(k n^2)."""
    return (kernel.u.T * kernel.s) @ kernel.u.conj()


def dense_as_factors(axis, values) -> OperatorKernel:
    """A full hermitian ``(n, n)`` kernel array K as n factors: K = V diag(lambda) V^H from ``eigh``.

    The factors are the eigenvectors u_k = V[:, k], real for a real
    symmetric K, with the real eigenvalues as weights s_k, so the kernel
    matches K to round-off. A transform costs n times that of one factor.
    """
    eigenvalues, vectors = np.linalg.eigh(np.asarray(values))
    return OperatorKernel(axis, u=vectors.T, s=eigenvalues)


def dense_terms(terms: CoherenceTerms) -> np.ndarray:
    """The full ``(n, n)`` array of regular kernel terms, one block of every row and column: O(k n^2)."""
    return terms._block(slice(None), slice(None))


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


def reference_cos_sin(step, count, points, parts, what):
    """(parts count x len(points)) table of ``phase_space._cos_sin``, row by row into a fresh array."""
    _check_phases(step, points, what)
    phasor = np.empty(len(points), dtype=complex)
    np.cos(step * points, out=phasor.real)
    np.sin(step * points, out=phasor.imag)
    power = np.ones_like(phasor)
    cos_sin = power.view(float).reshape(-1, 2).T[:parts]
    table = np.empty((parts * count, len(points)))
    for k in range(count):
        table[k::count] = cos_sin
        power *= phasor
    return table


def reference_plane_wave_matrix(grid, axis, hbar):
    """``spectral.plane_wave_matrix`` from a separate (2n, n_q) table, copied into E transposed."""
    axis, n = Axis(*axis), grid.omega_count
    cos, sin = reference_cos_sin(grid.d_omega / hbar, n, axis.nodes(), 2, "q").reshape(2, n, -1)
    table = np.empty((axis.count, n), dtype=complex)
    table.real, table.imag = cos.T, sin.T
    table *= _trapezoid_weights(grid.omega_count, grid.d_omega) / np.sqrt(2.0 * np.pi * hbar)
    return table


def reference_kernel_rows(kernel: OperatorKernel, nodes, p_out, hbar):
    """``weyl._kernel_rows`` with a fresh array for every lag layout, half, table and fold."""
    bands, first, last = _half_window(kernel.axis.count, nodes)
    if len(kernel.u):
        halves = _reference_halves(_reference_factor_lags(kernel, nodes, bands))
    else:
        halves = np.zeros((1, bands[-1][2].stop))
    return _reference_fold(halves, bands, first, last, p_out, kernel.axis.spacing, hbar)


def _reference_factor_lags(kernel, nodes, bands):
    pad = max(d for _, d, _ in bands)
    step = int(nodes[1] - nodes[0])
    at = int(nodes[0]) + pad
    padded = np.zeros((2, kernel.axis.count + 2 * pad), kernel.u.dtype)
    left, right = sliding_window_view(padded, step * (len(nodes) - 1) + 1, axis=1)[:, :, ::step]
    total = np.empty(bands[-1][2].stop, kernel.u.dtype)
    for k, (row, weight) in enumerate(zip(kernel.u, kernel.s)):
        padded[0, pad:-pad] = row * weight
        padded[1, pad:-pad] = row.conj()
        for rows, d, flat in bands:
            block = total[flat].reshape(d, -1)
            u_lags, v_lags = left[at - d + 1 : at + 1][::-1, rows], right[at : at + d, rows]
            if k == 0:
                np.multiply(u_lags, v_lags, out=block)
            else:
                block += u_lags * v_lags
    return total


def _reference_halves(lags):
    if lags.dtype == float:
        lags *= 2.0
        return lags[None]
    halves = np.empty((2,) + lags.shape)
    np.multiply(lags.real, 2.0, out=halves[0])
    np.multiply(lags.imag, -2.0, out=halves[1])
    return halves


def _reference_fold(halves, bands, first, last, p_out, h, hbar):
    parts = len(halves)
    halves[:, first] *= 0.5
    halves[:, last] *= np.where(first < last, 0.5, 0.0)
    mirrored = len(p_out) // 2 if p_out[0] == -p_out[-1] else 0
    depth = max(d for _, d, _ in bands)
    table = reference_cos_sin(2.0 * h / hbar, depth, p_out[mirrored:], parts, "p").reshape(parts, depth, -1)
    table *= 2.0 * h
    symbol = np.empty((len(first), len(p_out)))
    for rows, d, flat in bands:
        even, *odd = halves[:, flat].reshape(parts, d, -1)
        folded = symbol[rows, mirrored:]
        np.matmul(even.T, table[0, :d], out=folded)
        if odd:
            odd_sum = odd[0].T @ table[1, :d]
            if mirrored:
                flipped = symbol[rows, mirrored - 1 :: -1]
                np.subtract(folded[:, -mirrored:], odd_sum[:, -mirrored:], out=flipped)
            folded += odd_sum
    if mirrored and parts == 1:
        symbol[:, mirrored - 1 :: -1] = symbol[:, -mirrored:]
    return symbol
