"""Wigner transforms of hermitian operator kernels and the position marginal.

Conventions, applied everywhere and asserted by tests:

* ``wigner_of_kernel`` maps a position-representation kernel K(q, q') to
  the symbol f(q, p) = 2 * integral K(q-y, q+y) exp(2i p y / hbar) dy.
  The identity kernel maps to 1, position to q, momentum to p.
* ``wigner_of_pure_state`` divides by 2*pi*hbar so the state's
  quasi-density integrates to 1 over phase space.
* With those two choices, integrate(W_state * symbol_observable) equals
  the kernel-space trace pairing.

Kernels and wavefunctions live on a q :class:`~phasedec.phase_space.Axis`,
checked by the same rule as every grid axis. The oscillatory y-integral is
a direct trapezoid sum with dy the axis spacing; callers must keep
max|p| * dy / hbar below pi/4 so the phase is well sampled, and every
output q must be an axis node (both checked on entry).

A kernel is hermitian by construction and held as factors alone,
K(q, q') = sum_k s_k u_k(q) conj(u_k(q')) with real weights s_k: rank-k
operators such as pure states and separable observables cost O(k n), no
transform reads an n^2 array, and every symbol is real.

One real fold serves every transform. A hermitian kernel's lag samples g_j
(y = j*dy) have mirrors g_-j = conj(g_j), so the sum over j = -M..M folds
onto j = 0..M as real halves: even_j = 2 Re g_j against
cos(2 j dy p / hbar) and odd_j = -2 Im g_j against sin. The table is the
package's one cos/sin table, the powers of exp(2i dy p / hbar) from
``phase_space``, and its sin rows are built only for complex factors: real
factors have real lags and no odd half. The fold computes only terms that
reach an output: row i's window holds min(i, n-1-i) lags, so the output
rows fold in a few bands of consecutive rows, each gathered and multiplied
only to its own deepest lag, straight into its output rows. On a p axis
symmetric about 0 the table holds the p >= 0 nodes alone: cos is even in p
and sin odd, so a p < 0 column is its mirror's even fold minus its odd
fold. Factor lags g_j = sum_k s_k u_k(q-y) conj(u_k(q+y)) (the Wigner lag
products of G. B. Folland, *Harmonic Analysis in Phase Space*, ch. 1) come
straight from the factors. A pure state is the projector psi psi^H,
divided by 2 pi hbar.

A transform allocates twice: its float64 symbol rows, which the returned
``PhaseFunction`` keeps without a copy, and one float64 workspace sized
before the first lag, from which every other buffer it writes is cut: the
lag layout and halves, the padded factor rows, the cos/sin table and the
odd sums. Allocated one at a time, those buffers went back to the OS after
each call under glibc's mmap-threshold and trim rules and faulted in again
on the next (``_kernel_rows`` gives the counts).
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.hermite import hermval

from .phase_space import Axis, Grid, PhaseFunction, _cos_sin, _frozen, _trapezoid_weights

__all__ = [
    "OperatorKernel",
    "WaveFunction",
    "wigner_of_kernel",
    "wigner_of_pure_state",
    "q_marginal",
    "trace_pair",
    "oscillator_state",
    "gaussian_state",
]

#: runs of consecutive output rows in one fold, each gathered and folded
#: only to its own deepest lag; chosen by timing the perfbench ``wigner`` ops
BANDS = 8


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Hermitian position kernel K(q, q') = sum_k s_k u_k(q) conj(u_k(q')) on a q axis.

    ``u`` and ``s`` are keyword-only: ``u`` of shape ``(k, n)`` over the n
    axis nodes, float64 when real, else complex128, and ``s`` the k real
    weights, None meaning ones. With no factors the kernel is zero. Any
    (min, max, count) ``axis`` becomes an :class:`Axis`.
    """

    axis: Axis
    _: KW_ONLY
    u: np.ndarray | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        axis = Axis(*self.axis)
        object.__setattr__(self, "axis", axis)
        n = axis.count
        u = np.zeros((0, n)) if self.u is None else self.u
        u = _frozen(u, None, (len(u), n), "kernel factors u")
        s = _frozen(np.ones(len(u)) if self.s is None else self.s, None, (len(u),), "kernel weights s")
        if s.dtype != float:
            raise ValueError("kernel weights s must be real: K = sum_k s_k u_k u_k^H is hermitian")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Wavefunction samples, float64 when real; any (lo, hi, count) ``axis`` becomes an :class:`Axis`."""

    axis: Axis
    values: np.ndarray

    def __post_init__(self):
        axis = Axis(*self.axis)
        object.__setattr__(self, "axis", axis)
        values = _frozen(self.values, None, (axis.count,), "wavefunction samples")
        object.__setattr__(self, "values", values)

    @property
    def norm(self) -> float:
        weights = _trapezoid_weights(self.axis.count, self.axis.spacing)
        return float(np.sqrt(np.abs(self.values) ** 2 @ weights))

    def normalize(self) -> "WaveFunction":
        n = self.norm
        if n == 0:
            raise ValueError("cannot normalize the zero wavefunction")
        return WaveFunction(self.axis, self.values / n)


def oscillator_state(axis, level: int, hbar: float = 1.0) -> WaveFunction:
    """Harmonic-oscillator eigenstate (unit mass and frequency)."""
    if level < 0:
        raise ValueError("level must be >= 0")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    axis = Axis(*axis)
    x = axis.nodes() / np.sqrt(hbar)
    coeffs = np.zeros(level + 1)
    coeffs[level] = 1.0
    values = hermval(x, coeffs) * np.exp(-0.5 * x**2)
    return WaveFunction(axis, values).normalize()


def gaussian_state(axis, center: float = 0.0, sigma: float = 1.0) -> WaveFunction:
    """Normalized Gaussian wave packet exp(-(q-center)^2 / (2 sigma^2))."""
    axis = Axis(*axis)
    values = np.exp(-((axis.nodes() - center) ** 2) / (2.0 * sigma**2))
    return WaveFunction(axis, values).normalize()


def _check_grid_2d(grid: Grid):
    if grid.n_dof != 1:
        raise ValueError("Wigner transforms are implemented for N = 1 (2-axis grids)")


def _nyquist_guard(p_max: float, dy: float, hbar: float):
    if p_max * dy / hbar >= np.pi / 4.0:
        raise ValueError(
            f"phase step max|p|*dy/hbar = {p_max * dy / hbar:.3g} exceeds pi/4; "
            "refine the kernel axis or shrink the momentum range"
        )


def _output_nodes(axis: Axis, hbar: float, out_grid: Grid):
    """Kernel-node index of every output q, and the output p values.

    Checks hbar, the 2-axis grid, the phase-step bound, and that every
    output q lies within 1e-9 cells of a node (one tolerance, in cells, for
    the range and the nodes).
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    _check_grid_2d(out_grid)
    q_out = out_grid.coordinate(0)
    p_out = out_grid.coordinate(1)
    h = axis.spacing
    offsets = (q_out - axis.lo) / h
    nodes = np.rint(offsets)
    if nodes[0] < 0 or nodes[-1] > axis.count - 1:
        raise ValueError("output q-range must lie inside the kernel q-range")
    _nyquist_guard(float(np.max(np.abs(p_out))), h, hbar)
    if not np.all(np.abs(offsets - nodes) <= 1e-9):
        raise ValueError("output q values must be kernel q nodes")
    return nodes.astype(int), p_out


def _half_window(n: int, nodes: np.ndarray):
    """Row bands and the lags of half weight on the bands' flat layout.

    Row i reaches min(i, n-1-i) lags. The output rows split into ``BANDS``
    runs of consecutive rows, and a run whose deepest reach is d - 1 takes
    lags j = 0..d-1 as a (d, rows) block of one flat axis. Returns each
    run's (row slice, d, flat slice) and, per row, the flat entries of
    lag 0, which the even half counts twice, and of the lag at the reach,
    the window's end. Both take half weight; a row of reach 0 has both at
    one entry and is zero.
    """
    reach = np.minimum(nodes, n - 1 - nodes)
    starts = sorted({k * len(nodes) // BANDS for k in range(BANDS)})
    widths = np.diff(starts + [len(nodes)])
    depths = np.maximum.reduceat(reach, starts) + 1
    ends = np.cumsum(widths * depths)
    bands = [
        (slice(lo, lo + width), depth, slice(end - width * depth, end))
        for lo, width, depth, end in zip(starts, widths.tolist(), depths.tolist(), ends.tolist())
    ]
    # lag j of a row sits j band widths past the row's lag 0
    first = np.arange(len(nodes)) + np.repeat(ends - widths * depths - starts, widths)
    return bands, first, first + reach * np.repeat(widths, widths)


def _fold(halves: np.ndarray, bands, first: np.ndarray, last: np.ndarray, p_out: np.ndarray,
          h: float, hbar: float, rows: np.ndarray, table: np.ndarray, odd_rows: np.ndarray):
    """2h * sum_j (even_j cos(j theta) + odd_j sin(j theta)), theta = 2 h p / hbar.

    ``halves`` holds a hermitian kernel's real lags on the flat layout of
    ``_half_window``, zero past each row's reach: (2, entries) even over
    odd, or (1, entries) when every odd lag is zero. Each row's lags
    ``first`` and ``last`` take half weight in place (a row whose two are
    one entry is zero). Each band folds straight into its output rows
    against the first d rows of the cos (and sin) table. On a p axis
    symmetric about 0 (p_out[0] == -p_out[-1]) the table holds the p >= 0
    nodes only: cos is even in p and sin odd, so each p < 0 column is its
    mirror's even fold minus its odd fold. The caller's arrays take every
    value the fold writes: ``rows`` (rows, n_p) the float64 symbol rows,
    ``table`` (parts, depth, columns) the cos/sin table and ``odd_rows``
    (at least the widest band's rows, columns) each band's odd sum.
    """
    parts = len(halves)
    halves[:, first] *= 0.5
    halves[:, last] *= np.where(first < last, 0.5, 0.0)
    depth, columns = table.shape[1:]
    mirrored = len(p_out) - columns
    _cos_sin(2.0 * h / hbar, depth, p_out[mirrored:], parts, "p", out=table)
    table *= 2.0 * h
    for band, d, flat in bands:
        even, *odd = halves[:, flat].reshape(parts, d, -1)
        symbol = rows[band]
        folded = symbol[:, mirrored:]
        np.matmul(even.T, table[0, :d], out=folded)
        flipped = symbol[:, mirrored - 1::-1] if mirrored else None
        if odd:
            odd_sum = np.matmul(odd[0].T, table[1, :d], out=odd_rows[: len(folded)])
            if mirrored:
                np.subtract(folded[:, -mirrored:], odd_sum[:, -mirrored:], out=flipped)
            folded += odd_sum
        elif mirrored:
            flipped[...] = folded[:, -mirrored:]  # per band: numpy's copy of the columns stays small


def wigner_of_kernel(kernel: OperatorKernel, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Phase-space symbol of a hermitian operator kernel, a float64 ``PhaseFunction``.

    f(q, p) = 2 * integral over y of K(q-y, q+y) exp(2i p y / hbar), with
    y spanning the largest symmetric window the kernel support allows at
    each q. Every output q must lie within 1e-9 cells of a kernel node, or
    ValueError is raised. K = K^H, so the symbol is real and comes from one
    real fold; real factors have no odd lags and meet the cos table alone.
    """
    nodes, p_out = _output_nodes(kernel.axis, hbar, out_grid)
    return PhaseFunction._adopt(out_grid, _kernel_rows(kernel, nodes, p_out, hbar))


def _kernel_rows(kernel: OperatorKernel, nodes: np.ndarray, p_out: np.ndarray, hbar: float):
    """float64 symbol rows at node indices ``nodes``.

    One gather lays every band's lags out on one flat axis, zero past each
    row's reach, and ``_fold`` folds them band by band into the rows. The
    rows are allocated first and returned for the caller to keep; every
    other array the two write is a view of one float64 workspace, sized
    here from the bands before the first lag is formed. The halves come
    first in it. After them go the complex lag layout of complex factors
    (real lags are their own even half) and the padded factor rows, and,
    once the halves are built, the cos/sin table and one band's odd sum
    over the same space.

    Buffers allocated one at a time would only raise glibc's dynamic mmap
    threshold to the largest of them, and glibc trims the heap top above
    twice that threshold. A transform's buffers sum to more, so their pages
    went back to the OS after each call and faulted in again on the next:
    711 minor faults per 385 x 385 pure-state transform, run alone in a
    loop. With the workspace it faults none. The rows come before the
    workspace so that the workspace, freed on return, rejoins the heap top
    rather than leaving a hole below the rows.
    """
    n, dtype = kernel.axis.count, kernel.u.dtype
    bands, first, last = _half_window(n, nodes)
    entries, depth = bands[-1][2].stop, max(d for _, d, _ in bands)
    parts = 1 + (dtype == complex)
    columns = len(p_out) - (len(p_out) // 2 if p_out[0] == -p_out[-1] else 0)
    widest = max(band.stop - band.start for band, _, _ in bands)
    lag_shapes = [((entries,), dtype if parts == 2 else None), ((2, n + 2 * depth), dtype)]
    fold_shapes = [((parts, depth, columns), float), ((widest * (parts - 1), columns), float)]
    at = parts * entries
    rows = np.empty((len(nodes), len(p_out)))
    room = max(sum(_floats(*shape) for shape in shapes) for shapes in (lag_shapes, fold_shapes))
    workspace = np.empty(at + room)
    halves = workspace[:at].reshape(parts, entries)
    if len(kernel.u):
        lags, padded = _cut(workspace, at, lag_shapes)
        lags = _factor_lags(kernel, nodes, bands, halves[0] if lags is None else lags, padded)
        halves = _halves(lags, halves)
    else:
        halves[:] = 0.0
    h = kernel.axis.spacing
    _fold(halves, bands, first, last, p_out, h, hbar, rows, *_cut(workspace, at, fold_shapes))
    return rows


def _floats(shape, dtype) -> int:
    """float64 slots that an array of ``shape`` and ``dtype`` takes; none for dtype None."""
    return 0 if dtype is None else math.prod(shape) * np.dtype(dtype).itemsize // 8


def _cut(workspace: np.ndarray, at: int, shapes) -> list:
    """Consecutive views of ``workspace`` from float ``at``, one per (shape, dtype); None for dtype None."""
    views = []
    for shape, dtype in shapes:
        size = _floats(shape, dtype)
        views.append(None if dtype is None else workspace[at : at + size].view(dtype).reshape(shape))
        at += size
    return views


def _factor_lags(kernel: OperatorKernel, nodes: np.ndarray, bands, out: np.ndarray,
                 padded: np.ndarray):
    """sum_k s_k u_k[i - j] conj(u_k[i + j]) into ``out``, on the flat layout of ``bands``, rows i = ``nodes``.

    ``kernel`` has k >= 1 factor rows, and ``out`` and ``padded``, a
    (2, n + 2 pad) array, have their dtype. Each row times its weight, and
    its conjugate, are padded with zeros to the deepest lag on both sides
    in ``padded``, so a lag past its row's reach is zero, and read through
    one sliding-window view: the output nodes are evenly spaced, so a
    band's (lag, row) block of s_k u_k[i - j] or conj(u_k[i + j]) is a
    slice of it, with no index array.
    """
    pad = max(d for _, d, _ in bands)
    step = int(nodes[1] - nodes[0])
    at = int(nodes[0]) + pad  # window t holds padded[t + step * row], so row's node i at t = at
    padded[:] = 0.0
    left, right = sliding_window_view(padded, step * (len(nodes) - 1) + 1, axis=1)[:, :, ::step]
    for k, (row, weight) in enumerate(zip(kernel.u, kernel.s)):
        np.multiply(row, weight, out=padded[0, pad:-pad])
        np.conj(row, out=padded[1, pad:-pad])
        for rows, d, flat in bands:
            block = out[flat].reshape(d, -1)
            u_lags, v_lags = left[at - d + 1 : at + 1][::-1, rows], right[at : at + d, rows]
            if k == 0:
                np.multiply(u_lags, v_lags, out=block)
            else:
                block += u_lags * v_lags
    return out


def _halves(lags: np.ndarray, out: np.ndarray) -> np.ndarray:
    """A hermitian kernel's lags g_j as (2, entries) 2 Re g_j over -2 Im g_j, written into ``out``.

    Real lags have no odd half: they become (1, entries) 2 g_j in place,
    and ``out`` is left as it is.
    """
    if lags.dtype == float:
        lags *= 2.0
        return lags[None]
    np.multiply(lags.real, 2.0, out=out[0])
    np.multiply(lags.imag, -2.0, out=out[1])
    return out


def wigner_of_pure_state(psi: WaveFunction, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Unit-mass Wigner quasi-density of a pure state.

    The symbol of the rank-one projector psi psi^H of the normalized psi,
    divided by 2 pi hbar so the result integrates to 1. Its lag products
    come straight from psi (no n^2 projector array), the result is a float64
    ``PhaseFunction``, and a real psi has no odd lags: it meets the cos table alone.
    """
    nodes, p_out = _output_nodes(psi.axis, hbar, out_grid)
    projector = OperatorKernel(psi.axis, u=psi.normalize().values[None])
    rows = _kernel_rows(projector, nodes, p_out, hbar)
    rows /= 2.0 * np.pi * hbar
    return PhaseFunction._adopt(out_grid, rows)


def q_marginal(w: PhaseFunction) -> np.ndarray:
    """integral of W over p, one value per q node of the grid."""
    _check_grid_2d(w.grid)
    p_axis = w.grid.axes[1]
    return w.values.real @ _trapezoid_weights(p_axis.count, p_axis.spacing)


def trace_pair(a: OperatorKernel, b: OperatorKernel) -> float:
    """Tr(A B) by double trapezoid: integral A(q, q') B(q', q) dq dq'.

    With A = sum_k s_k u_k u_k^H, B = sum_l t_l x_l x_l^H and W the
    trapezoid weights, Tr(A W B W) = sum_kl s_k t_l |u_k^H W x_l|^2:
    weighted inner products of the factors at O(k l n), real because both
    kernels are hermitian.
    """
    if a.axis != b.axis:
        raise ValueError("kernels live on different axes")
    w = _trapezoid_weights(a.axis.count, a.axis.spacing)
    overlaps = (a.u.conj() * w) @ b.u.T
    return float(a.s @ (overlaps.real**2 + overlaps.imag**2) @ b.s)
