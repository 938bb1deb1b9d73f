"""Wigner transforms of operator kernels and the position marginal.

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

One fold serves both transforms. A hermitian operator's lag samples g_j
(y = j*dy) have mirrors g_-j = conj(g_j), so the sum over j = -M..M folds
onto j = 0..M as real halves: even_j = 2 Re g_j against cos(2 j dy p / hbar)
and odd_j = -2 Im g_j against sin, in one real matmul sharing one table
over every row. A pure state's g_j = psi(q-y) conj(psi(q+y)) come straight
from psi; a kernel folds as its hermitian parts H and A, K = H + iA.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from .phase_space import Axis, Grid, PhaseFunction, _frozen, _trapezoid_weights

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


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Position-representation kernel K(q, q'); any (min, max, count) ``axis`` becomes an :class:`Axis`."""

    axis: Axis
    values: np.ndarray

    def __post_init__(self):
        axis = Axis(*self.axis)
        object.__setattr__(self, "axis", axis)
        values = _frozen(self.values, complex, (axis.count,) * 2, "kernel values")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_wavefunction(cls, psi: "WaveFunction") -> "OperatorKernel":
        return cls(psi.axis, np.outer(psi.values, psi.values.conj()))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex wavefunction samples; any (min, max, count) ``axis`` becomes an :class:`Axis`."""

    axis: Axis
    values: np.ndarray

    def __post_init__(self):
        axis = Axis(*self.axis)
        object.__setattr__(self, "axis", axis)
        values = _frozen(self.values, complex, (axis.count,), "wavefunction samples")
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
            f"phase step max|p|*dy/hbar = {p_max * dy / hbar:.3f} exceeds pi/4; "
            "refine the kernel axis or shrink the momentum range"
        )


def _output_nodes(axis: Axis, hbar: float, out_grid: Grid):
    """Kernel-node index of every output q, and the output p values.

    Checks hbar, the 2-axis grid, the q range, the phase-step bound and
    that every output q lies within 1e-9 cells of a node.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    _check_grid_2d(out_grid)
    q_out = out_grid.coordinate(0)
    p_out = out_grid.coordinate(1)
    if q_out[0] < axis.lo - 1e-12 or q_out[-1] > axis.hi + 1e-12:
        raise ValueError("output q-range must lie inside the kernel q-range")
    h = axis.spacing
    _nyquist_guard(float(np.max(np.abs(p_out))), h, hbar)

    offsets = (q_out - axis.lo) / h
    nodes = np.rint(offsets)
    if not np.all(np.abs(offsets - nodes) <= 1e-9):
        raise ValueError("output q values must be kernel q nodes")
    return nodes.astype(int), p_out


def _half_window(n: int, nodes: np.ndarray):
    """Each row's reach min(i, n-1-i) and the lags j = 0..max reach, as a column."""
    reach = np.minimum(nodes, n - 1 - nodes)
    return reach, np.arange(int(reach.max()) + 1)[:, None]


def _fold(halves: np.ndarray, reach: np.ndarray, p_out: np.ndarray, h: float, hbar: float):
    """2h * sum_j (even_j cos(j theta) + odd_j sin(j theta)), theta = 2 h p / hbar.

    ``halves`` holds one hermitian operator's real lags j = 0..M by row:
    (2, M+1, rows) even over odd, or (1, M+1, rows) when every odd lag is
    zero, and only the tables it needs are built. Weights go on in place:
    1 inside a row's reach, 1/2 at it, 0 past it, and 1/2 more on even_0,
    which counts the j = 0 lag twice. The result is (rows, n_p).
    """
    parts, depth = halves.shape[:2]
    lags = np.arange(depth)[:, None]
    halves *= np.clip(reach + 0.5 - lags, 0.0, 1.0)
    halves[0, 0] *= 0.5
    halves[:, :, reach == 0] = 0.0
    theta = np.outer(lags * h, p_out)
    theta *= 2.0
    theta /= hbar
    table = np.empty((parts,) + theta.shape)
    np.cos(theta, out=table[0])
    if parts == 2:
        np.sin(theta, out=table[1])
    del theta
    out = halves.reshape(parts * depth, -1).T @ table.reshape(parts * depth, -1)
    out *= 2.0 * h
    return out


def wigner_of_kernel(kernel: OperatorKernel, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Phase-space symbol of an operator kernel.

    f(q, p) = 2 * integral over y of K(q-y, q+y) exp(2i p y / hbar), with
    y spanning the largest symmetric window the kernel support allows at
    each q. Every output q must lie within 1e-9 cells of a kernel node, or
    ValueError is raised. K = H + iA, with H = (K + K^H)/2 and
    A = (K - K^H)/2i hermitian, maps to symbol(H) + i symbol(A), each by
    the real fold; a hermitian kernel has A = 0 and an exactly real symbol.
    """
    nodes, p_out = _output_nodes(kernel.axis, hbar, out_grid)
    return PhaseFunction(out_grid, _kernel_rows(kernel, nodes, p_out, hbar))


def _kernel_rows(kernel: OperatorKernel, nodes: np.ndarray, p_out: np.ndarray, hbar: float):
    """Symbol rows at node indices ``nodes``; the buffers go before ``PhaseFunction`` copies them."""
    n, h = kernel.axis.count, kernel.axis.spacing
    reach, lags = _half_window(n, nodes)
    # g_j = K[i - j, i + j] sits at flat index f = i*(n+1) - j*(n-1), its mirror
    # m_j = K[i + j, i - j] at 2*i*(n+1) - f, their real and imaginary parts at
    # 2f and 2f + 1 of the float view. Past a row's reach j is held at the
    # reach: zero-weighted, and exactly zero in A for a hermitian kernel
    floats = kernel.values.view(float).reshape(-1)
    h_lags = np.empty((2, len(lags), len(nodes)))  # even over odd lags of H
    a_lags = np.empty_like(h_lags)  # and of A
    at = np.minimum(lags, reach)
    at *= -2 * (n - 1)
    at += 2 * (n + 1) * nodes
    np.take(floats, at, mode="clip", out=h_lags[0])  # Re g
    at += 1
    np.take(floats, at, mode="clip", out=a_lags[0])  # Im g
    np.subtract(4 * (n + 1) * nodes + 2, at, out=at)
    np.take(floats, at, mode="clip", out=h_lags[1])  # Im m
    at -= 1
    np.take(floats, at, mode="clip", out=a_lags[1])  # Re m
    del at
    # H's lags are (g + conj m)/2 and A's (g - conj m)/2i: even = 2 Re, odd = -2 Im
    h_lags[0] += a_lags[1]  # Re g + Re m
    a_lags[1] *= -2.0
    a_lags[1] += h_lags[0]  # Re g - Re m
    a_lags[0] += h_lags[1]  # Im g + Im m
    h_lags[1] *= 2.0
    h_lags[1] -= a_lags[0]  # Im m - Im g
    rows = _fold(h_lags, reach, p_out, h, hbar)
    del h_lags
    if not a_lags.any():
        return rows
    imag = _fold(a_lags, reach, p_out, h, hbar)
    del a_lags
    return rows + 1j * imag


def wigner_of_pure_state(psi: WaveFunction, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Unit-mass Wigner quasi-density of a pure state.

    The symbol of the projector |psi><psi| of the normalized psi, divided
    by 2 pi hbar so the result integrates to 1. Its lag products come
    straight from psi (no n^2 projector kernel), the result is exactly
    real, and a real psi has no odd lags: it meets the cos table alone.
    """
    nodes, p_out = _output_nodes(psi.axis, hbar, out_grid)
    return PhaseFunction(out_grid, _pure_state_rows(psi.normalize(), nodes, p_out, hbar))


def _pure_state_rows(psi: WaveFunction, nodes: np.ndarray, p_out: np.ndarray, hbar: float):
    """Real quasi-density rows at node indices ``nodes``.

    Each buffer is dropped once used, and this frame ends before
    ``PhaseFunction`` copies the rows: the peak stays near 1.6 times the
    bytes of the complex result.
    """
    reach, lags = _half_window(psi.axis.count, nodes)
    # the mirror lag is g_-j = conj(g_j), so even_j = 2 Re g_j, odd_j = -2 Im g_j;
    # a real psi has real g_j and no odd half
    real = not psi.values.imag.any()
    values = psi.values.real if real else psi.values
    at = nodes - lags
    lag_products = np.take(values, at, mode="clip")
    at += 2 * lags
    mirror = np.take(values, at, mode="clip")
    del at
    if real:
        lag_products *= mirror  # g_j = psi[i - j] psi[i + j]
        del mirror
        lag_products *= 2.0
        halves = lag_products[None]
    else:
        np.conjugate(mirror, out=mirror)
        lag_products *= mirror  # g_j = psi[i - j] conj(psi[i + j])
        del mirror
        halves = np.empty((2,) + lag_products.shape)
        np.multiply(lag_products.real, 2.0, out=halves[0])
        np.multiply(lag_products.imag, -2.0, out=halves[1])
    del lag_products
    rows = _fold(halves, reach, p_out, psi.axis.spacing, hbar)
    rows /= 2.0 * np.pi * hbar
    return rows


def q_marginal(w: PhaseFunction) -> np.ndarray:
    """integral of W over p, one value per q node of the grid."""
    _check_grid_2d(w.grid)
    p_axis = w.grid.axes[1]
    return w.values.real @ _trapezoid_weights(p_axis.count, p_axis.spacing)


def trace_pair(a: OperatorKernel, b: OperatorKernel) -> complex:
    """Tr(A B) by double trapezoid: integral A(q, q') B(q', q) dq dq'."""
    if a.axis != b.axis:
        raise ValueError("kernels live on different axes")
    w = _trapezoid_weights(a.axis.count, a.axis.spacing)
    integrand = a.values * b.values.T
    return complex(np.einsum("i,j,ij->", w, w, integrand))
