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

A kernel is held factored, K(q, q') = sum_k u_k(q) conj(v_k(q')) + R(q, q'),
with an optional dense rest R: rank-k operators such as pure states and
separable observables cost O(k n), and only a rest is an n^2 array.

One fold serves every transform. K = H + iA with H = (K + K^H)/2 and
A = (K - K^H)/2i hermitian. A hermitian operator's lag samples g_j
(y = j*dy) have mirrors g_-j = conj(g_j), so the sum over j = -M..M folds
onto j = 0..M as real halves: even_j = 2 Re g_j against cos(2 j dy p / hbar)
and odd_j = -2 Im g_j against sin, in one real matmul per part, and H and
A share one table. Factor lags g_j = sum_k u_k(q-y) conj(v_k(q+y)) (the
cross-Wigner lag products of G. B. Folland, *Harmonic Analysis in Phase
Space*, ch. 1) come straight from the factors, and a term with u_k = v_k
adds to H alone; a rest is read off its anti-diagonals. A pure state is the factored
projector psi psi^H, divided by 2 pi hbar.
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
    """Position kernel K(q, q') = sum_k u_k(q) conj(v_k(q')) + R(q, q') on a q axis.

    ``u`` and ``v`` have shape ``(k, n)`` over the n axis nodes; ``v`` None
    means v = u. ``values`` is the dense ``(n, n)`` rest R, or None for
    none. With no factors and no rest the kernel is zero. Any
    (min, max, count) ``axis`` becomes an :class:`Axis`.
    """

    axis: Axis
    values: np.ndarray | None = None
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self):
        axis = Axis(*self.axis)
        object.__setattr__(self, "axis", axis)
        n = axis.count
        if self.values is not None:
            values = _frozen(self.values, complex, (n, n), "kernel values")
            object.__setattr__(self, "values", values)
        u = np.zeros((0, n)) if self.u is None else self.u
        u = _frozen(u, complex, (len(u), n), "kernel factors u")
        v = u if self.v is None else _frozen(self.v, complex, u.shape, "kernel factors v")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def dense(self) -> np.ndarray:
        """The full ``(n, n)`` array U V^H + R: O(k n^2), for test oracles."""
        out = self.u.T @ self.v.conj()
        if self.values is not None:
            out += self.values
        return out


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

    ``halves`` holds the real lags j = 0..M of one or two hermitian
    operators, by row: (operators, 2, M+1, rows) even over odd, or
    (operators, 1, M+1, rows) when every odd lag is zero. The operators
    share one weight window and one table, and only the tables the parts
    need are built. Weights go on in place: 1 inside a row's reach, 1/2 at
    it, 0 past it, and 1/2 more on even_0, which counts the j = 0 lag
    twice. The result is one (rows, n_p) array per operator.
    """
    operators, parts, depth, rows = halves.shape
    lags = np.arange(depth)[:, None]
    halves *= np.clip(reach + 0.5 - lags, 0.0, 1.0)
    halves[:, 0, 0] *= 0.5
    halves[..., reach == 0] = 0.0
    theta = np.outer(lags * h, p_out)
    theta *= 2.0
    theta /= hbar
    table = np.empty((parts,) + theta.shape)
    np.cos(theta, out=table[0])
    if parts == 2:
        np.sin(theta, out=table[1])
    del theta
    table = table.reshape(parts * depth, -1)
    symbols = []
    for lag_rows in halves:
        symbol = lag_rows.reshape(parts * depth, rows).T @ table
        symbol *= 2.0 * h
        symbols.append(symbol)
    return symbols


def wigner_of_kernel(kernel: OperatorKernel, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Phase-space symbol of an operator kernel.

    f(q, p) = 2 * integral over y of K(q-y, q+y) exp(2i p y / hbar), with
    y spanning the largest symmetric window the kernel support allows at
    each q. Every output q must lie within 1e-9 cells of a kernel node, or
    ValueError is raised. K = H + iA, with H = (K + K^H)/2 and
    A = (K - K^H)/2i hermitian, maps to symbol(H) + i symbol(A), both by
    one real fold; a kernel whose factor terms all have u_k = v_k and
    whose rest, if any, is hermitian has A = 0 and an exactly real symbol.
    """
    nodes, p_out = _output_nodes(kernel.axis, hbar, out_grid)
    return PhaseFunction(out_grid, _kernel_rows(kernel, nodes, p_out, hbar))


def _kernel_rows(kernel: OperatorKernel, nodes: np.ndarray, p_out: np.ndarray, hbar: float):
    """Symbol rows at node indices ``nodes``.

    Each buffer is dropped once used, and this frame ends before
    ``PhaseFunction`` copies the rows.
    """
    reach, lags = _half_window(kernel.axis.count, nodes)
    halves = _lag_halves(kernel, nodes, reach, lags)
    real, *imag = _fold(halves, reach, p_out, kernel.axis.spacing, hbar)
    del halves
    if not imag:
        return real
    symbol = np.empty(real.shape, dtype=complex)
    symbol.real, symbol.imag = real, imag[0]
    return symbol


def _lag_halves(kernel: OperatorKernel, nodes: np.ndarray, reach: np.ndarray, lags: np.ndarray):
    """Real lags of H, then of A unless they are all zero: (1 or 2, 1 or 2, M+1, rows).

    A factor term with u_k = v_k is hermitian: its mirror lag is the
    conjugate of g_j, so it adds g_j to H's lags and nothing to A's, and
    a sum of real such terms has no odd half. Another term adds
    (g + conj m)/2 to H's lags and (g - conj m)/2i to A's, with
    m_j = u_k[i + j] conj(v_k[i - j]). The rest is read off its anti-diagonals.
    """
    u, v, rest = kernel.u, kernel.v, kernel.values
    same = [v is u or np.array_equal(a, b) for a, b in zip(u, v)]  # v is u when built without v
    hermitian = [a for a, same_k in zip(u, same) if same_k]
    lags_h = _factor_lags(hermitian, hermitian, nodes, lags)
    others = [(a, b) for a, b, same_k in zip(u, v, same) if not same_k]
    shape = (len(lags), len(nodes))
    if rest is None and not others:
        return np.zeros((1, 1) + shape) if lags_h is None else _halves(lags_h)[None]
    if rest is None:
        halves = np.zeros((2, 2) + shape)
    else:
        halves = np.empty((2, 2) + shape)
        _rest_lags(rest, nodes, reach, lags, halves)
    terms = [] if lags_h is None else [(0, lags_h)]
    if others:
        left, right = zip(*others)
        g = _factor_lags(left, right, nodes, lags)
        mirror = _factor_lags(right, left, nodes, lags)  # conj(m_j)
        terms += [(0, (g + mirror) / 2.0), (1, (g - mirror) / 2j)]
    for operator, term_lags in terms:
        part = _halves(term_lags)
        halves[operator, : len(part)] += part
    return halves if halves[1].any() else halves[:1]


def _factor_lags(u, v, nodes: np.ndarray, lags: np.ndarray):
    """sum_k u_k[i - j] conj(v_k[i + j]) for rows i = ``nodes`` and lags j: (M+1, rows).

    ``u`` and ``v`` are sequences of k factor rows. The sum is real when
    every row is, and None for k = 0. Lags past a row's reach read clipped
    indices; the fold gives them zero weight.
    """
    if not len(u):
        return None
    real = not any(a.imag.any() or b.imag.any() for a, b in zip(u, v))
    total = None
    for a, b in zip(u, v):
        if real:
            a, b = a.real, b.real
        at = nodes - lags
        g = np.take(a, at, mode="clip")
        at += 2 * lags
        mirror = np.take(b, at, mode="clip")
        del at
        if not real:
            np.conjugate(mirror, out=mirror)
        g *= mirror
        del mirror
        if total is None:
            total = g
        else:
            total += g
        del g
    return total


def _halves(lags: np.ndarray) -> np.ndarray:
    """One hermitian operator's lags g_j as (2, M+1, rows) 2 Re g_j over -2 Im g_j.

    Real lags have no odd half: they become (1, M+1, rows) 2 g_j in place.
    """
    if lags.dtype == float:
        lags *= 2.0
        return lags[None]
    halves = np.empty((2,) + lags.shape)
    np.multiply(lags.real, 2.0, out=halves[0])
    np.multiply(lags.imag, -2.0, out=halves[1])
    return halves


def _rest_lags(rest: np.ndarray, nodes: np.ndarray, reach: np.ndarray, lags: np.ndarray, halves):
    """Write the halves of a dense rest's H and A into ``halves`` (2, 2, M+1, rows)."""
    n = len(rest)
    # g_j = R[i - j, i + j] sits at flat index f = i*(n+1) - j*(n-1), its mirror
    # m_j = R[i + j, i - j] at 2*i*(n+1) - f, their real and imaginary parts at
    # 2f and 2f + 1 of the float view. Past a row's reach j is held at the
    # reach: zero-weighted, and exactly zero in A for a hermitian rest
    floats = rest.view(float).reshape(-1)
    h_lags, a_lags = halves  # even over odd lags of H, and of A
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


def wigner_of_pure_state(psi: WaveFunction, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Unit-mass Wigner quasi-density of a pure state.

    The symbol of the rank-one projector psi psi^H of the normalized psi,
    divided by 2 pi hbar so the result integrates to 1. Its lag products
    come straight from psi (no n^2 projector array), the result is exactly
    real, and a real psi has no odd lags: it meets the cos table alone.
    """
    nodes, p_out = _output_nodes(psi.axis, hbar, out_grid)
    projector = OperatorKernel(psi.axis, u=psi.normalize().values[None])
    rows = _kernel_rows(projector, nodes, p_out, hbar)
    rows /= 2.0 * np.pi * hbar
    return PhaseFunction(out_grid, rows)


def q_marginal(w: PhaseFunction) -> np.ndarray:
    """integral of W over p, one value per q node of the grid."""
    _check_grid_2d(w.grid)
    p_axis = w.grid.axes[1]
    return w.values.real @ _trapezoid_weights(p_axis.count, p_axis.spacing)


def trace_pair(a: OperatorKernel, b: OperatorKernel) -> complex:
    """Tr(A B) by double trapezoid: integral A(q, q') B(q', q) dq dq'.

    With A = U V^H + R_A, B = X Y^H + R_B and W the trapezoid weights,
    Tr(A W B W) = tr((V^H W X)(Y^H W U)) + tr(V^H W R_B W U)
    + tr(Y^H W R_A W X) + tr(R_A W R_B W). Factors pair through weighted
    inner products at O(k l n); each rest adds O(k n^2).
    """
    if a.axis != b.axis:
        raise ValueError("kernels live on different axes")
    w = _trapezoid_weights(a.axis.count, a.axis.spacing)
    a_left = a.v.conj() * w  # rows v_k^H W
    b_left = b.v.conj() * w
    total = np.sum((a_left @ b.u.T) * (b_left @ a.u.T).T)
    if b.values is not None:
        total += np.einsum("kq,qr,kr->", a_left, b.values, a.u * w)
    if a.values is not None:
        total += np.einsum("lq,qr,lr->", b_left, a.values, b.u * w)
        if b.values is not None:
            total += np.einsum("i,j,ij->", w, w, a.values * b.values.T)
    return complex(total)
