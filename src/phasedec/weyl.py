"""Wigner transforms of operator kernels and the position marginal.

Conventions, applied everywhere and asserted by tests:

* ``wigner_of_kernel`` maps a position-representation kernel K(q, q') to
  the symbol f(q, p) = 2 * integral K(q-y, q+y) exp(2i p y / hbar) dy.
  The identity kernel maps to 1, position to q, momentum to p.
* ``wigner_of_pure_state`` divides by 2*pi*hbar so the state's
  quasi-density integrates to 1 over phase space.
* With those two choices, integrate(W_state * symbol_observable) equals
  the kernel-space trace pairing.

The oscillatory y-integral is a direct trapezoid sum on the kernel's own
spacing; callers must keep max|p| * dy / hbar below pi/4 so the phase is
well sampled, and every output q must be a kernel node (both checked on
entry). The samples K(q-y, q+y) are then read off the kernel's
anti-diagonals: one weighted gather of all rows, times one phase table
shared by every row, in a single matmul.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from .phase_space import Grid, PhaseFunction, _frozen

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


def _axis_coords(axis: tuple[float, float, int]) -> np.ndarray:
    lo, hi, n = axis
    return np.linspace(lo, hi, int(n))


@dataclass(frozen=True, eq=False)
class OperatorKernel:
    """Position-representation kernel K(q, q') on a uniform q axis."""

    axis: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self):
        lo, hi, n = self.axis
        if not hi > lo or int(n) < 8:
            raise ValueError("kernel axis needs max > min and count >= 8")
        object.__setattr__(self, "axis", (float(lo), float(hi), int(n)))
        values = _frozen(self.values, complex, (int(n),) * 2, "kernel values")
        object.__setattr__(self, "values", values)

    @property
    def spacing(self) -> float:
        lo, hi, n = self.axis
        return (hi - lo) / (n - 1)

    @classmethod
    def from_wavefunction(cls, psi: "WaveFunction") -> "OperatorKernel":
        return cls(psi.axis, np.outer(psi.values, psi.values.conj()))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Complex wavefunction samples on a uniform q axis."""

    axis: tuple[float, float, int]
    values: np.ndarray

    def __post_init__(self):
        lo, hi, n = self.axis
        if not hi > lo or int(n) < 8:
            raise ValueError("wavefunction axis needs max > min and count >= 8")
        object.__setattr__(self, "axis", (float(lo), float(hi), int(n)))
        values = _frozen(self.values, complex, (int(n),), "wavefunction samples")
        object.__setattr__(self, "values", values)

    @property
    def q(self) -> np.ndarray:
        return _axis_coords(self.axis)

    @property
    def spacing(self) -> float:
        lo, hi, n = self.axis
        return (hi - lo) / (n - 1)

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.trapezoid(np.abs(self.values) ** 2, dx=self.spacing)))

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
    q = _axis_coords(tuple(axis))
    sigma = np.sqrt(hbar)
    x = q / sigma
    coeffs = np.zeros(level + 1)
    coeffs[level] = 1.0
    values = hermval(x, coeffs) * np.exp(-0.5 * x**2)
    return WaveFunction(tuple(axis), values).normalize()


def gaussian_state(axis, center: float = 0.0, sigma: float = 1.0) -> WaveFunction:
    """Normalized Gaussian wave packet exp(-(q-center)^2 / (2 sigma^2))."""
    q = _axis_coords(tuple(axis))
    values = np.exp(-((q - center) ** 2) / (2.0 * sigma**2))
    return WaveFunction(tuple(axis), values).normalize()


def _check_grid_2d(grid: Grid):
    if grid.n_dof != 1:
        raise ValueError("Wigner transforms are implemented for N = 1 (2-axis grids)")


def _nyquist_guard(p_max: float, dy: float, hbar: float):
    if p_max * dy / hbar >= np.pi / 4.0:
        raise ValueError(
            f"phase step max|p|*dy/hbar = {p_max * dy / hbar:.3f} exceeds pi/4; "
            "refine the kernel axis or shrink the momentum range"
        )


def wigner_of_kernel(kernel: OperatorKernel, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Phase-space symbol of an operator kernel.

    f(q, p) = 2 * integral over y of K(q-y, q+y) exp(2i p y / hbar), with
    y spanning the largest symmetric window the kernel support allows at
    each q. Hermitian kernels give real symbols up to quadrature noise.

    Every output q must lie within 1e-9 cells of a kernel node, or
    ValueError is raised. The integrand is then gathered straight from the
    kernel's anti-diagonals and all rows share one phase table, so the
    whole transform is one matmul.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    _check_grid_2d(out_grid)
    q_out = out_grid.coordinate(0)
    p_out = out_grid.coordinate(1)
    k_lo, k_hi, _ = kernel.axis
    if q_out[0] < k_lo - 1e-12 or q_out[-1] > k_hi + 1e-12:
        raise ValueError("output q-range must lie inside the kernel q-range")
    h = kernel.spacing
    _nyquist_guard(float(np.max(np.abs(p_out))), h, hbar)

    offsets = (q_out - k_lo) / h
    nodes = np.rint(offsets)
    if not np.all(np.abs(offsets - nodes) <= 1e-9):
        raise ValueError("output q values must be kernel q nodes")
    return PhaseFunction(out_grid, _wigner_on_nodes(kernel, nodes.astype(int), p_out, hbar))


def _wigner_on_nodes(kernel: OperatorKernel, nodes: np.ndarray, p_out: np.ndarray, hbar: float):
    """Symbol rows at kernel node indices ``nodes``: gather, weight, one matmul.

    A separate frame, so the gathered samples and the phase table are freed
    before ``PhaseFunction`` copies the result.
    """
    n = kernel.axis[2]
    h = kernel.spacing
    reach = np.minimum(nodes, n - 1 - nodes)
    m = int(reach.max())
    j = np.arange(-m, m + 1)
    # K[i - j, i + j] sits at flat index i*(n+1) - j*(n-1); entries past a
    # row's reach are clipped reads that the zero weight below discards
    gathered = np.take(kernel.values, nodes[:, None] * (n + 1) - j * (n - 1), mode="clip")
    # trapezoid weights: 1 inside the reach, 1/2 at its ends, 0 past it
    gathered[np.abs(j) > reach[:, None]] = 0.0
    gathered[np.abs(j) == reach[:, None]] *= 0.5
    gathered[reach == 0] = 0.0
    phases = np.exp(2j * np.outer(j * h, p_out) / hbar)
    return 2.0 * h * (gathered @ phases)


def wigner_of_pure_state(psi: WaveFunction, hbar: float, out_grid: Grid) -> PhaseFunction:
    """Unit-mass Wigner quasi-density of a pure state.

    Normalizes psi, forms the projector kernel, and rescales the symbol by
    1/(2 pi hbar) so the result integrates to 1.
    """
    kernel = OperatorKernel.from_wavefunction(psi.normalize())
    symbol = wigner_of_kernel(kernel, hbar, out_grid)
    return symbol.with_values(symbol.values / (2.0 * np.pi * hbar))


def q_marginal(w: PhaseFunction) -> np.ndarray:
    """integral of W over p, one value per q node of the grid."""
    _check_grid_2d(w.grid)
    return np.trapezoid(w.values.real, dx=w.grid.spacing(1), axis=1)


def trace_pair(a: OperatorKernel, b: OperatorKernel) -> complex:
    """Tr(A B) by double trapezoid: integral A(q, q') B(q', q) dq dq'."""
    if a.axis != b.axis:
        raise ValueError("kernels live on different axes")
    n = a.axis[2]
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    integrand = a.values * b.values.T
    return complex(np.einsum("i,j,ij->", w, w, integrand) * a.spacing**2)
