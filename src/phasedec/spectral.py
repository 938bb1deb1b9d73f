"""Spectral (omega) representation: singular + regular observable kernels.

An observable is a pair of kernels on a truncated continuous-spectrum
grid of the energy label omega: a singular part O(omega), diagonal in the
label, and a regular part O(omega, omega') on the grid squared. Dirac
deltas in the label discretize to (1/d_omega) Kronecker indicators, which
keeps the basis duality exact at the discrete level.

Array layout: a singular kernel is one array over omega. A regular kernel
is never stored as an array: it is a :class:`CoherenceTerms`, a short sum
of terms a_k(omega) conj(b_k(omega')) c_k(omega - omega'). ``a`` and ``b``
live on the n grid nodes and ``c`` on the 2n - 1 node offsets, so
building and checking a kernel costs O(k n), and pairing k state terms
with l observable terms O(k l n log n), instead of O(n^2). Any hermitian
kernel is such a sum (its eigenvectors with c = 1); opaque (w, w')
callables and dense arrays are not accepted, and the package forms no
(n, n) array of a kernel outside ``decoherence.evolve_pairing``'s blocks.
In the position kernel, ``synthesize_kernel`` takes real multiples of
separable hermitian terms alone (a = lam b with real lam, c = 1), each one
factor of weight lam synthesized from its profile b: no n_q^2 array is
formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .phase_space import Axis, Grid, PhaseFunction, _cos_sin, _frozen, _shown, _trapezoid_weights
from .weyl import OperatorKernel, WaveFunction

__all__ = [
    "SpectralGrid",
    "CoherenceTerms",
    "Observable",
    "MomentumMap",
    "make_observable",
    "symb_singular",
    "singular_basis_observable",
    "regular_basis_observable",
    "plane_wave_matrix",
    "synthesize_wavefunction",
    "synthesize_kernel",
]

MIN_SPECTRAL_COUNT = 16
#: largest max|a - lam b| / max|a| at which ``synthesize_kernel`` takes a term
#: a conj(b) as lam b conj(b): the relative bound of ``states.HERMITIAN_TOL``
MULTIPLE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid over the energy label: omega in [0, omega_max] at ``omega_count`` nodes.

    The step d_omega must have a finite positive square and inverse
    square: delta functionals divide by d_omega^2 and pairings multiply by it.
    """

    omega_max: float
    omega_count: int

    def __post_init__(self):
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.omega_count < MIN_SPECTRAL_COUNT:
            raise ValueError(f"omega count must be >= {MIN_SPECTRAL_COUNT}")
        object.__setattr__(self, "omega_max", float(self.omega_max))
        object.__setattr__(self, "omega_count", int(self.omega_count))
        square = self.d_omega * self.d_omega
        if not (0.0 < square < math.inf and 1.0 / square < math.inf):
            raise ValueError(
                f"omega_max {self.omega_max!r} over {_shown(self.omega_count - 1)} steps gives "
                f"d_omega = {self.d_omega!r}, whose square or inverse square is not a finite "
                "positive float"
            )

    @property
    def omega(self) -> np.ndarray:
        return np.linspace(0.0, self.omega_max, self.omega_count)

    @property
    def d_omega(self) -> float:
        return self.omega_max / (self.omega_count - 1)

    @property
    def nu(self) -> np.ndarray:
        """Label offsets omega - omega' at d = -(n-1)..(n-1) steps, index d + n - 1."""
        n = self.omega_count
        return np.arange(1 - n, n) * self.d_omega

    @property
    def shape(self) -> tuple[int]:
        return (self.omega_count,)

    @property
    def n_points(self) -> int:
        return self.omega_count

    @property
    def offset_shape(self) -> tuple[int]:
        return (2 * self.omega_count - 1,)

    def recurrence_time(self, hbar: float) -> float:
        """Period 2 pi hbar / d_omega of every evolved pairing on this uniform grid.

        Phases exp(i d d_omega t / hbar) at integer offsets d all return to
        1 after one period, so a residual past half of it is aliased.
        """
        return 2.0 * np.pi * hbar / self.d_omega


@dataclass(frozen=True, eq=False)
class CoherenceTerms:
    """Regular kernel K(w, w') = sum_k a_k(w) conj(b_k(w')) c_k(w - w') on a spectral grid.

    ``a`` and ``b`` have shape ``(k, n)`` and ``c`` has shape ``(k, 2n - 1)``:
    ``c[k, d + n - 1]`` holds the factor at node offset d. ``c`` None
    means c = 1. With k = 0 the kernel is zero.
    """

    grid: SpectralGrid
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.a)
        shape = (k,) + self.grid.shape
        c = np.ones((k,) + self.grid.offset_shape) if self.c is None else self.c
        object.__setattr__(self, "a", _frozen(self.a, complex, shape, "term profiles a"))
        object.__setattr__(self, "b", _frozen(self.b, complex, shape, "term profiles b"))
        offsets = (k,) + self.grid.offset_shape
        object.__setattr__(self, "c", _frozen(c, complex, offsets, "term offset symbols c"))

    def _block(self, rows: slice, cols: slice) -> np.ndarray:
        """The kernel entries K[rows, cols] as a dense array: O(k rows cols).

        Built as zeros plus each term a[rows] conj(b[cols]) c[rows - cols],
        in term order, so a block holds the same bits as that part of the
        full array (``tests/oracles.py``'s ``dense_terms``). Every dense array
        of kernel entries is built here.
        """
        n = self.grid.omega_count
        nodes = np.arange(n)
        offset = nodes[rows, None] - nodes[None, cols] + n - 1
        out = np.zeros(offset.shape, dtype=complex)
        for a, b, c in zip(self.a, self.b, self.c):
            out += a[rows, None] * b[cols].conj()[None, :] * c[offset]
        return out

    def hermitian_defect_bound(self) -> float:
        """An upper bound on max|K - K^H| over the kernel's (n, n) entries, in O(k n).

        Per term, with real lam = Re<b, a> / <b, b> and e = a - lam b, and
        c~(d) = conj(c(-d)), the term minus its adjoint is
        lam b(x) conj(b(x')) (c - c~)(d) + e(x) conj(b(x')) c(d) - b(x) conj(e(x')) c~(d),
        so it is at most |lam| max|b|^2 max|c - c~| + 2 max|e| max|b| max|c|.
        The bound is exact for one term a = (lam + i mu) b with c = 1, and
        zero for a = lam b with c = c~; a hermitian sum of non-hermitian
        terms is not recognised.
        """
        bound = 0.0
        for a, b, c in zip(self.a, self.b, self.c):
            lam = _real_multiple(a, b)
            peak_b = float(np.max(np.abs(b)))
            skew = float(np.max(np.abs(c - c[::-1].conj())))
            spread = float(np.max(np.abs(a - lam * b)))
            bound += abs(lam) * peak_b**2 * skew + 2.0 * spread * peak_b * float(np.max(np.abs(c)))
        return bound

    def max_abs_floor(self) -> float:
        """A lower bound on max|K|: |K| on the diagonal and at each term's argmax|a|, argmax|b|."""
        if len(self.a) == 0:
            return 0.0
        n = self.grid.omega_count
        diagonal = np.einsum("kw,kw,k->w", self.a, self.b.conj(), self.c[:, n - 1])
        floor = float(np.max(np.abs(diagonal)))
        for a, b in zip(self.a, self.b):
            w, wp = np.argmax(np.abs(a)), np.argmax(np.abs(b))
            entry = np.sum(self.a[:, w] * self.b[:, wp].conj() * self.c[:, w - wp + n - 1])
            floor = max(floor, float(abs(entry)))
        return floor


def _real_multiple(a: np.ndarray, b: np.ndarray) -> float:
    """The real lam nearest a / b in the mean square, Re<b, a> / <b, b>; 0 for b = 0."""
    norm = float(np.vdot(b, b).real)
    return float(np.vdot(b, a).real) / norm if norm > 0.0 else 0.0


def _regular_terms(grid: SpectralGrid, kernel) -> CoherenceTerms:
    """The terms of a regular kernel given as None, CoherenceTerms or a kernels factory result.

    A factory result is read only through its ``profile`` and ``symbol``
    attributes, so a wrapped copy of it works as well as the original. It
    becomes one term profile(w) conj(profile(w')) symbol(w - w'), with the
    profile sampled on ``grid.omega`` and the symbol on the offsets
    ``grid.nu``; a None symbol means 1.
    """
    if kernel is None:
        empty = np.zeros((0,) + grid.shape)
        return CoherenceTerms(grid, empty, empty)
    if isinstance(kernel, CoherenceTerms):
        if kernel.grid != grid:
            raise ValueError("regular kernel terms live on a different spectral grid")
        return kernel
    profile = getattr(kernel, "profile", None)
    if not callable(profile):
        raise TypeError(
            "a regular kernel is None, CoherenceTerms or a phasedec.kernels factory result; "
            "opaque callables and arrays are not accepted"
        )
    a = np.broadcast_to(profile(grid.omega), grid.shape)[None]
    symbol = getattr(kernel, "symbol", None)
    if symbol is not None:
        symbol = np.broadcast_to(symbol(grid.nu), grid.offset_shape)[None]
    return CoherenceTerms(grid, a, a, symbol)


def _fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: a length whose prime factors are all <= 11.

    pocketfft transforms such lengths fastest; the tests check the value
    against the fast complex-transform lengths of a reference FFT library.
    """
    while True:
        m = n
        for prime in (2, 3, 5, 7, 11):
            while m % prime == 0:
                m //= prime
        if m == 1:
            return n
        n += 1


def _coherence_weights(rho: CoherenceTerms, obs: CoherenceTerms) -> np.ndarray:
    """Regular pairing weights w_d grouped by the frequency offset d = omega - omega'.

    Returns w[d + n-1] for d in -(n-1)..(n-1), with
    w_d = d_omega^2 sum over (w, w') with offset d of rho(w, w') obs(w', w),
    so the regular pairing is sum_d w_d and its evolution
    sum_d w_d exp(i d d_omega t / hbar). For a state term (a, b, c) and an
    observable term (A, B, C), rho(w, w') obs(w', w) = u(w) v(w') c(d) C(-d)
    with u = a conj(B) and v = conj(b) A; the sum over w of u(w) v(w - d)
    is one cross-correlation, done by FFT. Costs O(k l n log n) for k and
    l terms.
    """
    grid = rho.grid
    offsets = 2 * grid.omega_count - 1
    k, l = len(rho.a), len(obs.a)
    if k == 0 or l == 0:
        return np.zeros(offsets, dtype=complex)
    u = (rho.a[:, None] * obs.b[None].conj()).reshape(k * l, -1)
    v = (rho.b[:, None].conj() * obs.a[None]).reshape(k * l, -1)
    # sum_w u(w) v(w - d) is the full convolution of u with v reversed, at d + n - 1
    size = _fast_len(offsets)
    spectrum = fft.fft(u, size, axis=1) * fft.fft(v[:, ::-1], size, axis=1)
    corr = fft.ifft(spectrum, axis=1)[:, :offsets].reshape(k, l, offsets)
    # obs.c reversed holds C(-d) at the slot of d
    weights = (rho.c[:, None] * obs.c[:, ::-1][None] * corr).sum(axis=(0, 1))
    return weights * grid.d_omega**2


@dataclass(frozen=True, eq=False)
class Observable:
    """Singular kernel O(omega) plus regular kernel terms O(omega, omega')."""

    grid: SpectralGrid
    singular: np.ndarray
    regular: CoherenceTerms | None = None

    def __post_init__(self):
        singular = _frozen(self.singular, complex, self.grid.shape, "singular kernel")
        object.__setattr__(self, "singular", singular)
        object.__setattr__(self, "regular", _regular_terms(self.grid, self.regular))


def make_observable(grid: SpectralGrid, singular_fn=None, regular_fn=None) -> Observable:
    """Sample an observable on the spectral grid.

    ``singular_fn`` is a callable of the omega nodes or an array of
    samples. ``regular_fn`` is None, a :class:`CoherenceTerms`, or a
    :mod:`phasedec.kernels` factory result (read through its ``profile``
    and ``symbol`` attributes).
    """
    if singular_fn is None:
        singular = np.zeros(grid.shape, dtype=complex)
    elif callable(singular_fn):
        singular = np.broadcast_to(singular_fn(grid.omega), grid.shape)
    else:
        singular = np.asarray(singular_fn, dtype=complex)
    return Observable(grid, singular, regular_fn)


@dataclass(frozen=True)
class MomentumMap:
    """Classical realization H(phi) of the energy label on a phase-space grid."""

    hamiltonian: PhaseFunction

    @property
    def grid(self) -> Grid:
        return self.hamiltonian.grid

    @classmethod
    def translation(cls, grid: Grid) -> "MomentumMap":
        """H = p on an N = 1 grid; the conjugate coordinate q is unbounded."""
        if grid.n_dof != 1:
            raise ValueError("translation map is provided for N = 1")
        return cls(PhaseFunction.sample(grid, lambda q, p: p, label="H"))


def _compose_on_phase_space(
    table: np.ndarray, grid: SpectralGrid, momentum_map: MomentumMap, label: str = ""
) -> PhaseFunction:
    """Evaluate table(H(phi)) by linear interpolation along omega.

    Range excursions beyond the spectral grid raise; values are never
    clamped or extrapolated.
    """
    omega = grid.omega
    field = momentum_map.hamiltonian.values.real
    lo, hi = omega[0], omega[-1]
    span = hi - lo
    eps = 1e-9
    if field.min() < lo - eps * span or field.max() > hi + eps * span:
        raise ValueError(
            f"H(phi) range [{field.min():.4g}, {field.max():.4g}] leaves the "
            f"spectral axis [{lo:.4g}, {hi:.4g}]"
        )
    table = np.asarray(table)
    values = np.interp(field, omega, table.real)
    if table.imag.any():
        values = values + 1j * np.interp(field, omega, table.imag)
    return PhaseFunction(momentum_map.grid, values, label=label)


def symb_singular(obs: Observable, momentum_map: MomentumMap, out_grid: Grid) -> PhaseFunction:
    """Phase-space symbol of the singular part: O(H(phi)).

    The regular part is ignored; the map's Hamiltonian must live on
    ``out_grid`` and stay inside the spectral range.
    """
    if momentum_map.grid != out_grid:
        raise ValueError("momentum map must be sampled on the output grid")
    return _compose_on_phase_space(obs.singular, obs.grid, momentum_map, label="O_S")


def singular_basis_observable(grid: SpectralGrid, index: int) -> Observable:
    """Discrete delta-column: indicator / d_omega at one node, regular part zero."""
    singular = np.zeros(grid.shape, dtype=complex)
    singular[index] = 1.0 / grid.d_omega
    return Observable(grid, singular)


def _delta_term(grid: SpectralGrid, row: int, col: int, value: float) -> CoherenceTerms:
    """One term that is ``value`` at (row, col) of the regular kernel and zero elsewhere."""
    a = np.zeros((1,) + grid.shape)
    b = np.zeros((1,) + grid.shape)
    a[0, row] = value
    b[0, col] = 1.0
    return CoherenceTerms(grid, a, b)


def regular_basis_observable(grid: SpectralGrid, row: int, col: int) -> Observable:
    """Discrete delta at one (row, col) pair of the regular kernel."""
    regular = _delta_term(grid, row, col, 1.0 / grid.d_omega**2)
    return Observable(grid, np.zeros(grid.shape, dtype=complex), regular)


def plane_wave_matrix(grid: SpectralGrid, axis, hbar: float) -> np.ndarray:
    """E[i, k] = exp(i omega_k q_i / hbar) * w_k / sqrt(2 pi hbar), w the omega trapezoid weights.

    The q_i are the nodes of ``axis``, any (lo, hi, count) triple. The
    rows are the generalized momentum eigenfunctions u_w(q) = exp(i w q / hbar)
    / sqrt(2 pi hbar) of the translation realization, weighted for the
    omega integral; ``synthesize_wavefunction`` and ``synthesize_kernel``
    take this table, so one table serves every synthesis on (grid, axis, hbar).
    Column k is the k-th power of exp(i d_omega q / hbar), from the one
    cos/sin table builder, which refuses a d_omega max|q| / hbar that overflows.
    ``_cos_sin`` writes each power straight into its column of E, cos in
    the real parts and sin in the imaginary parts, so the call allocates E
    and nothing of its size besides. A separate (2 n, n_q) table and its
    transposing copy doubled the memory the call touched, and so the pages
    it faulted in whenever the heap had been trimmed between calls: 693 per
    ``pairing-equivalence`` run at n_q = 385 and n = 241.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    axis, n = Axis(*axis), grid.omega_count
    table = np.empty((axis.count, n), dtype=complex)
    _cos_sin(grid.d_omega / hbar, n, axis.nodes(), 2, "q", out=table.T)
    table *= _trapezoid_weights(grid.omega_count, grid.d_omega) / np.sqrt(2.0 * np.pi * hbar)
    return table


def _table_axis(grid: SpectralGrid, axis, table: np.ndarray) -> Axis:
    """``axis`` as an :class:`Axis`, once ``table`` has the shape of its plane-wave matrix."""
    axis = Axis(*axis)
    shape = (axis.count, grid.omega_count)
    if np.shape(table) != shape:
        raise ValueError(f"plane-wave table must have shape {shape}, got {np.shape(table)}")
    return axis


def synthesize_wavefunction(grid: SpectralGrid, coeffs, axis, table: np.ndarray) -> WaveFunction:
    """Position-space wavefunction psi(q) = integral c(w) u_w(q) dw of spectral coefficients.

    ``table`` is ``plane_wave_matrix(grid, axis, hbar)``, so psi = E c.
    """
    axis = _table_axis(grid, axis, table)
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != grid.shape:
        raise ValueError("coefficient array must match the spectral grid shape")
    return WaveFunction(axis, table @ coeffs)


def synthesize_kernel(
    grid: SpectralGrid, regular: CoherenceTerms, axis, table: np.ndarray
) -> OperatorKernel:
    """Position-space kernel of separable hermitian spectral terms in the translation realization.

    K(q, q') = (1 / 2 pi hbar) * double integral of O(w, w')
    exp(i (w q - w' q') / hbar) dw dw', with ``table`` the plane-wave matrix
    E = ``plane_wave_matrix(grid, axis, hbar)``. Each term must be
    lam_k b_k(w) conj(b_k(w')) with real lam_k: offset symbol c = 1 and
    a = lam b, as ``make_observable`` builds from
    ``kernels.separable_kernel`` (lam = 1) and a real combination of such
    observables holds. Its factor is u_k = E b_k with weight s_k = lam_k =
    Re<b_k, a_k> / <b_k, b_k>, at O(k n n_q), and no n^2 or n_q^2 array is
    formed. A term with another c, or whose a is farther than
    ``MULTIPLE_TOL`` max|a| from lam b (a complex multiple, or another
    profile), is refused with ValueError.
    """
    axis = _table_axis(grid, axis, table)
    if regular.grid != grid:
        raise ValueError("regular kernel terms must live on the given spectral grid")
    weights = []
    for k, (a, b, c) in enumerate(zip(regular.a, regular.b, regular.c)):
        if not np.all(c == 1.0):
            raise ValueError(f"synthesize_kernel needs separable terms: term {k}'s offset symbol c is not 1")
        weights.append(_real_multiple(a, b))
        if b.any() and np.max(np.abs(a - weights[-1] * b)) > MULTIPLE_TOL * np.max(np.abs(a)):
            raise ValueError(
                f"synthesize_kernel needs terms with a = lam b, lam real: term {k}'s profile a is not "
                "a real multiple of b"
            )
    return OperatorKernel(axis, u=(table @ regular.b.T).T, s=weights)
