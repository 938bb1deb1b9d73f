"""Spectral (omega, p) representation: singular + regular observable kernels.

An observable is a pair of kernels on a truncated continuous-spectrum
grid: a singular part O(omega, p) diagonal in the energy labels, and a
regular part O(omega, omega', p, p') on the grid squared. Dirac deltas in
the labels discretize to (1/cell) Kronecker indicators, which keeps the
basis duality exact at the discrete level.

Array layout: singular kernels have one axis per label (omega first, then
the N-1 momentum axes); regular kernels carry the row block of axes
followed by the column block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .phase_space import (
    HERMITIAN_TOL,
    Grid,
    PhaseFunction,
    _frozen,
    _hermitian_defect,
    interior_max_abs,
    poisson_bracket,
)
from .weyl import OperatorKernel, WaveFunction

__all__ = [
    "SpectralGrid",
    "Observable",
    "MomentumMap",
    "make_observable",
    "adjoint",
    "energy_offdiagonal_weight",
    "commutator_with_H_vanishes",
    "symb_singular",
    "level_set_band",
    "singular_basis_observable",
    "regular_basis_observable",
    "synthesize_wavefunction",
    "synthesize_kernel",
]

MIN_SPECTRAL_COUNT = 16
#: largest max|(omega - omega') O_regular| of a commuting observable, relative to max|O| omega_max
COMMUTATOR_TOL = 1e-12


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid over the CSCO labels: omega in [0, omega_max] plus N-1 momentum axes."""

    omega_max: float
    omega_count: int
    momentum_axes: tuple[tuple[float, float, int], ...] = ()

    def __post_init__(self):
        if self.omega_max <= 0:
            raise ValueError("omega_max must be positive")
        if self.omega_count < MIN_SPECTRAL_COUNT:
            raise ValueError(f"omega count must be >= {MIN_SPECTRAL_COUNT}")
        axes = tuple((float(lo), float(hi), int(n)) for lo, hi, n in self.momentum_axes)
        for lo, hi, n in axes:
            if not hi > lo:
                raise ValueError("momentum axis range must satisfy max > min")
            if n < MIN_SPECTRAL_COUNT:
                raise ValueError(f"momentum axis count must be >= {MIN_SPECTRAL_COUNT}")
        object.__setattr__(self, "momentum_axes", axes)
        object.__setattr__(self, "omega_max", float(self.omega_max))
        object.__setattr__(self, "omega_count", int(self.omega_count))

    @property
    def n_dof(self) -> int:
        return 1 + len(self.momentum_axes)

    @property
    def omega(self) -> np.ndarray:
        return np.linspace(0.0, self.omega_max, self.omega_count)

    @property
    def d_omega(self) -> float:
        return self.omega_max / (self.omega_count - 1)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.omega_count,) + tuple(n for _, _, n in self.momentum_axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell(self) -> float:
        """Discrete measure d_omega * prod(d_p) of one grid cell."""
        out = self.d_omega
        for lo, hi, n in self.momentum_axes:
            out *= (hi - lo) / (n - 1)
        return out

    def recurrence_time(self, hbar: float) -> float:
        """Period 2 pi hbar / d_omega of every evolved pairing on this uniform grid.

        Phases exp(i d d_omega t / hbar) at integer offsets d all return to
        1 after one period, so a residual past half of it is aliased.
        """
        return 2.0 * np.pi * hbar / self.d_omega

    def coordinates(self) -> list[np.ndarray]:
        coords = [self.omega]
        coords.extend(np.linspace(lo, hi, n) for lo, hi, n in self.momentum_axes)
        return coords

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.coordinates(), indexing="ij"))


def _swap_blocks(regular: np.ndarray, half: int) -> np.ndarray:
    order = tuple(range(half, 2 * half)) + tuple(range(half))
    return np.transpose(regular, order)


def _node(index) -> tuple[int, ...]:
    """A grid node as an index tuple; a bare integer names an omega node."""
    return (index,) if np.isscalar(index) else tuple(index)


def _omega_blocks(regular: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """View a regular kernel as (omega, momenta, omega', momenta') with flat momenta."""
    mp = grid.n_points // grid.omega_count
    return regular.reshape(grid.omega_count, mp, grid.omega_count, mp)


def _sample_regular(grid: SpectralGrid, regular_fn) -> np.ndarray:
    """Regular kernel samples from None, an array or a callable; may be a read-only view.

    A callable receives open meshes (omega, omega', p_1, p_1', ...): each
    label varies along its own axis of the squared grid, so omega is a
    column and omega' a row. Profiles are then evaluated once per label
    value, and only the terms that mix labels grow to the full kernel
    size. The result is broadcast to the squared grid shape; the State and
    Observable constructors take the owned complex copy.
    """
    if regular_fn is None:
        return np.zeros(grid.shape * 2, dtype=complex)
    if not callable(regular_fn):
        return np.asarray(regular_fn)
    coords = grid.coordinates()
    meshes = np.meshgrid(*coords, *coords, indexing="ij", sparse=True)
    half = len(coords)
    args = [mesh for pair in zip(meshes[:half], meshes[half:]) for mesh in pair]
    return np.broadcast_to(regular_fn(*args), grid.shape * 2)


@dataclass(frozen=True, eq=False)
class Observable:
    """Singular kernel O(omega, p) plus regular kernel O(omega, omega', p, p')."""

    grid: SpectralGrid
    singular: np.ndarray
    regular: np.ndarray

    def __post_init__(self):
        singular = _frozen(self.singular, complex, self.grid.shape, "singular kernel")
        regular = _frozen(self.regular, complex, self.grid.shape * 2, "regular kernel")
        object.__setattr__(self, "singular", singular)
        object.__setattr__(self, "regular", regular)

    @property
    def self_adjoint(self) -> bool:
        scale = max(
            float(np.max(np.abs(self.singular))),
            float(np.max(np.abs(self.regular))),
            1e-300,
        )
        n = self.grid.n_points
        real_diag = float(np.max(np.abs(self.singular.imag)))
        herm = _hermitian_defect(self.regular.reshape(n, n))
        return real_diag <= HERMITIAN_TOL * scale and herm <= HERMITIAN_TOL * scale


def make_observable(grid: SpectralGrid, singular_fn=None, regular_fn=None) -> Observable:
    """Sample an observable from callables (or arrays) on the spectral grid.

    ``singular_fn`` receives the full label meshes (omega, p_1, ...).
    ``regular_fn`` receives open, broadcastable meshes (omega, omega', p_1,
    p_1', ...), with omega a column and omega' a row; it must combine them
    by broadcasting, and its result is broadcast to the squared grid.
    """
    if singular_fn is None:
        singular = np.zeros(grid.shape, dtype=complex)
    elif callable(singular_fn):
        singular = np.broadcast_to(singular_fn(*grid.meshes()), grid.shape)
    else:
        singular = np.asarray(singular_fn, dtype=complex)
    return Observable(grid, singular, _sample_regular(grid, regular_fn))


def adjoint(obs: Observable) -> Observable:
    """Conjugate the singular part, conjugate-transpose the regular part."""
    half = len(obs.grid.shape)
    return Observable(obs.grid, np.conj(obs.singular), np.conj(_swap_blocks(obs.regular, half)))


def energy_offdiagonal_weight(obs: Observable) -> float:
    """max |(omega - omega') * O_regular|, the discrete commutator size with H."""
    reg = _omega_blocks(obs.regular, obs.grid)
    omega = obs.grid.omega
    diff = omega[:, None, None, None] - omega[None, None, :, None]
    return float(np.max(np.abs(diff * reg)))


def commutator_with_H_vanishes(obs: Observable) -> bool:
    """True iff the observable commutes with the Hamiltonian on the grid.

    Singular kernels always commute; a regular kernel contributes
    (omega - omega') * O(omega, omega', ...) which must vanish.
    """
    scale = max(float(np.max(np.abs(obs.regular))), 1.0)
    return energy_offdiagonal_weight(obs) <= COMMUTATOR_TOL * scale * obs.grid.omega_max


@dataclass(frozen=True)
class MomentumMap:
    """Classical realization H(phi), P_i(phi) of the CSCO on a phase-space grid."""

    hamiltonian: PhaseFunction
    momenta: tuple[PhaseFunction, ...] = ()

    def __post_init__(self):
        for p in self.momenta:
            if p.grid != self.hamiltonian.grid:
                raise ValueError("all momentum-map functions must share one grid")
        object.__setattr__(self, "momenta", tuple(self.momenta))

    @property
    def grid(self) -> Grid:
        return self.hamiltonian.grid

    @property
    def n_dof(self) -> int:
        return 1 + len(self.momenta)

    def max_bracket_residual(self) -> float:
        """Largest interior |{F_i, F_j}| over all pairs; zero for a commuting family."""
        fns = (self.hamiltonian,) + self.momenta
        worst = 0.0
        for i in range(len(fns)):
            for j in range(i + 1, len(fns)):
                worst = max(worst, interior_max_abs(poisson_bracket(fns[i], fns[j])))
        return worst

    @classmethod
    def harmonic(cls, grid: Grid) -> "MomentumMap":
        """H = (q^2 + p^2) / 2 on an N = 1 grid; compact circular orbits."""
        if grid.n_dof != 1:
            raise ValueError("harmonic map is provided for N = 1")
        return cls(PhaseFunction.sample(grid, lambda q, p: 0.5 * (q**2 + p**2), label="H"))

    @classmethod
    def translation(cls, grid: Grid) -> "MomentumMap":
        """H = p on an N = 1 grid; the conjugate coordinate q is unbounded."""
        if grid.n_dof != 1:
            raise ValueError("translation map is provided for N = 1")
        return cls(PhaseFunction.sample(grid, lambda q, p: p + 0.0 * q, label="H"))


def _compose_on_phase_space(
    table: np.ndarray, grid: SpectralGrid, momentum_map: MomentumMap, label: str = ""
) -> PhaseFunction:
    """Evaluate table(H(phi), P(phi)) by multilinear interpolation.

    Range excursions beyond the spectral grid raise; values are never
    clamped or extrapolated.
    """
    if momentum_map.n_dof != grid.n_dof:
        raise ValueError(
            f"momentum map supplies {momentum_map.n_dof} labels, grid has {grid.n_dof}"
        )
    coords = grid.coordinates()
    fields = [momentum_map.hamiltonian.values.real] + [
        p.values.real for p in momentum_map.momenta
    ]
    eps = 1e-9
    for axis_values, field, name in zip(
        coords, fields, ["H"] + [f"P_{i}" for i in range(len(momentum_map.momenta))]
    ):
        lo, hi = axis_values[0], axis_values[-1]
        span = hi - lo
        if field.min() < lo - eps * span or field.max() > hi + eps * span:
            raise ValueError(
                f"{name}(phi) range [{field.min():.4g}, {field.max():.4g}] leaves the "
                f"spectral axis [{lo:.4g}, {hi:.4g}]"
            )
    table = np.asarray(table)
    if grid.n_dof == 1:
        values = np.interp(fields[0], coords[0], table.real).astype(complex)
        if np.iscomplexobj(table):
            values += 1j * np.interp(fields[0], coords[0], table.imag)
    else:
        interp = RegularGridInterpolator(
            coords, np.asarray(table), method="linear", bounds_error=False, fill_value=None
        )
        points = np.stack([f.ravel() for f in fields], axis=-1)
        values = interp(points).reshape(momentum_map.grid.shape)
    return PhaseFunction(momentum_map.grid, values, label=label)


def symb_singular(obs: Observable, momentum_map: MomentumMap, out_grid: Grid) -> PhaseFunction:
    """Phase-space symbol of the singular part: O(H(phi), P(phi)).

    The regular part is ignored; the map's functions must live on
    ``out_grid`` and stay inside the spectral ranges.
    """
    if momentum_map.grid != out_grid:
        raise ValueError("momentum map must be sampled on the output grid")
    return _compose_on_phase_space(obs.singular, obs.grid, momentum_map, label="O_S")


def level_set_band(
    momentum_map: MomentumMap, grid: SpectralGrid, index: tuple[int, ...] | int
) -> PhaseFunction:
    """Histogram realization of the delta-kernel symbol at one grid node.

    Each phase-space cell is assigned to its nearest spectral node by
    (H, P) value; the band at ``index`` carries weight 1/cell so the
    momentum-space integration prescription is exact under this measure.
    """
    idx = _node(index)
    if len(idx) != grid.n_dof:
        raise ValueError(f"index needs {grid.n_dof} components")
    coords = grid.coordinates()
    fields = [momentum_map.hamiltonian.values.real] + [
        p.values.real for p in momentum_map.momenta
    ]
    mask = np.ones(momentum_map.grid.shape, dtype=bool)
    for axis_values, field, i in zip(coords, fields, idx):
        spacing = axis_values[1] - axis_values[0]
        nearest = np.rint((field - axis_values[0]) / spacing).astype(int)
        nearest = np.clip(nearest, 0, len(axis_values) - 1)
        mask &= nearest == i
    values = mask.astype(complex) / grid.cell
    return PhaseFunction(momentum_map.grid, values, label="delta_band")


def singular_basis_observable(grid: SpectralGrid, index: tuple[int, ...] | int) -> Observable:
    """Discrete delta-column: indicator / cell at one node, regular part zero."""
    singular = np.zeros(grid.shape, dtype=complex)
    singular[_node(index)] = 1.0 / grid.cell
    return Observable(grid, singular, np.zeros(grid.shape * 2, dtype=complex))


def regular_basis_observable(
    grid: SpectralGrid, row: tuple[int, ...] | int, col: tuple[int, ...] | int
) -> Observable:
    """Discrete delta at one (row, col) pair of the regular kernel."""
    regular = np.zeros(grid.shape * 2, dtype=complex)
    regular[_node(row) + _node(col)] = 1.0 / grid.cell**2
    return Observable(grid, np.zeros(grid.shape, dtype=complex), regular)


def _plane_wave_matrix(grid: SpectralGrid, q: np.ndarray, hbar: float) -> np.ndarray:
    """E[i, k] = exp(i omega_k q_i / hbar) * w_k * d_omega / sqrt(2 pi hbar)."""
    weights = np.ones(grid.omega_count)
    weights[0] = weights[-1] = 0.5
    phases = np.exp(1j * np.outer(q, grid.omega) / hbar)
    return phases * (weights * grid.d_omega / np.sqrt(2.0 * np.pi * hbar))


def synthesize_wavefunction(grid: SpectralGrid, coeffs: np.ndarray, axis, hbar: float) -> WaveFunction:
    """Position-space wavefunction of spectral coefficients in the translation realization.

    Uses generalized eigenfunctions u_w(q) = exp(i w q / hbar) / sqrt(2 pi hbar)
    of the momentum operator, so psi(q) = integral c(w) u_w(q) dw.
    """
    if grid.momentum_axes:
        raise ValueError("plane-wave synthesis is provided for N = 1 spectral grids")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != grid.shape:
        raise ValueError("coefficient array must match the spectral grid shape")
    q = np.linspace(float(axis[0]), float(axis[1]), int(axis[2]))
    values = _plane_wave_matrix(grid, q, hbar) @ coeffs
    return WaveFunction((float(axis[0]), float(axis[1]), int(axis[2])), values)


def synthesize_kernel(grid: SpectralGrid, regular: np.ndarray, axis, hbar: float) -> OperatorKernel:
    """Position-space kernel of a regular spectral kernel in the translation realization.

    K(q, q') = (1 / 2 pi hbar) * double integral of O(w, w')
    exp(i (w q - w' q') / hbar) dw dw'.
    """
    if grid.momentum_axes:
        raise ValueError("plane-wave synthesis is provided for N = 1 spectral grids")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    regular = np.asarray(regular, dtype=complex)
    if regular.shape != grid.shape * 2:
        raise ValueError("regular kernel must live on the squared spectral grid")
    q = np.linspace(float(axis[0]), float(axis[1]), int(axis[2]))
    e = _plane_wave_matrix(grid, q, hbar)
    values = e @ regular @ e.conj().T
    return OperatorKernel((float(axis[0]), float(axis[1]), int(axis[2])), values)
