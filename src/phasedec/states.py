"""State functionals over the singular + regular observable algebra.

A state is a pair of coefficient kernels on a spectral grid: a real
diagonal rho(omega) carrying probabilities (nonnegative, unit discrete
mass) and a hermitian regular kernel rho(omega, omega'), held as
:class:`~phasedec.spectral.CoherenceTerms` (a short sum of terms
a(w) conj(b(w')) c(w - w'), never a dense array). Admissibility is
enforced by :func:`make_state`; the dataclass itself is a plain value
holder so basis functionals and test fixtures can be built directly.

Two pairing prescriptions coexist on purpose. Regular pairings integrate
over all of phase space (or equivalently sum both spectral kernels);
singular pairings integrate over the energy label H only. The
full-phase-space integral of a singular (x) singular pairing grows with
the volume of the conjugate coordinates and has no finite limit, which is
exactly why the restricted prescription exists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .phase_space import Grid, PhaseFunction, _frozen, integrate
from .spectral import (
    CoherenceTerms,
    MomentumMap,
    Observable,
    SpectralGrid,
    _coherence_weights,
    _compose_on_phase_space,
    _delta_term,
    _regular_terms,
)

__all__ = [
    "AdmissibilityError",
    "State",
    "ClassicalDensity",
    "make_state",
    "pure_state",
    "random_admissible_state",
    "pair",
    "pair_regular_symbols",
    "pair_singular_symbols",
    "singular_symbol",
    "to_classical_density",
    "singular_basis_functional",
    "regular_basis_functional",
]

logger = logging.getLogger(__name__)

NEGATIVITY_TOL = 1e-12
#: largest max|K - K^H| a regular state kernel may have, relative to its own scale
HERMITIAN_TOL = 1e-12
#: rank of the regular kernel drawn by random_admissible_state
RANDOM_STATE_RANK = 3


class AdmissibilityError(ValueError):
    """The proposed coefficients cannot represent probabilities."""


@dataclass(frozen=True, eq=False)
class State:
    """Coefficient kernels of a functional: diagonal + regular terms (None: no term)."""

    grid: SpectralGrid
    diagonal: np.ndarray
    regular: CoherenceTerms | None = None

    def __post_init__(self):
        diagonal = _frozen(self.diagonal, float, self.grid.shape, "diagonal")
        object.__setattr__(self, "diagonal", diagonal)
        object.__setattr__(self, "regular", _regular_terms(self.grid, self.regular))

    @property
    def diagonal_mass(self) -> float:
        return float(np.sum(self.diagonal) * self.grid.cell)


@dataclass(frozen=True, eq=False)
class ClassicalDensity:
    """Nonnegative unit-mass density over the energy label H."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, float, self.grid.shape, "density"))


def _sample_diagonal(grid: SpectralGrid, diagonal_fn) -> np.ndarray:
    if callable(diagonal_fn):
        return np.array(np.broadcast_to(diagonal_fn(grid.omega), grid.shape), dtype=float)
    return np.asarray(diagonal_fn, dtype=float).copy()


def make_state(grid: SpectralGrid, diagonal_fn, regular_fn=None) -> State:
    """Build an admissible state, renormalizing the diagonal to unit mass.

    ``diagonal_fn`` receives the omega nodes, or is an array of samples.
    ``regular_fn`` is None, a :class:`CoherenceTerms`, or a
    :mod:`phasedec.kernels` factory result (read through its ``profile``
    and ``symbol`` attributes); callables of (w, w') and dense arrays are
    not accepted.

    Rejects negative diagonal samples and regular kernels that the
    hermitian rule cannot certify: an upper bound on max|K - K^H| must stay
    within ``HERMITIAN_TOL`` of a lower bound on max|K|, so whatever passes
    also passes the dense check. The renormalization factor is logged
    rather than treated as an error, since unit mass is a property of
    states, not of the sampled profile.
    """
    diagonal = _sample_diagonal(grid, diagonal_fn)
    regular = _regular_terms(grid, regular_fn)
    if not np.all(np.isfinite(diagonal)):
        raise AdmissibilityError("diagonal samples must be finite")
    scale = max(float(np.max(np.abs(diagonal))), 1e-300)
    if float(diagonal.min()) < -NEGATIVITY_TOL * scale:
        raise AdmissibilityError(
            f"diagonal must be nonnegative; min sample {float(diagonal.min()):.4g}"
        )
    diagonal = np.maximum(diagonal, 0.0)
    mass = float(np.sum(diagonal) * grid.cell)
    if mass <= 0.0:
        raise AdmissibilityError("diagonal has zero mass; cannot normalize")
    if abs(mass - 1.0) > 1e-12:
        logger.info("renormalizing state diagonal by factor %.6g", 1.0 / mass)
    diagonal = diagonal / mass

    defect = regular.hermitian_defect_bound()
    if defect > HERMITIAN_TOL * max(regular.max_abs_floor(), 1e-300):
        raise AdmissibilityError(f"regular kernel is not hermitian (defect {defect:.3g})")
    return State(grid, diagonal, regular)


def pure_state(grid: SpectralGrid, coeffs) -> State:
    """Rank-1 state from spectral coefficients c: diagonal |c|^2, regular c (x) conj(c)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != grid.shape:
        raise ValueError("coefficient array must match the spectral grid shape")
    norm = np.sqrt(np.sum(np.abs(coeffs) ** 2) * grid.cell)
    if norm == 0:
        raise AdmissibilityError("zero coefficients")
    coeffs = coeffs / norm
    return State(grid, np.abs(coeffs) ** 2, CoherenceTerms(grid, coeffs[None], coeffs[None]))


def random_admissible_state(grid: SpectralGrid, rng: np.random.Generator) -> State:
    """Seeded random admissible state: Gaussian-mixture diagonal, low-rank hermitian regular.

    The regular kernel is sum_k lam_k v_k v_k^H with ``RANDOM_STATE_RANK``
    terms (a = lam v, b = v, c = 1).
    """
    omega = grid.omega
    lo, hi = omega[0], omega[-1]
    diagonal = np.zeros(grid.shape)
    n_bumps = int(rng.integers(2, 5))
    for _ in range(n_bumps):
        weight = float(rng.uniform(0.2, 1.0))
        center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        width = rng.uniform(0.05, 0.15) * (hi - lo)
        diagonal += weight * np.exp(-((omega - center) ** 2) / (2.0 * width**2))

    vectors = np.empty((RANDOM_STATE_RANK,) + grid.shape, dtype=complex)
    weights = np.empty((RANDOM_STATE_RANK, 1))
    for k in range(RANDOM_STATE_RANK):
        center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
        width = rng.uniform(0.08, 0.2) * (hi - lo)
        phase = rng.uniform(0.0, 4.0) / (hi - lo)
        vectors[k] = np.exp(-((omega - center) ** 2) / (2.0 * width**2) + 1j * phase * omega)
        weights[k] = rng.uniform(0.1, 0.5)
    return make_state(grid, diagonal, CoherenceTerms(grid, weights * vectors, vectors))


def _require_same_spectral_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("spectral grids do not match")


def pair(rho: State, obs: Observable) -> complex:
    """Functional applied to an observable: singular term + transposed regular term.

    The regular term, the sum of rho(x, x') obs(x', x) cell^2, is the sum of
    the coherence weights, so it costs O(k l n log n) for k and l terms.
    """
    _require_same_spectral_grid(rho, obs)
    singular_term = np.sum(rho.diagonal * obs.singular) * rho.grid.cell
    regular_term = np.sum(_coherence_weights(rho.regular, obs.regular))
    return complex(singular_term + regular_term)


def pair_regular_symbols(rho_symbol: PhaseFunction, obs_symbol: PhaseFunction) -> complex:
    """Phase-space form of the regular pairing: integral of the symbol product."""
    if rho_symbol.grid != obs_symbol.grid:
        raise ValueError("symbols live on different grids")
    imag = float(np.max(np.abs(rho_symbol.values.imag)))
    scale = max(float(np.max(np.abs(rho_symbol.values))), 1e-300)
    if imag > 1e-6 * scale:
        raise ValueError("state symbol must be real within tolerance")
    return integrate(rho_symbol * obs_symbol)


def pair_singular_symbols(rho_s: ClassicalDensity, obs: Observable) -> complex:
    """Energy-label-only pairing: sum over H with the cell measure.

    Never integrates over the conjugate coordinates; the full 2N-volume
    integral of two singular symbols diverges with the box size.
    """
    _require_same_spectral_grid(rho_s, obs)
    return complex(np.sum(rho_s.values * obs.singular) * rho_s.grid.cell)


def singular_symbol(rho: State, momentum_map: MomentumMap, out_grid: Grid) -> PhaseFunction:
    """rho(H(phi)): the decohered part of the state as a phase-space density."""
    if momentum_map.grid != out_grid:
        raise ValueError("momentum map must be sampled on the output grid")
    return _compose_on_phase_space(rho.diagonal, rho.grid, momentum_map, label="rho_S")


def to_classical_density(rho: State) -> ClassicalDensity:
    """Reinterpret the diagonal over H, renormalized to unit mass."""
    mass = rho.diagonal_mass
    if mass <= 0:
        raise ValueError("state has zero diagonal mass")
    return ClassicalDensity(rho.grid, rho.diagonal / mass)


def singular_basis_functional(grid: SpectralGrid, index: int) -> State:
    """Discrete basis functional at one node: diagonal indicator / cell.

    Evaluating an observable with it returns the singular kernel value at
    the node; it is itself an admissible (already decohered) state.
    """
    diagonal = np.zeros(grid.shape)
    diagonal[index] = 1.0 / grid.cell
    return State(grid, diagonal)


def regular_basis_functional(grid: SpectralGrid, row: int, col: int) -> State:
    """Discrete regular-basis functional; a raw coefficient vector, not a state.

    Pairing it with an observable extracts the regular kernel entry at
    (row, col). Because the pairing transposes the observable indices,
    the coefficient sits at the swapped slot.
    """
    return State(grid, np.zeros(grid.shape), _delta_term(grid, col, row, 1.0 / grid.cell**2))
