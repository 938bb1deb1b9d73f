"""Time evolution of pairings, weak limits, and decay-rate extraction.

Evolution multiplies the regular coefficients by exp(i (omega - omega') t
/ hbar); the singular term never moves. For smooth absolutely-integrable
regular kernels the oscillatory sum dies out (Riemann-Lebesgue), leaving
the energy-label pairing of the diagonal as the weak limit. The residual
is the sum over frequency differences d of a coherence weight times
exp(i d d_omega t / hbar); it is evaluated from real cos/sin tables over
half the in-block offsets and half the block centres of d. Residual
decay is classified empirically by competing exponential and power-law
fits; for a Lorentzian coherence kernel of half-width gamma the fitted
rate is gamma / hbar, the inverse-pole-distance law.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .phase_space import _frozen
from .spectral import Observable, SpectralGrid, _coherence_weights
from .states import State, pair, pair_singular_symbols, to_classical_density

__all__ = [
    "Trajectory",
    "DecayReport",
    "PositivityReport",
    "evolve_pairing",
    "limit_pairing",
    "residual_trajectory",
    "fit_decay",
    "verify_final_positivity",
]

logger = logging.getLogger(__name__)

RESIDUAL_FLOOR = 1e-14
MODEL_R2_THRESHOLD = 0.9
#: leading share of a trajectory's samples that fit_decay drops as transient
TRANSIENT_FRACTION = 0.1
#: most negative value a decohered density may have and still count as nonnegative
POSITIVITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Evolved-pairing residuals sampled on an increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    limit_value: float

    def __post_init__(self):
        times = _frozen(self.times, float, np.shape(self.times), "times")
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("times must be a non-empty 1-D array")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        values = _frozen(self.values, complex, times.shape, "trajectory values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DecayReport:
    """Selected decay model of a residual trajectory.

    ``rate`` is the exponential rate for the exponential model and the
    power-law exponent magnitude otherwise; ``t_dec`` is 1/rate for
    exponential decay and infinite for every other model.
    ``r2_exponential`` and ``r2_power_law`` are the R^2 of the log-linear
    and log-log fits, whichever model is selected; ``r2_power_law`` is
    -inf when fewer than 10 fitted times are positive. The all-floor
    sentinel is fit exactly by both models, so both are 1 there.
    """

    model: str
    rate: float
    fit_quality: float
    t_dec: float
    r2_exponential: float
    r2_power_law: float


@dataclass(frozen=True)
class PositivityReport:
    min_value: float
    passed: bool


def _check_pair_args(rho: State, obs: Observable, hbar: float):
    if rho.grid != obs.grid:
        raise ValueError("state and observable live on different spectral grids")
    if hbar <= 0:
        raise ValueError("hbar must be positive")


def _warn_past_half_recurrence(grid: SpectralGrid, times: np.ndarray, hbar: float):
    t_max = float(np.max(np.abs(times)))
    half_recurrence = grid.recurrence_time(hbar) / 2.0
    if t_max >= half_recurrence:
        logger.warning(
            "time %.6g reaches half the recurrence time %.6g of the omega grid; "
            "residuals there are aliased, not decayed",
            t_max,
            half_recurrence,
        )


def evolve_pairing(rho: State, obs: Observable, t: float, hbar: float) -> complex:
    """Pairing at time t: static singular term + phase-weighted regular term.

    The direct sum over the dense kernels, O(n^2) in time and memory: the
    oracle that ``residual_trajectory`` is tested against. Logs a warning
    when |t| reaches half of ``grid.recurrence_time(hbar)``.
    """
    _check_pair_args(rho, obs, hbar)
    _warn_past_half_recurrence(rho.grid, np.asarray(t, dtype=float), hbar)
    grid = rho.grid
    d_omega = grid.d_omega
    singular_term = np.sum(rho.diagonal * obs.singular) * d_omega

    omega = grid.omega
    phase = np.exp(1j * (omega[:, None] - omega[None, :]) * t / hbar)
    # rho(w, w') obs(w', w): obs is read transposed
    regular_term = np.sum(rho.regular.dense() * obs.regular.dense().T * phase) * d_omega**2
    return complex(singular_term + regular_term)


def limit_pairing(rho: State, obs: Observable) -> float:
    """Weak limit of the evolved pairing: the energy-label diagonal term."""
    if rho.grid != obs.grid:
        raise ValueError("state and observable live on different spectral grids")
    return complex(pair_singular_symbols(to_classical_density(rho), obs)).real


def _cos_sin(freqs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(2F x T) real table: cos(f t) rows for the F frequencies, then sin(f t) rows."""
    theta = np.outer(freqs, times)
    table = np.empty((2,) + theta.shape)
    np.cos(theta, out=table[0])
    np.sin(theta, out=table[1])
    return table.reshape(-1, theta.shape[1])


def _fold(rows: np.ndarray, centre: int) -> np.ndarray:
    """Fold rows centre - k and centre + k, k = 0..centre: even rows over odd rows.

    sum_k rows[c + k] e^(i k x) over |k| <= c equals sum_k even_k cos(k x) +
    odd_k sin(k x) over k = 0..c, with even_k = rows[c + k] + rows[c - k]
    (row c taken once at k = 0) and odd_k = i (rows[c + k] - rows[c - k]),
    exactly zero at k = 0.
    """
    up = rows[centre:]
    down = rows[: centre + 1][::-1]
    folded = np.empty((2 * (centre + 1),) + rows.shape[1:], dtype=complex)
    np.add(up, down, out=folded[: centre + 1])
    folded[0] = rows[centre]
    np.subtract(up, down, out=folded[centre + 1 :])
    folded[centre + 1 :] *= 1j
    return folded


def _phase_sums(weights: np.ndarray, times: np.ndarray, step: float) -> np.ndarray:
    """sum_d weights[d] exp(i d step t) for d in -(m-1)/2..(m-1)/2, m = len(weights).

    Writes d = c + j with block centres c = k*B, |k| <= K, and in-block
    offsets |j| <= R = (B-1)/2, B odd and about sqrt(m), so exp(i d step t) =
    exp(i c step t) * exp(i j step t). ``_fold`` pairs j with -j and k with
    -k, so the weights, folded on both levels first, meet only real tables
    of cos and sin at j, k >= 0: 2(R+1) + 2(K+1) values per time (84 at
    m = 1601), one real matmul against the offset table and one row-wise
    reduction against the centre table, instead of a dense T x m phase
    table or complex exponentials. Both factors are centred on d = 0: the
    heavy small-|d| terms then use small arguments, where cos and sin are
    exact to round-off, and the d = 0 weight meets only cos 0 = 1 and sin 0 = 0.
    """
    reach = (len(weights) - 1) // 2
    radius = int(round(math.sqrt(len(weights)) / 2.0))
    size = 2 * radius + 1
    n_blocks = 2 * int(math.ceil((reach - radius) / size)) + 1
    padded_reach = (n_blocks * size - 1) // 2
    padded = np.zeros(2 * padded_reach + 1, dtype=complex)
    padded[padded_reach - reach : padded_reach + reach + 1] = weights
    half = n_blocks // 2
    # row b of the reshape holds offsets c - radius .. c + radius of centre
    # c = (b - half) * size; coeffs is (2(half+1) x 2(radius+1)) complex,
    # one row per centre term and one column per offset term
    coeffs = _fold(_fold(padded.reshape(n_blocks, size), half).T, radius).T
    # real and imaginary parts as row pairs, so the offset sum is one real matmul
    parts = np.stack([coeffs.real, coeffs.imag], axis=1).reshape(2 * len(coeffs), -1)
    partial = parts @ _cos_sin(np.arange(radius + 1) * step, times)
    partial = partial.reshape(len(coeffs), 2, -1)
    partial *= _cos_sin((np.arange(half + 1) * size) * step, times)[:, None, :]
    # the far, small centre terms are added first and the heavy k = 0 term last
    sums = partial[::-1].sum(axis=0)
    return sums[0] + 1j * sums[1]


def residual_trajectory(rho: State, obs: Observable, times, hbar: float) -> Trajectory:
    """Oscillatory regular term over a time grid; the singular term cancels exactly.

    Algebraically identical to evolve_pairing(t) - limit_pairing, but the
    off-diagonal sum is grouped by frequency difference first (one FFT
    cross-correlation of the kernel terms, O(n log n)), and the phases of
    the uniform frequency grid are factored into block centres and in-block
    offsets, each folded onto real cos/sin tables over its nonnegative
    half, so no T x (2n-1) table is built (``_phase_sums``).
    Logs a warning when a time reaches half of ``grid.recurrence_time(hbar)``.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("time grid must be non-empty")
    _check_pair_args(rho, obs, hbar)
    _warn_past_half_recurrence(rho.grid, times, hbar)
    weights = _coherence_weights(rho.regular, obs.regular)
    values = _phase_sums(weights, times, rho.grid.d_omega / hbar)
    return Trajectory(times, values, limit_pairing(rho, obs))


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    ss_res = float(np.sum((y - fitted) ** 2))
    return 1.0 - ss_res / ss_tot


def fit_decay(traj: Trajectory) -> DecayReport:
    """Classify residual decay by competing log-linear and log-log fits.

    The first ``TRANSIENT_FRACTION`` of samples is dropped; magnitudes
    below ``RESIDUAL_FLOOR`` are clipped before taking logs. An all-floor
    trajectory means the state is already decohered (rate-0 sentinel).
    A model is selected only if its R^2 reaches ``MODEL_R2_THRESHOLD``.
    """
    skip = int(math.ceil(TRANSIENT_FRACTION * len(traj.times)))
    times = traj.times[skip:]
    mags = np.abs(traj.values[skip:])
    if len(times) < 10:
        raise ValueError("need at least 10 samples past the transient window")

    if np.all(mags < RESIDUAL_FLOOR):
        return DecayReport("exponential", 0.0, 1.0, 0.0, r2_exponential=1.0, r2_power_law=1.0)
    mags = np.maximum(mags, RESIDUAL_FLOOR)
    log_mags = np.log(mags)

    exp_coeffs = np.polyfit(times, log_mags, 1)
    r2_exp = _r_squared(log_mags, np.polyval(exp_coeffs, times))

    positive = times > 0
    if np.count_nonzero(positive) >= 10:
        log_t = np.log(times[positive])
        pow_coeffs = np.polyfit(log_t, log_mags[positive], 1)
        r2_pow = _r_squared(log_mags[positive], np.polyval(pow_coeffs, log_t))
    else:
        pow_coeffs = (0.0, 0.0)
        r2_pow = -np.inf

    r2 = {"r2_exponential": r2_exp, "r2_power_law": r2_pow}
    if max(r2_exp, r2_pow) < MODEL_R2_THRESHOLD:
        return DecayReport("none", 0.0, max(r2_exp, 0.0), math.inf, **r2)
    if r2_exp >= r2_pow:
        rate = -float(exp_coeffs[0])
        if rate <= 0:
            return DecayReport("none", 0.0, r2_exp, math.inf, **r2)
        return DecayReport("exponential", rate, r2_exp, 1.0 / rate, **r2)
    exponent = -float(pow_coeffs[0])
    return DecayReport("power_law", max(exponent, 0.0), r2_pow, math.inf, **r2)


def verify_final_positivity(rho: State) -> PositivityReport:
    """Check the decohered density is nonnegative over the H grid."""
    density = to_classical_density(rho)
    min_value = float(density.values.min())
    return PositivityReport(min_value=min_value, passed=min_value >= -POSITIVITY_TOL)
