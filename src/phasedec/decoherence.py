"""Time evolution of pairings, weak limits, and decay-rate extraction.

Evolution multiplies the regular coefficients by exp(i (omega - omega') t
/ hbar); the singular term never moves. For smooth absolutely-integrable
regular kernels the oscillatory sum dies out (Riemann-Lebesgue), leaving
the energy-label pairing of the diagonal as the weak limit. The residual
is the sum over frequency differences d of a coherence weight times
exp(i d d_omega t / hbar); it is evaluated from real cos/sin tables, the
powers of one unit phasor per time from the package's one table builder
in ``phase_space``, over half the in-block offsets and half the block
centres of d; a time whose phase overflows is refused, naming ``times``.
The times go through in blocks of ``TIME_BLOCK`` that reuse one workspace,
so a trajectory's memory beyond its own values does not grow with its
number of times. Residual decay is classified by competing closed-form
exponential and power-law line fits; for a Lorentzian kernel of
half-width gamma the fitted rate is gamma / hbar (inverse pole distance).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .phase_space import _check_phases, _cos_sin, _frozen
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
#: rows of the product array that evolve_pairing fills per block; chosen by timing
#: 8..256 rows at 801 nodes: 16..64 tie, and the peak grows with the block
EVOLVE_ROWS = 32
#: times per block of _phase_sums; chosen by timing 512..2048 on 6000 times and
#: 1601 weights: 1024 ran fastest both on a first call and on later ones
TIME_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Evolved-pairing residuals sampled on an increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    limit_value: float

    def __post_init__(self):
        times = _checked_times(self.times)
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


def _checked_times(times) -> np.ndarray:
    """``times`` as a frozen finite, non-empty, strictly increasing 1-D float array."""
    times = _frozen(times, float, np.shape(times), "times")
    if times.ndim != 1 or len(times) == 0 or np.any(times[1:] <= times[:-1]):
        raise ValueError("times must be a non-empty, strictly increasing 1-D array")
    return times


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

    The direct sum over the kernel entries, the oracle that
    ``residual_trajectory`` is tested against: O(n^2) in time, with one
    complex (n, n) product array, filled ``EVOLVE_ROWS`` rows at a time
    from kernel blocks and phases of those rows, and summed whole, so each
    entry and the sum hold the same bits as the whole-array expression.
    t must be finite; logs a warning when |t| reaches half of
    ``grid.recurrence_time(hbar)``.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_pair_args(rho, obs, hbar)
    _warn_past_half_recurrence(rho.grid, np.asarray(t, dtype=float), hbar)
    grid = rho.grid
    d_omega = grid.d_omega
    singular_term = np.sum(rho.diagonal * obs.singular) * d_omega

    omega = grid.omega
    columns = slice(None)
    # rho(w, w') obs(w', w) exp(i (w - w') t / hbar), obs read transposed,
    # filled one row block at a time and summed whole
    product = np.empty((len(omega), len(omega)), dtype=complex)
    for start in range(0, len(omega), EVOLVE_ROWS):
        rows = slice(start, start + EVOLVE_ROWS)
        block = product[rows]
        obs_block = obs.regular._block(columns, rows).T
        np.multiply(rho.regular._block(rows, columns), obs_block, out=block)
        block *= np.exp(1j * (omega[rows, None] - omega[None, :]) * t / hbar)
    regular_term = np.sum(product) * d_omega**2
    return complex(singular_term + regular_term)


def limit_pairing(rho: State, obs: Observable) -> float:
    """Weak limit of the evolved pairing: the energy-label diagonal term."""
    if rho.grid != obs.grid:
        raise ValueError("state and observable live on different spectral grids")
    return complex(pair_singular_symbols(to_classical_density(rho), obs)).real


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
    of cos and sin at j, k >= 0: powers of exp(i step t) and exp(i B step t),
    so 4 cos/sin evaluations per time for any m, one real matmul against the
    offset table and one row-wise reduction against the centre table. Both
    factors are centred on d = 0: the heavy small-|d| terms meet low powers,
    a few ulps from exact, and the d = 0 weight meets only the exact row 0,
    cos 0 = 1 and sin 0 = 0.

    The times go through in blocks of ``TIME_BLOCK`` (a shorter tail joins
    the block before it, so no block is under half of ``TIME_BLOCK``, and a
    call of at most ``TIME_BLOCK`` times is one block). A block's offset
    table, partial product and centre table are written into one workspace
    allocated once per call and sized for the widest block, the centre
    table over the offset table once the matmul has read it, and the
    block's sums go straight into its slice of the (T,) complex result, so
    the memory beyond that result does not grow with the number of times
    T. Each time's table column, matmul column and centre sum are the
    operations of an unblocked call; only the BLAS kernel picked for a
    block's width can move a last bit, as it does between unblocked calls
    of different lengths. Both phase steps are checked against the whole
    time grid before any block is built.
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
    for phase_step in (step, size * step):
        _check_phases(phase_step, times, "times")
    # a tail shorter than half a block joins the block before it: BLAS rounds a
    # narrow block (one column is a matrix-vector product) unlike a wide one
    time_blocks = max(1, round(len(times) / TIME_BLOCK))
    starts = [k * TIME_BLOCK for k in range(time_blocks)] + [len(times)]
    width = max(stop - start for start, stop in zip(starts, starts[1:]))
    # the offset table, then the centre table in its rows once the matmul has read
    # it, and the partial product after them, in one allocation: three separate
    # ones were returned to the OS after each call and faulted in again on the next
    table_rows = 2 * (max(radius, half) + 1)
    workspace = np.empty((table_rows + len(parts)) * width)
    values = np.empty(len(times), dtype=complex)
    for start, stop in zip(starts, starts[1:]):
        block = times[start:stop]
        n = len(block)
        offset_table = workspace[: 2 * (radius + 1) * n].reshape(-1, n)
        _cos_sin(step, radius + 1, block, 2, "times", out=offset_table)
        partial = workspace[table_rows * n : (table_rows + len(parts)) * n].reshape(-1, n)
        product = np.matmul(parts, offset_table, out=partial).reshape(len(coeffs), 2, n)
        centre_table = workspace[: 2 * (half + 1) * n].reshape(-1, n)
        _cos_sin(size * step, half + 1, block, 2, "times", out=centre_table)
        product *= centre_table[:, None, :]
        # the far, small centre terms are added first and the heavy k = 0 term last
        sums = product[::-1].sum(axis=0)
        values[start:stop] = sums[0] + 1j * sums[1]
    return values


def residual_trajectory(rho: State, obs: Observable, times, hbar: float) -> Trajectory:
    """Oscillatory regular term over a time grid; the singular term cancels exactly.

    Algebraically identical to evolve_pairing(t) - limit_pairing, but the
    off-diagonal sum is grouped by frequency difference first (one FFT
    cross-correlation of the kernel terms, O(n log n)), and the phases of
    the uniform frequency grid are factored into block centres and in-block
    offsets, each folded onto real cos/sin tables over its nonnegative
    half, so no T x (2n-1) table is built and each time costs 4 cos/sin
    evaluations (``_phase_sums``). The times go through in blocks of
    ``TIME_BLOCK`` that reuse one workspace, so the memory of a call beyond
    the trajectory's own times and values does not depend on their number.
    ``times`` must be finite, 1-D and strictly increasing, checked before
    any arithmetic, and d_omega max|t| / hbar must not overflow, checked on
    the whole grid before any table is built; a warning is logged when a
    time reaches half of ``grid.recurrence_time(hbar)``.
    """
    times = _checked_times(times)
    _check_pair_args(rho, obs, hbar)
    _warn_past_half_recurrence(rho.grid, times, hbar)
    weights = _coherence_weights(rho.regular, obs.regular)
    values = _phase_sums(weights, times, rho.grid.d_omega / hbar)
    return Trajectory(times, values, limit_pairing(rho, obs))


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its R^2, in closed form about the means.

    x is scaled to |x| < 1 by an exact power of two, so no sum of squares
    overflows, and the slope is scaled back. A constant x or y gives (0, 0).
    """
    exponent = int(np.frexp(np.max(np.abs(x)))[1])
    dx = np.ldexp(x, -exponent)
    dx -= dx.mean()
    dy = y - y.mean()
    sxx, ss_tot = float(np.sum(dx**2)), float(np.sum(dy**2))
    if sxx == 0.0 or ss_tot == 0.0:
        return 0.0, 0.0
    slope = float(np.sum(dx * dy)) / sxx
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    return math.ldexp(slope, -exponent), 1.0 - ss_res / ss_tot


def fit_decay(traj: Trajectory) -> DecayReport:
    """Classify residual decay by competing log-linear and log-log fits.

    The first ``TRANSIENT_FRACTION`` of samples is dropped; magnitudes
    below ``RESIDUAL_FLOOR`` are clipped before taking logs. An all-floor
    trajectory means the state is already decohered (rate-0 sentinel).
    Both lines are fit in closed form (``_line_fit``), finite for any finite
    times. A model is selected only if its R^2 reaches ``MODEL_R2_THRESHOLD``.
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

    exp_slope, r2_exp = _line_fit(times, log_mags)
    positive = times > 0
    if np.count_nonzero(positive) >= 10:
        pow_slope, r2_pow = _line_fit(np.log(times[positive]), log_mags[positive])
    else:
        pow_slope, r2_pow = 0.0, -np.inf

    r2 = {"r2_exponential": r2_exp, "r2_power_law": r2_pow}
    if max(r2_exp, r2_pow) < MODEL_R2_THRESHOLD:
        return DecayReport("none", 0.0, max(r2_exp, 0.0), math.inf, **r2)
    if r2_exp >= r2_pow:
        rate = -exp_slope
        if rate <= 0:
            return DecayReport("none", 0.0, r2_exp, math.inf, **r2)
        return DecayReport("exponential", rate, r2_exp, 1.0 / rate, **r2)
    exponent = -pow_slope
    return DecayReport("power_law", max(exponent, 0.0), r2_pow, math.inf, **r2)


def verify_final_positivity(rho: State) -> PositivityReport:
    """Check the decohered density is nonnegative over the H grid."""
    density = to_classical_density(rho)
    min_value = float(density.values.min())
    return PositivityReport(min_value=min_value, passed=min_value >= -POSITIVITY_TOL)
