"""Time evolution, weak limits, decay fitting, and positivity tests.

Oracle for the Lorentzian family: the coherence factor gamma^2 /
(nu^2 + gamma^2) has poles at nu = +/- i gamma, and its Fourier transform
against exp(i nu t / hbar) decays as exp(-gamma t / hbar), so the fitted
rate must be gamma / hbar and the decoherence time hbar / gamma.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from phasedec import kernels
from phasedec.decoherence import (
    Trajectory,
    _phase_sums,
    evolve_pairing,
    fit_decay,
    limit_pairing,
    residual_trajectory,
    verify_final_positivity,
)
from phasedec.phase_space import Grid
from phasedec.spectral import (
    CoherenceTerms,
    Observable,
    SpectralGrid,
    _coherence_weights,
    make_observable,
    regular_basis_observable,
)
from phasedec.states import (
    State,
    make_state,
    pair,
    pure_state,
    random_admissible_state,
    regular_basis_functional,
)
from phasedec.weyl import oscillator_state, wigner_of_pure_state

GAMMA = 0.1


def lorentzian_states(sgrid, gamma=GAMMA):
    profile = kernels.gaussian_profile(2.0, 0.35)
    rho = make_state(sgrid, lambda w: profile(w) ** 2, kernels.lorentzian_kernel(gamma, profile))
    obs = make_observable(
        sgrid,
        lambda w: 1.0 + 0.0 * w,
        kernels.separable_kernel(kernels.gaussian_profile(2.0, 0.5)),
    )
    return rho, obs


def polefree_states():
    sgrid = SpectralGrid(10.0, 1001)
    edge = kernels.spectral_edge_profile(decay=1.2, cutoff=7.5)
    rho = make_state(sgrid, lambda w: edge(w) ** 2, kernels.separable_kernel(edge))
    obs = make_observable(sgrid, lambda w: 1.0 + 0.0 * w, kernels.separable_kernel(edge))
    return rho, obs


def random_states():
    # RANDOM_STATE_RANK = 3 terms against a Gaussian-coherence observable
    sgrid = SpectralGrid(4.0, 401)
    rho = random_admissible_state(sgrid, np.random.default_rng(17))
    herm = kernels.gaussian_coherence_kernel(0.4, kernels.gaussian_profile(2.0, 0.6))
    return rho, make_observable(sgrid, lambda w: w, herm)


def basis_states():
    # indicator basis functional against the basis observable at the same node pair
    sgrid = SpectralGrid(4.0, 161)
    return regular_basis_functional(sgrid, 40, 70), regular_basis_observable(sgrid, 40, 70)


def random_terms(rng, sgrid, k):
    shape = (k,) + sgrid.shape
    offsets = (k,) + sgrid.offset_shape
    a, b = rng.normal(size=(2,) + shape) + 1j * rng.normal(size=(2,) + shape)
    return CoherenceTerms(sgrid, a, b, rng.normal(size=offsets) + 1j * rng.normal(size=offsets))


def random_term_states():
    # non-hermitian terms with asymmetric offset symbols, 2 x 3 terms
    sgrid = SpectralGrid(2.0, 17)
    rng = np.random.default_rng(29)
    rho = State(sgrid, rng.uniform(size=sgrid.shape), random_terms(rng, sgrid, 2))
    return rho, Observable(sgrid, rng.normal(size=sgrid.shape), random_terms(rng, sgrid, 3))


ORACLE_PAIRS = [
    pytest.param(lambda: lorentzian_states(SpectralGrid(4.0, 801)), id="lorentzian-801"),
    pytest.param(polefree_states, id="polefree-1001"),
    pytest.param(random_states, id="random-rank-3"),
    pytest.param(basis_states, id="basis-indicators"),
    pytest.param(random_term_states, id="random-terms"),
]


def hermitian_defect(matrix):
    """max |A - A^H| of a dense (n, n) kernel: the oracle for the terms bound."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def dense_direct_pairing(rho, obs):
    """The static pairing as a direct sum over the dense kernels."""
    # rho(w, w') obs(w', w): obs is read transposed
    regular = np.sum(rho.regular.dense() * obs.regular.dense().T)
    singular = np.sum(rho.diagonal * obs.singular) * rho.grid.d_omega
    return complex(singular + regular * rho.grid.d_omega**2)


def bincount_spectrum(rho, obs):
    # the coherence spectrum as an n^2 offset table and two bincounts
    grid = rho.grid
    n = grid.omega_count
    cross = rho.regular.dense() * obs.regular.dense().T * grid.d_omega**2
    i = np.arange(n)
    offsets = (i[:, None] - i[None, :]).ravel() + (n - 1)
    weights = np.bincount(offsets, weights=cross.real.ravel(), minlength=2 * n - 1)
    return weights + 1j * np.bincount(offsets, weights=cross.imag.ravel(), minlength=2 * n - 1)


def long_double_phase_sum(weights, times, d_omega, hbar):
    """sum_d weights[d] exp(i d d_omega t / hbar) with long-double arguments and sums.

    Each argument is reduced modulo 2 pi in long double before the cosine
    and sine, so large d t keep their full accuracy.
    """
    reach = (len(weights) - 1) // 2
    d = np.arange(-reach, reach + 1).astype(np.longdouble)
    step = np.longdouble(d_omega) / np.longdouble(hbar)
    two_pi = 4 * np.arccos(np.longdouble(0.0))
    re, im = weights.real.astype(np.longdouble), weights.imag.astype(np.longdouble)
    out = np.empty(len(times), dtype=complex)
    for start in range(0, len(times), 500):
        arg = np.multiply.outer(np.asarray(times[start : start + 500], np.longdouble), d * step)
        arg -= two_pi * np.rint(arg / two_pi)
        cos = np.cos(arg.astype(float)).astype(np.longdouble)
        sin = np.sin(arg.astype(float)).astype(np.longdouble)
        out[start : start + 500] = (cos @ re - sin @ im).astype(float) + 1j * (
            sin @ re + cos @ im
        ).astype(float)
    return out


@pytest.fixture(scope="module")
def sgrid():
    return SpectralGrid(4.0, 801)


@pytest.fixture(scope="module")
def lorentzian_pair(sgrid):
    profile = kernels.gaussian_profile(2.0, 0.35)
    rho = make_state(sgrid, lambda w: profile(w) ** 2, kernels.lorentzian_kernel(GAMMA, profile))
    obs = make_observable(
        sgrid,
        lambda w: 1.0 + 0.0 * w,
        kernels.separable_kernel(kernels.gaussian_profile(2.0, 0.5)),
    )
    return rho, obs


@pytest.fixture(scope="module")
def stationary_pair(sgrid):
    rho = make_state(sgrid, kernels.gaussian_profile(1.5, 0.3))
    obs = make_observable(sgrid, lambda w: w)
    return rho, obs


class TestEvolvePairing:
    def test_t_zero_matches_static_pairing_bit_exactly(self, lorentzian_pair):
        # pair() sums FFT weights; the static oracle is the dense direct sum
        rho, obs = lorentzian_pair
        assert evolve_pairing(rho, obs, 0.0, 1.0) == dense_direct_pairing(rho, obs)

    def test_stationary_state_is_time_independent(self, stationary_pair):
        rho, obs = stationary_pair
        values = {evolve_pairing(rho, obs, t, 1.0) for t in (0.0, 3.0, 50.0)}
        assert len({complex(np.round(v, 14)) for v in values}) == 1

    def test_grid_mismatch(self, lorentzian_pair):
        rho, _ = lorentzian_pair
        other = make_observable(SpectralGrid(4.0, 101), lambda w: 1.0 + 0 * w)
        with pytest.raises(ValueError):
            evolve_pairing(rho, other, 1.0, 1.0)

    def test_positive_hbar_required(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        with pytest.raises(ValueError):
            evolve_pairing(rho, obs, 1.0, 0.0)


class TestLimitPairing:
    def test_stationary_state_limit_equals_pair(self, stationary_pair):
        rho, obs = stationary_pair
        assert limit_pairing(rho, obs) == pytest.approx(pair(rho, obs).real, abs=1e-12)

    def test_identity_limit_is_one(self, sgrid, lorentzian_pair):
        rho, _ = lorentzian_pair
        identity = make_observable(sgrid, lambda w: 1.0 + 0 * w)
        assert limit_pairing(rho, identity) == pytest.approx(1.0, abs=1e-8)

    def test_long_time_agreement(self, lorentzian_pair):
        # 40 / GAMMA = 400 stays below T_rec / 2 = 628, where no aliased recurrence can help
        rho, obs = lorentzian_pair
        limit = limit_pairing(rho, obs)
        late = evolve_pairing(rho, obs, 40.0 / GAMMA, 1.0)
        assert abs(late - limit) < 1e-6 * abs(limit)


class TestResidualTrajectory:
    def test_matches_direct_evolution(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        times = np.array([0.5, 2.0, 7.0])
        traj = residual_trajectory(rho, obs, times, 1.0)
        limit = limit_pairing(rho, obs)
        direct = np.array([evolve_pairing(rho, obs, t, 1.0) - limit for t in times])
        assert float(np.max(np.abs(traj.values - direct))) < 1e-12

    def test_stationary_state_residual_identically_zero(self, stationary_pair):
        rho, obs = stationary_pair
        traj = residual_trajectory(rho, obs, np.linspace(0.1, 90.0, 40), 1.0)
        assert float(np.max(np.abs(traj.values))) < 1e-14

    def test_single_time_zero_residual_on_decohered_state(self, stationary_pair):
        rho, obs = stationary_pair
        traj = residual_trajectory(rho, obs, [0.0], 1.0)
        assert traj.values.shape == (1,)
        assert abs(traj.values[0]) < 1e-14

    def test_empty_times_rejected(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        with pytest.raises(ValueError):
            residual_trajectory(rho, obs, [], 1.0)

    def test_gaussian_kernel_super_exponential(self, sgrid):
        # wide profile: residual ~ exp(-s^2 t^2 / 2) within ~10%
        s = 0.25
        profile = kernels.gaussian_profile(2.0, 1.0)
        rho = make_state(
            sgrid, lambda w: profile(w) ** 2, kernels.gaussian_coherence_kernel(s, profile)
        )
        obs = make_observable(sgrid, None, kernels.separable_kernel(profile))
        times = np.linspace(1.0, 12.0, 30)
        traj = residual_trajectory(rho, obs, times, 1.0)
        coeff = np.polyfit(times**2, np.log(np.abs(traj.values)), 1)[0]
        assert coeff == pytest.approx(-(s**2) / 2.0, rel=0.1)

    def test_riemann_lebesgue_window_decay(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        peaks = []
        for t_start in (5.0, 10.0, 20.0, 40.0):
            window = np.linspace(t_start, 2.0 * t_start, 60)
            traj = residual_trajectory(rho, obs, window, 1.0)
            peaks.append(float(np.max(np.abs(traj.values))))
        assert peaks[0] > peaks[1] > peaks[2] > peaks[3]

    def test_unitarity_shadow(self, lorentzian_pair):
        # the t = 0 residual bounds every later residual for these kernels
        rho, obs = lorentzian_pair
        times = np.geomspace(0.01, 300.0, 120)
        traj = residual_trajectory(rho, obs, times, 1.0)
        at_zero = abs(residual_trajectory(rho, obs, [1e-12], 1.0).values[0])
        assert float(np.max(np.abs(traj.values))) <= at_zero * (1.0 + 1e-10)


class TestFactoredPhaseSum:
    """residual_trajectory against a long-double direct sum of the same weights."""

    @pytest.mark.parametrize(
        "build, times, hbar",
        [
            # 6000 times up to 8 t_dec, t = 0 included
            (lambda: lorentzian_states(SpectralGrid(4.0, 801)), np.linspace(0.0, 80.0, 6000), 1.0),
            (polefree_states, np.geomspace(1.0, 200.0, 100), 1.0),
            # 2n - 1 = 33, 81 = 9^2 and 99 offsets: odd, square and even counts
            (lambda: lorentzian_states(SpectralGrid(4.0, 17), 0.5), np.linspace(0.0, 6.0, 37), 1.0),
            (lambda: lorentzian_states(SpectralGrid(4.0, 41), 0.5), np.linspace(0.0, 15.0, 37), 1.0),
            (lambda: lorentzian_states(SpectralGrid(4.0, 50), 0.5), np.linspace(0.0, 19.0, 37), 0.5),
            (lambda: lorentzian_states(SpectralGrid(4.0, 801)), np.array([3.7]), 0.5),
            (lambda: lorentzian_states(SpectralGrid(4.0, 801)), np.array([0.0]), 1.0),
        ],
        ids=["lorentzian-801", "polefree-1001", "n17", "n41", "n50", "single", "t0"],
    )
    def test_matches_long_double_direct_sum(self, build, times, hbar):
        rho, obs = build()
        weights = _coherence_weights(rho.regular, obs.regular)
        values = residual_trajectory(rho, obs, times, hbar).values
        expected = long_double_phase_sum(weights, times, rho.grid.d_omega, hbar)
        assert float(np.max(np.abs(values - expected))) <= 1e-12 * float(np.sum(np.abs(weights)))

    @pytest.mark.parametrize("length", [1, 3, 5, 9, 15, 33])
    def test_short_weights_match_long_double_direct_sum(self, length):
        # radius 0 (length 1), a single block and so a single centre (1, 3), one
        # centre pair (5, 9, 15), at t = 0 and at negative times
        rng = np.random.default_rng(length)
        weights = rng.normal(size=length) + 1j * rng.normal(size=length)
        times = np.array([-7.3, -1.0, -0.25, 0.0, 0.4, 2.0, 11.9])
        step = 0.61
        values = _phase_sums(weights, times, step)
        expected = long_double_phase_sum(weights, times, step, 1.0)
        assert values.shape == times.shape
        assert float(np.max(np.abs(values - expected))) <= 1e-12 * float(np.sum(np.abs(weights)))

    @pytest.mark.parametrize("build", ORACLE_PAIRS)
    def test_spectrum_matches_bincount_oracle(self, build):
        # FFT weights of the terms against the offset table of the dense kernels
        rho, obs = build()
        expected = bincount_spectrum(rho, obs)
        error = float(np.max(np.abs(_coherence_weights(rho.regular, obs.regular) - expected)))
        assert error <= 1e-12 * float(np.sum(np.abs(expected)))

    def test_zero_frequency_weight_never_rotates(self, sgrid):
        # a regular kernel on omega = omega' is stationary: its phase is exactly
        # 1 at every t, which only centred factors reproduce without round-off
        profile = kernels.gaussian_profile(2.0, 0.35)(sgrid.omega)
        diagonal_only = np.zeros((1, 2 * sgrid.omega_count - 1))
        diagonal_only[0, sgrid.omega_count - 1] = 1.0
        regular = CoherenceTerms(sgrid, profile[None], profile[None], diagonal_only)
        rho = make_state(sgrid, profile**2, regular)
        ones = np.ones((1,) + sgrid.shape)
        obs = make_observable(sgrid, None, CoherenceTerms(sgrid, ones, ones, diagonal_only))
        times = np.linspace(0.0, 0.99 * sgrid.recurrence_time(1.0) / 2.0, 500)
        values = residual_trajectory(rho, obs, times, 1.0).values
        assert values[0] != 0.0
        assert np.all(values == values[0])

    def test_no_dense_phase_table(self, lorentzian_pair):
        # a T x (2n - 1) complex table at 6000 times and 801 nodes is 154 MB
        rho, obs = lorentzian_pair
        times = np.linspace(8.0, 80.0, 6000)
        dense_table_bytes = times.size * (2 * rho.grid.omega_count - 1) * 16
        tracemalloc.start()
        try:
            residual_trajectory(rho, obs, times, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_table_bytes / 4


class TestStructuredKernels:
    """The term form against dense oracles: pairing, hermitian rule, memory."""

    @pytest.mark.parametrize("build", ORACLE_PAIRS)
    def test_pair_matches_dense_direct_sum(self, build):
        rho, obs = build()
        expected = dense_direct_pairing(rho, obs)
        assert abs(pair(rho, obs) - expected) <= 1e-12 * abs(expected)

    @pytest.mark.parametrize("build", ORACLE_PAIRS)
    def test_hermitian_bound_covers_dense_defect(self, build):
        for terms in (part.regular for part in build()):
            dense = terms.dense()
            assert terms.hermitian_defect_bound() >= hermitian_defect(dense)
            assert terms.max_abs_floor() <= float(np.max(np.abs(dense)))

    @pytest.mark.parametrize("seed", range(4))
    def test_hermitian_bound_covers_non_hermitian_terms(self, seed):
        # random complex terms and offset symbols
        sgrid = SpectralGrid(2.0, 16)
        terms = random_terms(np.random.default_rng(seed), sgrid, 2)
        if seed == 3:
            # nearly hermitian: a = (1 + 1e-9 i) b with c(-d) = conj(c(d))
            c = terms.c + terms.c[:, ::-1].conj()
            terms = CoherenceTerms(sgrid, (1.0 + 1e-9j) * terms.b, terms.b, c)
        dense = terms.dense()
        defect = hermitian_defect(dense)
        assert terms.hermitian_defect_bound() >= defect > 0.0
        assert terms.max_abs_floor() <= float(np.max(np.abs(dense)))

    def test_pure_state_is_one_term(self):
        sgrid = SpectralGrid(4.0, 161)
        rho = pure_state(sgrid, kernels.gaussian_profile(2.0, 0.3)(sgrid.omega))
        dense = rho.regular.dense()
        assert len(rho.regular.a) == 1
        assert np.array_equal(np.diag(dense).real, rho.diagonal)
        assert rho.regular.hermitian_defect_bound() == 0.0 == hermitian_defect(dense)

    def test_memory_stays_linear_in_the_grid(self):
        # at 4001 nodes one dense complex kernel would be 256 MB
        sgrid = SpectralGrid(4.0, 4001)
        times = np.geomspace(8.0, 80.0, 80)
        tracemalloc.start()
        try:
            rho, obs = lorentzian_states(sgrid)
            residual_trajectory(rho, obs, times, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestRecurrenceGuard:
    @pytest.mark.parametrize("hbar", [0.25, 0.5, 1.0, 3.0])
    def test_half_recurrence_is_pi_hbar_over_d_omega(self, hbar):
        for sgrid in (SpectralGrid(4.0, 801), SpectralGrid(10.0, 1001), SpectralGrid(3.0, 21)):
            assert sgrid.recurrence_time(hbar) == 2.0 * np.pi * hbar / sgrid.d_omega
            assert sgrid.recurrence_time(hbar) / 2.0 == np.pi * hbar / sgrid.d_omega

    @pytest.mark.past_recurrence
    def test_residual_recurs_after_one_period(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        period = rho.grid.recurrence_time(1.0)
        traj = residual_trajectory(rho, obs, [0.0, period], 1.0)
        assert abs(traj.values[1] - traj.values[0]) < 1e-9 * abs(traj.values[0])

    @pytest.mark.past_recurrence
    def test_warns_from_half_the_recurrence_time(self, lorentzian_pair, caplog):
        rho, obs = lorentzian_pair
        half = rho.grid.recurrence_time(1.0) / 2.0
        with caplog.at_level(logging.WARNING, logger="phasedec"):
            residual_trajectory(rho, obs, [1.0, 0.99 * half], 1.0)
            evolve_pairing(rho, obs, 0.99 * half, 1.0)
        assert not caplog.records
        with caplog.at_level(logging.WARNING, logger="phasedec"):
            residual_trajectory(rho, obs, [1.0, half], 1.0)
            evolve_pairing(rho, obs, half, 1.0)
        assert [r.levelno for r in caplog.records] == [logging.WARNING] * 2
        assert all(r.name == "phasedec.decoherence" for r in caplog.records)


class TestFitDecay:
    def test_synthetic_exponential(self):
        times = np.linspace(0.5, 40.0, 60)
        traj = Trajectory(times, np.exp(-0.25 * times).astype(complex), 0.0)
        rep = fit_decay(traj)
        assert rep.model == "exponential"
        assert rep.rate == pytest.approx(0.25, rel=0.01)
        assert rep.t_dec == pytest.approx(4.0, rel=0.01)

    def test_synthetic_power_law(self):
        times = np.geomspace(1.0, 100.0, 50)
        traj = Trajectory(times, (1.0 / times).astype(complex), 0.0)
        rep = fit_decay(traj)
        assert rep.model == "power_law"
        assert rep.rate == pytest.approx(1.0, rel=0.01)
        assert np.isinf(rep.t_dec)

    def test_already_decohered_sentinel(self):
        times = np.linspace(0.0, 10.0, 20)
        traj = Trajectory(times, np.full(20, 1e-16, dtype=complex), 0.0)
        rep = fit_decay(traj)
        assert rep.model == "exponential"
        assert rep.rate == 0.0
        assert rep.t_dec == 0.0
        assert rep.r2_exponential == rep.r2_power_law == 1.0

    def test_both_r_squared_values_reported(self):
        # the exponential R^2 equals a hand log-linear fit bit for bit
        rho, obs = polefree_states()
        traj = residual_trajectory(rho, obs, np.geomspace(1.0, 200.0, 100), 1.0)
        rep = fit_decay(traj)
        skip = int(np.ceil(0.1 * len(traj.times)))
        mags = np.maximum(np.abs(traj.values[skip:]), 1e-14)
        t_fit = traj.times[skip:]
        coeffs = np.polyfit(t_fit, np.log(mags), 1)
        resid = np.log(mags) - np.polyval(coeffs, t_fit)
        ss_tot = float(np.sum((np.log(mags) - np.log(mags).mean()) ** 2))
        assert rep.r2_exponential == 1.0 - float(np.sum(resid**2)) / ss_tot
        assert rep.model == "power_law" and rep.r2_power_law == rep.fit_quality
        assert rep.r2_exponential < rep.r2_power_law

    def test_no_decay_flagged_none(self):
        rng = np.random.default_rng(2)
        times = np.linspace(1.0, 50.0, 40)
        noise = np.exp(rng.normal(scale=1.5, size=40))
        rep = fit_decay(Trajectory(times, noise.astype(complex), 0.0))
        assert rep.model == "none"
        assert np.isinf(rep.t_dec)

    def test_too_few_samples(self):
        times = np.linspace(1.0, 5.0, 8)
        with pytest.raises(ValueError):
            fit_decay(Trajectory(times, np.exp(-times).astype(complex), 0.0))


class TestLorentzianRateLaw:
    @pytest.mark.parametrize("hbar", [0.5, 1.0])
    def test_rate_is_gamma_over_hbar(self, lorentzian_pair, hbar):
        rho, obs = lorentzian_pair
        t_dec = hbar / GAMMA
        times = np.geomspace(0.8 * t_dec, 8.0 * t_dec, 80)
        rep = fit_decay(residual_trajectory(rho, obs, times, hbar))
        assert rep.model == "exponential"
        assert rep.fit_quality > 0.99
        assert rep.rate == pytest.approx(GAMMA / hbar, rel=0.05)
        assert rep.t_dec == pytest.approx(hbar / GAMMA, rel=0.05)

    def test_rate_scales_inversely_with_hbar(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        rates = {}
        for hbar in (0.25, 0.5, 1.0):
            t_dec = hbar / GAMMA
            times = np.geomspace(0.8 * t_dec, 8.0 * t_dec, 60)
            rates[hbar] = fit_decay(residual_trajectory(rho, obs, times, hbar)).rate
        for hbar, rate in rates.items():
            assert rate * hbar == pytest.approx(GAMMA, rel=0.1)


class TestPoleFreeKernel:
    def test_power_law_classification(self):
        sgrid = SpectralGrid(10.0, 1001)
        edge = kernels.spectral_edge_profile(decay=1.2, cutoff=7.5)
        rho = make_state(sgrid, lambda w: edge(w) ** 2, kernels.separable_kernel(edge))
        obs = make_observable(sgrid, lambda w: 1.0 + 0.0 * w, kernels.separable_kernel(edge))
        times = np.geomspace(1.0, 200.0, 100)
        traj = residual_trajectory(rho, obs, times, 1.0)
        rep = fit_decay(traj)
        assert rep.model in ("power_law", "none")
        assert np.isinf(rep.t_dec)


class TestFinalPositivity:
    def test_random_admissible_states_pass(self, sgrid):
        rng = np.random.default_rng(42)
        small = SpectralGrid(4.0, 101)
        for _ in range(10):
            report = verify_final_positivity(random_admissible_state(small, rng))
            assert report.passed
            assert report.min_value >= -1e-12

    def test_uniform_diagonal_positive_constant(self):
        small = SpectralGrid(4.0, 101)
        rho = make_state(small, lambda w: 1.0 + 0 * w)
        report = verify_final_positivity(rho)
        assert report.passed
        assert report.min_value > 0

    def test_contrast_with_pre_limit_wigner_symbol(self):
        # the asymmetry: every decohered density is nonnegative, while a
        # perfectly admissible pure state has a negative quasi-density
        axis = (-6.0, 6.0, 129)
        grid = Grid.rectangle(axis, axis)
        w1 = wigner_of_pure_state(oscillator_state(axis, 1), 1.0, grid)
        assert float(w1.values.real.min()) < -0.25
