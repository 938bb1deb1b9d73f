"""State admissibility, pairings, and singular-symbol tests."""

import numpy as np
import pytest

from phasedec import kernels
from phasedec.phase_space import Grid, integrate, interior_max_abs, poisson_bracket
from phasedec.spectral import (
    CoherenceTerms,
    MomentumMap,
    SpectralGrid,
    make_observable,
    plane_wave_matrix,
    symb_singular,
    synthesize_kernel,
    synthesize_wavefunction,
)
from phasedec.states import (
    AdmissibilityError,
    State,
    make_state,
    pair,
    pair_regular_symbols,
    pair_singular_symbols,
    pure_state,
    random_admissible_state,
    singular_basis_functional,
    singular_symbol,
    to_classical_density,
)
from phasedec.weyl import trace_pair, wigner_of_kernel, wigner_of_pure_state
from oracles import dense_as_factors, harmonic_map, mesh


@pytest.fixture(scope="module")
def sgrid():
    return SpectralGrid(4.0, 161)


@pytest.fixture(scope="module")
def identity_obs(sgrid):
    return make_observable(sgrid, lambda w: 1.0 + 0 * w)


class TestMakeState:
    def test_stationary_gaussian(self, sgrid, identity_obs):
        rho = make_state(sgrid, kernels.gaussian_profile(1.0, 0.2))
        assert abs(rho.diagonal_mass - 1.0) < 1e-12
        assert len(rho.regular.a) == 0
        assert abs(pair(rho, identity_obs).real - 1.0) < 1e-8

    def test_rank_one_regular_accepted(self, sgrid):
        g = kernels.gaussian_profile(2.0, 0.5)
        rho = make_state(sgrid, lambda w: 1.0 + 0 * w, kernels.separable_kernel(g))
        assert rho.diagonal_mass == pytest.approx(1.0)

    def test_negative_diagonal_rejected(self, sgrid):
        with pytest.raises(AdmissibilityError):
            make_state(sgrid, lambda w: np.where(np.abs(w - 2.0) < 0.5, -0.1, 1.0))

    def test_non_hermitian_regular_rejected(self, sgrid):
        w, ones = sgrid.omega, np.ones(sgrid.shape)
        a, b = np.random.default_rng(4).normal(size=(2, 1, sgrid.omega_count))
        symbol = np.exp(-np.linspace(-3.0, 1.0, 2 * sgrid.omega_count - 1))[None]
        non_hermitian = [
            # w + 2 w' as the two terms w (x) 1 and 2 (x) w'
            CoherenceTerms(sgrid, np.stack([w, 2.0 * ones]), np.stack([ones, w])),
            # a skewed against b
            CoherenceTerms(sgrid, a, b),
            # a = b, but c(-d) != conj(c(d))
            CoherenceTerms(sgrid, a, a, symbol),
        ]
        for regular in non_hermitian:
            with pytest.raises(AdmissibilityError, match="not hermitian"):
                make_state(sgrid, lambda w: 1.0 + 0 * w, regular)

    @pytest.mark.parametrize(
        "kernel", [lambda w, wp: np.exp(-((w - wp) ** 2)), np.eye(161)], ids=["callable", "array"]
    )
    def test_opaque_regular_kernels_rejected(self, sgrid, kernel):
        with pytest.raises(TypeError, match="not accepted"):
            make_state(sgrid, lambda w: 1.0 + 0 * w, kernel)

    def test_zero_mass_rejected(self, sgrid):
        with pytest.raises(AdmissibilityError):
            make_state(sgrid, lambda w: 0.0 * w)

    def test_renormalization_logged(self, sgrid, caplog):
        with caplog.at_level("INFO", logger="phasedec.states"):
            make_state(sgrid, lambda w: 10.0 * np.exp(-w))
        assert any("renormalizing" in message for message in caplog.messages)

    def test_pure_state_is_admissible(self, sgrid, identity_obs):
        coeffs = kernels.gaussian_profile(2.0, 0.3)(sgrid.omega)
        rho = pure_state(sgrid, coeffs)
        assert abs(rho.diagonal_mass - 1.0) < 1e-12
        assert abs(pair(rho, identity_obs).real - 1.0) < 1e-8


class TestPair:
    def test_identity_normalization(self, sgrid, identity_obs):
        rng = np.random.default_rng(11)
        for _ in range(5):
            rho = random_admissible_state(sgrid, rng)
            assert abs(pair(rho, identity_obs).real - 1.0) < 1e-8

    def test_mean_energy_of_narrow_state(self, sgrid):
        rho = make_state(sgrid, kernels.gaussian_profile(1.0, 0.05))
        energy = make_observable(sgrid, lambda w: w)
        assert pair(rho, energy).real == pytest.approx(1.0, abs=5e-3)

    def test_antisymmetric_imaginary_regular_pairs_real(self, sgrid):
        n = sgrid.omega_count
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, n))
        # i (x y^T - y x^T): hermitian, since (iA)^T* = iA for real antisymmetric A
        antisym = CoherenceTerms(sgrid, np.stack([1j * x, -1j * y]), np.stack([y, x]))
        rho = State(sgrid, np.zeros(n), antisym)
        # x x^T + y y^T + (x y^T + y x^T): real symmetric
        sym = CoherenceTerms(sgrid, np.stack([x, y, x, y]), np.stack([x, y, y, x]))
        obs = make_observable(sgrid, None, sym)
        value = pair(rho, obs)
        assert abs(value.imag) < 1e-10
        assert abs(value.real) < 1e-10  # antisymmetric x symmetric traces to zero

    def test_self_adjoint_pairings_are_real(self, sgrid):
        rng = np.random.default_rng(23)
        rho = random_admissible_state(sgrid, rng)
        herm = kernels.gaussian_coherence_kernel(0.4, kernels.gaussian_profile(2.0, 0.6))
        obs = make_observable(sgrid, lambda w: w**2, herm)
        value = pair(rho, obs)
        assert abs(value.imag) < 1e-10 * max(abs(value.real), 1.0)

    def test_grid_mismatch(self, sgrid, identity_obs):
        other = SpectralGrid(4.0, 81)
        rho = make_state(other, kernels.gaussian_profile(1.0, 0.2))
        with pytest.raises(ValueError):
            pair(rho, identity_obs)


class TestPairRegularSymbols:
    AXIS = (-6.0, 6.0, 161)

    def test_normalization(self):
        from phasedec.weyl import gaussian_state

        grid = Grid.rectangle(self.AXIS, self.AXIS)
        w = wigner_of_pure_state(gaussian_state(self.AXIS), 1.0, grid)
        one = w.with_values(np.ones(grid.shape, dtype=complex))
        assert abs(pair_regular_symbols(w, one).real - 1.0) < 1e-5

    def test_gaussian_second_moment(self):
        from phasedec.phase_space import PhaseFunction
        from phasedec.weyl import gaussian_state

        grid = Grid.rectangle(self.AXIS, self.AXIS)
        w = wigner_of_pure_state(gaussian_state(self.AXIS), 1.0, grid)
        q_sq = PhaseFunction.sample(grid, lambda q, p: q**2)
        assert pair_regular_symbols(w, q_sq).real == pytest.approx(0.5, abs=1e-4)

    def test_zero_state(self):
        from phasedec.phase_space import PhaseFunction

        grid = Grid.rectangle(self.AXIS, self.AXIS)
        zero = PhaseFunction(grid, np.zeros(grid.shape))
        assert pair_regular_symbols(zero, zero) == 0

    def test_complex_state_symbol_rejected(self):
        from phasedec.phase_space import PhaseFunction

        grid = Grid.rectangle(self.AXIS, self.AXIS)
        w = PhaseFunction.sample(grid, lambda q, p: 1j * q)
        with pytest.raises(ValueError):
            pair_regular_symbols(w, w)


class TestPairSingularSymbols:
    def test_identity(self, sgrid, identity_obs):
        rho = make_state(sgrid, kernels.gaussian_profile(2.0, 0.3))
        value = pair_singular_symbols(to_classical_density(rho), identity_obs)
        assert value.real == pytest.approx(1.0, abs=1e-8)

    def test_discrete_deltas_reproduce_duality(self, sgrid):
        from phasedec.spectral import singular_basis_observable

        i, j = 40, 41
        rho_i = to_classical_density(singular_basis_functional(sgrid, i))
        assert pair_singular_symbols(rho_i, singular_basis_observable(sgrid, i)).real == (
            pytest.approx(1.0 / sgrid.d_omega)
        )
        assert pair_singular_symbols(rho_i, singular_basis_observable(sgrid, j)) == 0

    def test_mean_energy(self, sgrid):
        rho = make_state(sgrid, kernels.gaussian_profile(1.0, 0.2))
        energy = make_observable(sgrid, lambda w: w)
        value = pair_singular_symbols(to_classical_density(rho), energy)
        assert value.real == pytest.approx(1.0, abs=1e-3)


class TestSingularSymbol:
    def test_ring_density_on_classical_orbit(self):
        sgrid = SpectralGrid(9.0, 301)
        pgrid = Grid.square(-3.0, 3.0, 161)
        mm = harmonic_map(pgrid)
        rho = make_state(sgrid, kernels.gaussian_profile(1.0, 0.15))
        sym = singular_symbol(rho, mm, pgrid)
        qm, pm = mesh(pgrid)
        h = 0.5 * (qm**2 + pm**2)
        peak_band = np.abs(h - 1.0) < 0.1
        off_band = np.abs(h - 1.0) > 1.0
        assert sym.values.real[peak_band].min() > 10.0 * np.abs(sym.values.real[off_band]).max()
        assert sym.values.real.min() >= 0.0

    def test_uniform_diagonal_is_constant(self):
        sgrid = SpectralGrid(9.0, 301)
        pgrid = Grid.square(-3.0, 3.0, 161)
        mm = harmonic_map(pgrid)
        rho = make_state(sgrid, lambda w: 1.0 + 0 * w)
        sym = singular_symbol(rho, mm, pgrid)
        assert float(np.ptp(sym.values.real)) < 1e-12

    def test_constant_of_the_motion(self):
        sgrid = SpectralGrid(9.0, 601)
        pgrid = Grid.square(-3.0, 3.0, 161)
        mm = harmonic_map(pgrid)
        rho = make_state(sgrid, kernels.gaussian_profile(2.0, 0.4))
        sym = singular_symbol(rho, mm, pgrid)
        residual = interior_max_abs(poisson_bracket(sym, mm.hamiltonian))
        assert residual < 0.02
        # refinement in the spectral axis shrinks the interpolation kinks
        coarse = make_state(SpectralGrid(9.0, 301), kernels.gaussian_profile(2.0, 0.4))
        coarse_resid = interior_max_abs(
            poisson_bracket(singular_symbol(coarse, mm, pgrid), mm.hamiltonian)
        )
        assert residual < coarse_resid


class TestToClassicalDensity:
    def test_normalized_diagonal_is_identity(self, sgrid):
        rho = make_state(sgrid, kernels.gaussian_profile(2.0, 0.3))
        dens = to_classical_density(rho)
        assert np.allclose(dens.values, rho.diagonal)
        assert np.sum(dens.values) * sgrid.d_omega == pytest.approx(1.0)

    def test_unnormalized_input_scaled(self, sgrid):
        raw = State(sgrid, np.ones(sgrid.shape) * 3.0)
        dens = to_classical_density(raw)
        assert np.sum(dens.values) * sgrid.d_omega == pytest.approx(1.0)

    def test_moments_preserved_under_scaling(self, sgrid):
        profile = kernels.gaussian_profile(2.0, 0.3)(sgrid.omega)
        rho = make_state(sgrid, 5.0 * profile)
        dens = to_classical_density(rho)
        w = sgrid.omega
        mean_a = np.sum(w * dens.values) / np.sum(dens.values)
        mean_b = np.sum(w * profile) / np.sum(profile)
        assert mean_a == pytest.approx(mean_b, abs=1e-10)

    def test_zero_diagonal_rejected(self, sgrid):
        raw = State(sgrid, np.zeros(sgrid.shape))
        with pytest.raises(ValueError):
            to_classical_density(raw)


class TestRegularPairingEquivalence:
    def test_three_routes_agree(self):
        # rank-1 state x smooth observable: spectral sum, kernel trace, and
        # phase-space symbol integral give one number
        hbar = 1.0
        sgrid = SpectralGrid(4.0, 161)
        coeffs = kernels.gaussian_profile(2.0, 0.3)(sgrid.omega).astype(complex)
        coeffs /= np.sqrt(np.sum(np.abs(coeffs) ** 2) * sgrid.d_omega)
        rho = pure_state(sgrid, coeffs)
        obs = make_observable(
            sgrid, None, kernels.separable_kernel(kernels.gaussian_profile(2.0, 0.5))
        )
        v_spectral = pair(rho, obs)

        axis = (-20.0, 20.0, 321)
        table = plane_wave_matrix(sgrid, axis, hbar)
        psi = synthesize_wavefunction(sgrid, coeffs, axis, table)
        unit = psi.normalize().values
        k_rho = dense_as_factors(axis, np.outer(unit, unit.conj()))
        k_obs = synthesize_kernel(sgrid, obs.regular, axis, table)
        v_trace = trace_pair(k_rho, k_obs)

        pgrid = Grid.rectangle(axis, (-0.5, 4.5, 129))
        w_rho = wigner_of_pure_state(psi, hbar, pgrid)
        a_obs = wigner_of_kernel(k_obs, hbar, pgrid)
        v_phase = pair_regular_symbols(w_rho, a_obs)

        values = np.array([v_spectral, v_trace, v_phase])
        spread = float(np.max(np.abs(values - values.mean()))) / abs(values.mean())
        assert spread < 1e-4


class TestSingularIntegrationPrescription:
    def test_full_volume_grows_linearly_but_restricted_does_not(self):
        sgrid = SpectralGrid(4.0, 161)
        rho = make_state(sgrid, kernels.gaussian_profile(2.0, 0.3))
        obs = make_observable(sgrid, kernels.gaussian_profile(2.0, 0.4))
        restricted = pair_singular_symbols(to_classical_density(rho), obs).real

        volumes, fulls, densities = [], [], []
        for length in (4.0, 8.0, 16.0, 32.0):
            box = Grid.rectangle((-length, length, 97), (0.0, 4.0, 161))
            mm = MomentumMap.translation(box)
            product = singular_symbol(rho, mm, box) * symb_singular(obs, mm, box)
            volumes.append(2.0 * length * 4.0)
            fulls.append(integrate(product).real)
            densities.append(fulls[-1] / (2.0 * length))
        slope = float(np.polyfit(np.log(volumes), np.log(fulls), 1)[0])
        assert abs(slope - 1.0) < 0.1
        # H = p: the full integral is 2L times the momentum-space pairing, and
        # the box's p nodes are the spectral nodes, so only round-off remains
        assert max(abs(d - restricted) for d in densities) <= 1e-10 * restricted
        assert fulls[-1] > 5.0 * fulls[0]  # the unrestricted integral keeps growing
