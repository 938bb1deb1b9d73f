"""Spectral representation tests: kernels, symbols, duality."""

import numpy as np
import pytest
from scipy.fft import next_fast_len

from phasedec import kernels
from phasedec.phase_space import Grid, integrate
from phasedec.scenarios import run_named_scenario
from phasedec.spectral import (
    CoherenceTerms,
    Observable,
    SpectralGrid,
    make_observable,
    plane_wave_matrix,
    singular_basis_observable,
    symb_singular,
    synthesize_kernel,
    synthesize_wavefunction,
    _fast_len,
)
from phasedec.weyl import OperatorKernel, gaussian_state, trace_pair, wigner_of_kernel
from oracles import dense_as_factors, dense_kernel, dense_terms, harmonic_map, mesh


@pytest.fixture(scope="module")
def sgrid():
    return SpectralGrid(4.0, 81)


@pytest.fixture(scope="module")
def harmonic_setup():
    sgrid = SpectralGrid(9.0, 301)
    pgrid = Grid.square(-3.0, 3.0, 161)
    return sgrid, pgrid, harmonic_map(pgrid)


def test_fast_len_matches_scipy_complex_sizes():
    # the padded coherence-weight FFTs use the fast sizes scipy picks for complex data
    sizes = range(1, 20001)
    assert [_fast_len(n) for n in sizes] == [next_fast_len(n) for n in sizes]


class TestSpectralGrid:
    def test_omega_starts_at_zero(self, sgrid):
        assert sgrid.omega[0] == 0.0
        assert sgrid.omega[-1] == 4.0

    def test_minimum_count(self):
        with pytest.raises(ValueError):
            SpectralGrid(4.0, 8)


class TestMakeObservable:
    def test_identity_is_self_adjoint(self, sgrid):
        obs = make_observable(sgrid, lambda w: 1.0 + 0 * w)
        assert np.all(obs.singular == 1.0)
        assert len(obs.regular.a) == 0

    def test_hamiltonian_kernel(self, sgrid):
        obs = make_observable(sgrid, lambda w: w)
        assert np.allclose(obs.singular.real, sgrid.omega)

    def test_real_symmetric_regular_is_self_adjoint(self, sgrid):
        obs = make_observable(
            sgrid, None, kernels.separable_kernel(lambda w: np.exp(-((w - 1.0) ** 2)))
        )
        assert np.all(obs.singular == 0.0)
        assert obs.regular.hermitian_defect_bound() == 0.0
        dense = dense_terms(obs.regular)
        assert np.array_equal(dense, dense.conj().T)

    def test_non_hermitian_terms_are_not_self_adjoint(self, sgrid):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 1, sgrid.omega_count))
        skewed = CoherenceTerms(sgrid, a, b)
        # a = b, but c(-d) != conj(c(d))
        asymmetric = CoherenceTerms(sgrid, a, a, np.exp(-np.linspace(-3.0, 1.0, 161))[None])
        for regular in (skewed, asymmetric):
            obs = Observable(sgrid, np.zeros(sgrid.shape), regular)
            dense = dense_terms(obs.regular)
            defect = float(np.max(np.abs(dense - dense.conj().T)))
            assert defect > 1e-3 * float(np.max(np.abs(dense)))
            assert obs.regular.hermitian_defect_bound() >= defect

    @pytest.mark.parametrize(
        "kernel", [lambda w, wp: np.exp(-((w - wp) ** 2)), np.eye(81)], ids=["callable", "array"]
    )
    def test_opaque_regular_kernels_rejected(self, sgrid, kernel):
        with pytest.raises(TypeError, match="not accepted"):
            make_observable(sgrid, None, kernel)

    def test_nonfinite_rejected(self, sgrid):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError):
                make_observable(sgrid, lambda w: 1.0 / w)  # infinite at omega = 0


class TestSymbSingular:
    def test_energy_composition(self, harmonic_setup):
        sgrid, pgrid, mm = harmonic_setup
        obs = make_observable(sgrid, lambda w: w)
        sym = symb_singular(obs, mm, pgrid)
        qm, pm = mesh(pgrid)
        assert float(np.max(np.abs(sym.values - 0.5 * (qm**2 + pm**2)))) < 1e-6

    def test_constant_composition(self, harmonic_setup):
        sgrid, pgrid, mm = harmonic_setup
        obs = make_observable(sgrid, lambda w: 1.0 + 0 * w)
        sym = symb_singular(obs, mm, pgrid)
        assert float(np.max(np.abs(sym.values - 1.0))) < 1e-12

    def test_linearity(self, harmonic_setup):
        sgrid, pgrid, mm = harmonic_setup
        o1 = make_observable(sgrid, lambda w: w)
        o2 = make_observable(sgrid, lambda w: np.exp(-w))
        combined = make_observable(sgrid, lambda w: 2.0 * w + 3.0 * np.exp(-w))
        lhs = symb_singular(combined, mm, pgrid)
        rhs = 2.0 * symb_singular(o1, mm, pgrid) + 3.0 * symb_singular(o2, mm, pgrid)
        assert float(np.max(np.abs(lhs.values - rhs.values))) < 1e-12

    def test_imaginary_part_composes(self, harmonic_setup, monkeypatch):
        # a real-valued table skips the imaginary interpolation; a complex one must not
        sgrid, pgrid, mm = harmonic_setup
        interp, calls = np.interp, []
        monkeypatch.setattr(np, "interp", lambda *args: calls.append(1) or interp(*args))
        real = symb_singular(make_observable(sgrid, lambda w: w), mm, pgrid)
        assert len(calls) == 1
        both = symb_singular(make_observable(sgrid, lambda w: w + 1j * np.exp(-w)), mm, pgrid)
        assert len(calls) == 3
        assert np.all(real.values.imag == 0.0)
        assert np.array_equal(both.values.real, real.values.real)
        h = 0.5 * sum(m**2 for m in mesh(pgrid))
        assert float(np.max(np.abs(both.values.imag - np.exp(-h)))) < 1e-3

    def test_composition_law(self, harmonic_setup):
        # symb of a product of diagonal kernels is the product of symbols
        sgrid, pgrid, mm = harmonic_setup
        f1, f2 = lambda w: w, lambda w: np.exp(-0.5 * w)
        prod = make_observable(sgrid, lambda w: f1(w) * f2(w))
        lhs = symb_singular(prod, mm, pgrid)
        rhs = symb_singular(make_observable(sgrid, f1), mm, pgrid) * symb_singular(
            make_observable(sgrid, f2), mm, pgrid
        )
        assert float(np.max(np.abs(lhs.values - rhs.values))) < 1e-3

    def test_delta_column_becomes_level_band(self, harmonic_setup):
        # interpolated delta column: a tent band around the level set whose
        # phase-space integral approximates the orbit-area derivative 2 pi
        sgrid, pgrid, mm = harmonic_setup
        idx = 100
        band = symb_singular(singular_basis_observable(sgrid, idx), mm, pgrid)
        omega_val = sgrid.omega[idx]
        h = 0.5 * sum(m**2 for m in mesh(pgrid))
        outside = np.abs(h - omega_val) > sgrid.d_omega
        assert float(np.max(np.abs(band.values[outside]))) == 0.0
        assert abs(integrate(band).real - 2.0 * np.pi) < 0.3

    def test_range_excursion_raises(self):
        sgrid = SpectralGrid(4.0, 81)
        pgrid = Grid.square(-4.0, 4.0, 65)  # H reaches 16 > 4
        mm = harmonic_map(pgrid)
        obs = make_observable(sgrid, lambda w: w)
        with pytest.raises(ValueError, match="leaves the spectral axis"):
            symb_singular(obs, mm, pgrid)


class TestSelfAdjointnessAlgebra:
    def test_preserved_by_addition_and_real_scaling(self, sgrid):
        herm = kernels.gaussian_coherence_kernel(1.0 / np.sqrt(2.0), lambda w: np.exp(-0.1 * w))
        o1 = make_observable(sgrid, lambda w: w, herm)
        o2 = make_observable(sgrid, lambda w: np.exp(-w), herm)
        # a sum of terms is the terms side by side; a real factor scales one profile
        r1, r2 = o1.regular, o2.regular
        regular = CoherenceTerms(
            sgrid,
            np.concatenate([2.0 * r1.a, 0.5 * r2.a]),
            np.concatenate([r1.b, r2.b]),
            np.concatenate([r1.c, r2.c]),
        )
        combined = Observable(sgrid, 2.0 * o1.singular + 0.5 * o2.singular, regular)
        assert np.all(combined.singular.imag == 0.0)
        assert combined.regular.hermitian_defect_bound() == 0.0
        expected = 2.0 * dense_terms(r1) + 0.5 * dense_terms(r2)
        assert np.allclose(dense_terms(regular), expected, rtol=0, atol=1e-15)


class TestMomentumMap:
    def test_harmonic_map_on_two_dof_rejected(self):
        with pytest.raises(ValueError):
            harmonic_map(Grid.square(-1.0, 1.0, 17, n_dof=2))


class TestPlaneWaveSynthesis:
    def test_gaussian_packet_matches_analytic(self):
        # Gaussian coefficients centered w0 synthesize a packet whose
        # closed form follows from the Gaussian Fourier integral
        sgrid = SpectralGrid(4.0, 241)
        w0, s = 2.0, 0.25  # keeps the coefficient tails below 1e-7 at the window edge
        coeffs = np.exp(-((sgrid.omega - w0) ** 2) / (4.0 * s**2)).astype(complex)
        axis = (-15.0, 15.0, 301)
        psi = synthesize_wavefunction(sgrid, coeffs, axis, plane_wave_matrix(sgrid, axis, 1.0))
        q = np.linspace(*axis)
        # peak-normalized modulus of the packet is exp(-s^2 q^2)
        got = np.abs(psi.values) / np.max(np.abs(psi.values))
        want = np.exp(-(q**2) * s**2)
        assert float(np.max(np.abs(got - want))) < 1e-6

    def test_kernel_synthesis_consistent_with_rank_one(self):
        sgrid = SpectralGrid(4.0, 121)
        profile = np.exp(-((sgrid.omega - 2.0) ** 2)).astype(complex)
        regular = CoherenceTerms(sgrid, profile[None], profile[None])
        axis = (-10.0, 10.0, 161)
        table = plane_wave_matrix(sgrid, axis, 1.0)
        kernel = dense_kernel(synthesize_kernel(sgrid, regular, axis, table))
        psi = synthesize_wavefunction(sgrid, profile, axis, table)
        expected = np.outer(psi.values, psi.values.conj())
        assert float(np.max(np.abs(kernel - expected))) < 1e-10
        scale = float(np.max(np.abs(kernel)))
        assert float(np.max(np.abs(kernel - kernel.conj().T))) <= 1e-12 * scale

    @pytest.mark.parametrize("build", ["separable", "two-separable", "empty"])
    def test_kernel_synthesis_matches_dense_oracle(self, build):
        # E dense E^H with E from the complex exponential: the factors E a_k
        # of the separable hermitian terms must match it
        sgrid = SpectralGrid(4.0, 121)
        w = sgrid.omega
        hbar = 0.7
        skewed = kernels.gaussian_profile(1.5, 0.4)(w) * np.exp(0.8j * w)
        terms = {
            "separable": CoherenceTerms(sgrid, [skewed], [skewed]),
            "two-separable": CoherenceTerms(sgrid, [skewed, np.exp(-w)], [skewed, np.exp(-w)]),
            "empty": make_observable(sgrid, None, None).regular,
        }[build]
        axis = (-12.0, 9.0, 97)
        weights = np.full(sgrid.omega_count, sgrid.d_omega)
        weights[0] = weights[-1] = 0.5 * sgrid.d_omega
        e = np.exp(1j * np.outer(np.linspace(*axis), w) / hbar) * weights
        e /= np.sqrt(2.0 * np.pi * hbar)
        expected = e @ dense_terms(terms) @ e.conj().T
        table = plane_wave_matrix(sgrid, axis, hbar)
        kernel = synthesize_kernel(sgrid, terms, axis, table)
        assert np.array_equal(kernel.s, np.ones(len(terms.a)))
        kernel = dense_kernel(kernel)
        assert float(np.max(np.abs(kernel - expected))) <= 1e-12 * float(np.max(np.abs(expected)))
        assert (build == "empty") == (not kernel.any())

    @pytest.mark.parametrize(
        "build, message",
        [
            ("lorentzian", "term 0's offset symbol c is not 1"),
            ("non-hermitian", "term 1's profile a is not a real multiple of b"),
            ("complex-multiple", "term 0's profile a is not a real multiple of b"),
            ("mixed", "term 1's offset symbol c is not 1"),
        ],
        ids=["lorentzian", "non-hermitian", "complex-multiple", "mixed"],
    )
    def test_kernel_synthesis_refuses_other_terms(self, build, message):
        # a Lorentzian offset symbol or a term a conj(b) with a not a real
        # multiple of b has no factor of the form E b_k with a real weight;
        # it is refused, not densified
        sgrid = SpectralGrid(4.0, 121)
        w = sgrid.omega
        bump = np.exp(-((w - 2.0) ** 2))
        lorentz = make_observable(sgrid, None, kernels.lorentzian_kernel(0.3, lambda x: np.exp(-x))).regular
        terms = {
            "lorentzian": lorentz,
            "non-hermitian": CoherenceTerms(sgrid, [bump, bump], [bump, w]),
            "complex-multiple": CoherenceTerms(sgrid, [(2.0 + 1e-6j) * bump], [bump]),
            "mixed": CoherenceTerms(
                sgrid,
                np.concatenate([[bump], lorentz.a]),
                np.concatenate([[bump], lorentz.b]),
                np.concatenate([np.ones((1, 2 * sgrid.omega_count - 1)), lorentz.c]),
            ),
        }[build]
        axis = (-12.0, 9.0, 97)
        table = plane_wave_matrix(sgrid, axis, 0.7)
        with pytest.raises(ValueError, match=message):
            synthesize_kernel(sgrid, terms, axis, table)

    def test_real_multiples_are_weighted_factors(self):
        # a real combination of separable observables holds terms a = lam b:
        # each is one factor E b of weight lam, and the kernel, its symbol and
        # its trace pairing match the dense array E dense_terms E^H
        sgrid, axis, hbar = SpectralGrid(4.0, 121), (-12.0, 9.0, 193), 0.7
        profiles = [
            kernels.gaussian_profile(2.0, 0.5),
            lambda w: kernels.gaussian_profile(1.5, 0.4)(w) * np.exp(0.8j * w),
            lambda w: np.exp(-w),
        ]
        regular = [make_observable(sgrid, None, kernels.separable_kernel(p)).regular for p in profiles]
        lams = [2.0, 3.0, -0.7]  # 3 and -0.7 times b round, so a is lam b only to round-off
        a = np.concatenate([lam * r.a for lam, r in zip(lams, regular)])
        terms = CoherenceTerms(sgrid, a, np.concatenate([r.b for r in regular]))
        kernel = synthesize_kernel(sgrid, terms, axis, plane_wave_matrix(sgrid, axis, hbar))
        assert kernel.s[0] == 2.0 and np.allclose(kernel.s, lams, rtol=1e-15, atol=0)
        weights = np.full(sgrid.omega_count, sgrid.d_omega)
        weights[0] = weights[-1] = 0.5 * sgrid.d_omega
        e = np.exp(1j * np.outer(np.linspace(*axis), sgrid.omega) / hbar) * weights
        e /= np.sqrt(2.0 * np.pi * hbar)
        expected = e @ dense_terms(terms) @ e.conj().T
        scale = float(np.max(np.abs(expected)))
        assert float(np.max(np.abs(dense_kernel(kernel) - expected))) <= 1e-12 * scale
        dense = dense_as_factors(axis, expected)
        grid = Grid.rectangle((-10.25, 7.25, 161), (-0.5, 4.5, 81))
        symbol, oracle = (wigner_of_kernel(k, hbar, grid).values for k in (kernel, dense))
        assert float(np.max(np.abs(symbol - oracle))) <= 1e-12 * float(np.max(np.abs(oracle)))
        state = OperatorKernel(axis, u=[gaussian_state(axis, center=-1.0, sigma=0.8).normalize().values])
        traced, oracle = trace_pair(kernel, state), trace_pair(dense, state)
        assert abs(traced - oracle) <= 1e-12 * abs(oracle) and abs(oracle) > 1e-3

    @pytest.mark.parametrize(
        "shape", [(97, 120), (96, 121), (121, 97)], ids=["omega", "axis", "transposed"]
    )
    def test_table_of_another_shape_is_refused(self, shape):
        # the table is E for (grid, axis, hbar): one row per q node, one column per omega node
        sgrid = SpectralGrid(4.0, 121)
        axis = (-12.0, 9.0, 97)
        terms = CoherenceTerms(sgrid, np.ones((1, 121)), np.ones((1, 121)))
        table = np.ones(shape, dtype=complex)
        with pytest.raises(ValueError, match=r"plane-wave table must have shape \(97, 121\)"):
            synthesize_wavefunction(sgrid, np.ones(121), axis, table)
        with pytest.raises(ValueError, match=r"plane-wave table must have shape \(97, 121\)"):
            synthesize_kernel(sgrid, terms, axis, table)


def test_pairing_equivalence_builds_no_dense_spectral_kernel(monkeypatch):
    # its observable is one separable term, synthesized from the profile
    # alone; every dense array of kernel entries would be built by _block
    def refuse(self, rows, cols):
        raise AssertionError("CoherenceTerms._block called")

    assert not hasattr(CoherenceTerms, "dense")
    monkeypatch.setattr(CoherenceTerms, "_block", refuse)
    assert run_named_scenario("pairing-equivalence", {}, seed=0).report["passed"]
