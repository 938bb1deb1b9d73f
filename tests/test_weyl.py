"""Wigner transform and marginal tests.

Analytic oracles: the oscillator ground state maps to exp(-q^2-p^2)/pi at
hbar = 1 and the first excited state to (2(q^2+p^2)-1) exp(-(q^2+p^2))/pi,
whose origin value -1/pi is the canonical negativity witness.
"""

import tracemalloc

import numpy as np
import pytest

from phasedec import kernels, weyl
from phasedec.phase_space import Grid, PhaseFunction, integrate
from phasedec.scenarios import run_named_scenario, scenario_defaults
from phasedec.spectral import CoherenceTerms, SpectralGrid, make_observable, synthesize_kernel
from phasedec.weyl import (
    OperatorKernel,
    WaveFunction,
    gaussian_state,
    oscillator_state,
    q_marginal,
    trace_pair,
    wigner_of_kernel,
    wigner_of_pure_state,
)

AXIS = (-6.0, 6.0, 193)


def _projector(psi):
    """The dense projector kernel psi psi^H."""
    return OperatorKernel(psi.axis, np.outer(psi.values, psi.values.conj()))


@pytest.fixture(scope="module")
def grid():
    return Grid.rectangle(AXIS, AXIS)


@pytest.fixture(scope="module")
def ground():
    return gaussian_state(AXIS)


@pytest.fixture(scope="module")
def excited():
    return oscillator_state(AXIS, 1)


@pytest.fixture(scope="module")
def w_ground(ground, grid):
    return wigner_of_pure_state(ground, 1.0, grid)


@pytest.fixture(scope="module")
def w_excited(excited, grid):
    return wigner_of_pure_state(excited, 1.0, grid)


class TestKernelTypes:
    def test_kernel_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            OperatorKernel(AXIS, np.zeros((5, 5)))

    def test_wavefunction_normalize(self):
        psi = WaveFunction(AXIS, np.exp(-np.linspace(-6, 6, 193) ** 2 / 4) * 3.0)
        assert abs(psi.normalize().norm - 1.0) < 1e-12

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            WaveFunction(AXIS, np.zeros(193)).normalize()

    def test_oscillator_states_orthonormal(self):
        psi0 = oscillator_state(AXIS, 0)
        psi2 = oscillator_state(AXIS, 2)
        overlap = np.trapezoid(psi0.values * np.conj(psi2.values), dx=psi0.axis.spacing)
        assert abs(overlap) < 1e-8
        assert abs(psi2.norm - 1.0) < 1e-8


class TestWignerOfKernel:
    def test_zero_kernel(self, grid):
        k = OperatorKernel(AXIS, np.zeros((193, 193)))
        w = wigner_of_kernel(k, 1.0, grid)
        assert float(np.max(np.abs(w.values))) == 0.0

    def test_gaussian_projector_symbol(self, ground, grid):
        # symbol of |psi><psi| is 2 pi hbar W; compare against the analytic W
        k = _projector(ground)
        symbol = wigner_of_kernel(k, 1.0, grid)
        qm, pm = grid.mesh()
        exact = 2.0 * np.exp(-(qm**2) - pm**2)
        assert float(np.max(np.abs(symbol.values - exact))) < 1e-5

    def test_hermitian_kernel_gives_real_symbol(self, excited, grid):
        k = _projector(excited)
        w = wigner_of_kernel(k, 1.0, grid)
        scale = float(np.max(np.abs(w.values)))
        assert float(np.max(np.abs(w.values.imag))) < 1e-8 * scale

    def test_rejects_bad_hbar(self, ground, grid):
        k = _projector(ground)
        with pytest.raises(ValueError):
            wigner_of_kernel(k, 0.0, grid)

    def test_rejects_wide_output_range(self, ground):
        k = _projector(ground)
        wide = Grid.rectangle((-8.0, 8.0, 193), AXIS)
        with pytest.raises(ValueError):
            wigner_of_kernel(k, 1.0, wide)

    def test_nyquist_guard(self, ground):
        # huge momenta under-sample the oscillatory phase and must be refused
        k = _projector(ground)
        fast = Grid.rectangle(AXIS, (-60.0, 60.0, 193))
        with pytest.raises(ValueError, match="pi/4"):
            wigner_of_kernel(k, 1.0, fast)


def _trapezoid_oracle(kernel, grid, hbar=1.0):
    """Row by row: 2 h sum_j w_j K[i - j, i + j] exp(2i p j h / hbar) over |j| <= reach.

    w_j is 1/2 at j = +-reach and 1 inside; a row with reach 0 is zero.
    """
    n, h = kernel.axis[2], kernel.axis.spacing
    nodes = np.rint((grid.coordinate(0) - kernel.axis[0]) / h).astype(int)
    p = grid.coordinate(1)
    out = np.zeros(grid.shape, dtype=complex)
    for row, i in enumerate(nodes):
        reach = min(i, n - 1 - i)
        if reach == 0:
            continue
        j = np.arange(-reach, reach + 1)
        weights = np.ones(2 * reach + 1)
        weights[0] = weights[-1] = 0.5
        phases = np.exp(2j * np.outer(p, j * h) / hbar)
        out[row] = 2.0 * h * (phases @ (weights * kernel.values[i - j, i + j]))
    return out


def _random_kernel(axis, seed):
    n = axis[2]
    return OperatorKernel(axis, np.random.default_rng(seed).normal(size=(n, n, 2)) @ [1.0, 1j])


def _random_hermitian_kernel(axis, seed):
    a = _random_kernel(axis, seed).values
    return OperatorKernel(axis, (a + a.conj().T) / 2.0)


def _complex_wavefunction(axis):
    """Unnormalized, with a momentum kick, so its lag products have imaginary parts."""
    q = np.linspace(*axis)
    values = 3.0 * np.exp(-((q - 0.5) ** 2) / 2.0 + 1.3j * q) + 0.4j * np.exp(-((q + 1.0) ** 2))
    return WaveFunction(axis, values)


class TestGatherPath:
    """The anti-diagonal gather must reproduce a direct trapezoid sum per row."""

    @staticmethod
    def _assert_matches_oracle(kernel, grid):
        fast = wigner_of_kernel(kernel, 1.0, grid).values
        oracle = _trapezoid_oracle(kernel, grid)
        scale = float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(fast - oracle))) <= 1e-13 * scale
        return fast

    def test_oscillator_grid(self, excited, grid):
        k = _projector(excited)
        fast = self._assert_matches_oracle(k, grid)
        # the endpoint rows have no y-window at all
        assert np.all(fast[0] == 0.0) and np.all(fast[-1] == 0.0)

    def test_pairing_shape_random_hermitian(self):
        axis = (-24.0, 24.0, 385)
        k = _random_hermitian_kernel(axis, seed=3)
        fast = self._assert_matches_oracle(k, Grid.rectangle(axis, (-0.5, 4.5, 161)))
        assert np.all(fast[0] == 0.0) and np.all(fast[-1] == 0.0)

    def test_output_sub_range_of_nodes(self):
        # output q on kernel nodes 10..150 of 193: offsets and reaches differ per row
        axis = (-6.0, 6.0, 193)
        h = (axis[1] - axis[0]) / (axis[2] - 1)
        sub = (axis[0] + 10 * h, axis[0] + 150 * h, 141)
        k = _random_hermitian_kernel(axis, seed=4)
        self._assert_matches_oracle(k, Grid.rectangle(sub, (-4.0, 4.0, 97)))

    def test_non_hermitian_kernel(self):
        # even and odd lag parts are both complex here, so the symbol's
        # imaginary part is as large as its real part
        axis = (-6.0, 6.0, 193)
        grid = Grid.rectangle(axis, (-4.0, 4.0, 97))
        fast = self._assert_matches_oracle(_random_kernel(axis, seed=5), grid)
        assert float(np.max(np.abs(fast.imag))) > 0.1 * float(np.max(np.abs(fast.real)))

    @pytest.mark.parametrize(
        "make", [_random_hermitian_kernel, _random_kernel], ids=["hermitian", "non-hermitian"]
    )
    def test_long_axis(self, make):
        # 1537 nodes, every 32nd as an output row: reaches up to 768 lags
        axis = (-24.0, 24.0, 1537)
        grid = Grid.rectangle((-24.0, 24.0, 49), (-0.5, 4.5, 641))
        self._assert_matches_oracle(make(axis, seed=6), grid)

    @pytest.mark.parametrize(
        "make, columns_per_row",
        [(_random_hermitian_kernel, 1), (_random_kernel, 2)],
        ids=["hermitian", "non-hermitian"],
    )
    def test_fold_takes_real_columns(self, monkeypatch, make, columns_per_row):
        # K = H + iA folds as real even and odd lags (2 x 97 per column):
        # one column per output row for H, and as many again for A unless A = 0
        seen = []
        fold = weyl._fold

        def spy(halves, *args):
            seen.append((halves.dtype, halves.size))
            return fold(halves, *args)

        monkeypatch.setattr(weyl, "_fold", spy)
        axis = (-6.0, 6.0, 193)
        grid = Grid.rectangle(axis, (-4.0, 4.0, 97))
        w = wigner_of_kernel(make(axis, seed=7), 1.0, grid)
        assert seen and all(dtype == np.dtype(float) for dtype, _ in seen)
        assert sum(size for _, size in seen) == columns_per_row * 193 * 2 * 97
        assert np.all(w.values.imag == 0.0) == (columns_per_row == 1)

    @pytest.mark.parametrize(
        "make", [_random_hermitian_kernel, _random_kernel], ids=["hermitian", "non-hermitian"]
    )
    def test_peak_memory_stays_near_kernel_size(self, make):
        # the real lags of both parts take the kernel's bytes; the phase
        # table and the folded rows stay below twice the output's bytes
        axis = (-24.0, 24.0, 385)
        kernel = make(axis, seed=8)
        grid = Grid.rectangle(axis, (-0.5, 4.5, 161))
        tracemalloc.start()
        try:
            w = wigner_of_kernel(kernel, 1.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kernel.values.nbytes + 2.0 * w.values.nbytes

    def test_pure_state_matches_its_projector_kernel(self):
        psi = _complex_wavefunction(AXIS)
        hbar = 0.7
        grid = Grid.rectangle((AXIS[0] + 1.0, AXIS[1] - 2.0, 145), (-3.0, 3.0, 121))
        w = wigner_of_pure_state(psi, hbar, grid).values
        kernel = _projector(psi.normalize())
        expected = wigner_of_kernel(kernel, hbar, grid).values / (2.0 * np.pi * hbar)
        assert float(np.max(np.abs(w - expected))) <= 1e-13 * float(np.max(np.abs(expected)))
        assert np.all(w.imag == 0.0)

    @pytest.mark.parametrize(
        "out_grid, hbar",
        [
            (Grid.rectangle(AXIS, AXIS), 1.0),
            (Grid.rectangle((AXIS[0] + 1.0, AXIS[1] - 2.0, 145), (-3.0, 3.0, 121)), 0.7),
        ],
        ids=["oscillator-grid", "rectangular"],
    )
    def test_real_state_matches_phase_rotated_state(self, out_grid, hbar):
        # a global phase leaves W unchanged but sends psi down the complex
        # path, which folds the odd lags against the sin table as well
        mixed = oscillator_state(AXIS, 1, hbar).values + 0.3 * gaussian_state(AXIS, 0.5).values
        real = WaveFunction(AXIS, mixed)
        rotated = WaveFunction(AXIS, np.exp(0.9j) * real.values)
        assert not real.values.imag.any() and rotated.values.imag.any()
        w_real = wigner_of_pure_state(real, hbar, out_grid).values
        w_rotated = wigner_of_pure_state(rotated, hbar, out_grid).values
        assert float(np.max(np.abs(w_real - w_rotated))) <= 1e-13 * float(np.max(np.abs(w_rotated)))

    def test_off_node_grid_rejected(self, ground):
        # q shifted by a third of a cell, kept inside the kernel range
        h = (AXIS[1] - AXIS[0]) / (AXIS[2] - 1)
        shifted = (AXIS[0] + h / 3.0, AXIS[1] - 2.0 * h / 3.0, AXIS[2] - 1)
        k = _projector(ground)
        with pytest.raises(ValueError, match="output q values must be kernel q nodes"):
            wigner_of_kernel(k, 1.0, Grid.rectangle(shifted, AXIS))


class TestWignerOfPureState:
    def test_ground_state_matches_analytic(self, w_ground, grid):
        qm, pm = grid.mesh()
        exact = np.exp(-(qm**2) - pm**2) / np.pi
        assert float(np.max(np.abs(w_ground.values - exact))) < 1e-5

    def test_unit_mass_various_widths(self, grid):
        for sigma, hbar in [(1.0, 1.0), (1.5, 1.0), (1.0, 0.5)]:
            w = wigner_of_pure_state(gaussian_state(AXIS, sigma=sigma), hbar, grid)
            assert abs(integrate(w).real - 1.0) < 1e-5

    def test_scaled_hbar_ground_state_field(self, grid):
        # sigma = sqrt(hbar) ground state: W = exp(-(q^2+p^2)/hbar)/(pi hbar)
        hbar = 0.5
        w = wigner_of_pure_state(gaussian_state(AXIS, sigma=np.sqrt(hbar)), hbar, grid)
        qm, pm = grid.mesh()
        exact = np.exp(-(qm**2 + pm**2) / hbar) / (np.pi * hbar)
        assert float(np.max(np.abs(w.values - exact))) < 1e-5

    def test_translation_covariance(self, grid):
        # shift by an exact number of grid cells; compare columns deep enough
        # in the interior that the y-window truncation tail is below 1e-8
        shift_cells = 8
        dq = (AXIS[1] - AXIS[0]) / (AXIS[2] - 1)
        q0 = shift_cells * dq
        w0 = wigner_of_pure_state(gaussian_state(AXIS), 1.0, grid)
        w1 = wigner_of_pure_state(gaussian_state(AXIS, center=q0), 1.0, grid)
        rows = np.arange(64, 130)  # q in [-2, 2]
        shifted = w1.values[rows, :]
        base = w0.values[rows - shift_cells, :]
        assert float(np.max(np.abs(shifted - base))) < 1e-8

    def test_peak_memory_stays_near_output_size(self):
        # lag products come straight from psi: no 385 x 385 projector kernel
        axis = (-6.0, 6.0, 385)
        psi = oscillator_state(axis, 1)
        grid = Grid.rectangle(axis, axis)
        tracemalloc.start()
        try:
            w = wigner_of_pure_state(psi, 1.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * w.values.nbytes

    def test_excited_minimum_is_negative(self, w_excited):
        assert float(w_excited.values.real.min()) < 0

    def test_excited_origin_depth(self, w_excited, grid):
        mid = grid.shape[0] // 2
        origin = w_excited.values[mid, mid].real
        assert abs(origin - (-1.0 / np.pi)) < 0.02 / np.pi

    def test_excited_matches_laguerre_form(self, w_excited, grid):
        qm, pm = grid.mesh()
        r2 = qm**2 + pm**2
        exact = (2.0 * r2 - 1.0) * np.exp(-r2) / np.pi
        assert float(np.max(np.abs(w_excited.values - exact))) < 1e-5


class TestMarginals:
    def test_gaussian_marginal(self, ground, w_ground):
        marg = q_marginal(w_ground)
        assert float(np.max(np.abs(marg - np.abs(ground.values) ** 2))) < 1e-5

    def test_excited_marginal_is_a_density(self, excited, w_excited):
        marg = q_marginal(w_excited)
        assert marg.min() >= -1e-6
        assert float(np.max(np.abs(marg - np.abs(excited.values) ** 2))) < 1e-5

    def test_matches_trapezoid_rule(self):
        # distinct q and p counts and spacings: the p axis's weights must be the ones used
        grid = Grid.rectangle((-2.0, 3.0, 37), (-0.5, 4.5, 53))
        values = np.random.default_rng(7).normal(size=grid.shape + (2,)) @ [1.0, 1j]
        w = PhaseFunction(grid, values)
        expected = np.trapezoid(values.real, dx=grid.spacing(1), axis=1)
        assert float(np.max(np.abs(q_marginal(w) - expected))) <= 1e-13 * float(np.max(np.abs(expected)))

    def test_zero_symbol(self, grid):
        w = PhaseFunction(grid, np.zeros(grid.shape))
        assert float(np.max(np.abs(q_marginal(w)))) == 0.0


class TestTracePairing:
    def test_phase_space_pairing_equals_kernel_trace(self, ground, w_ground, grid):
        # Eq-of-motion-free check of the pairing identity, both ways
        displaced = gaussian_state(AXIS, center=1.0)
        k_obs = _projector(displaced)
        k_rho = _projector(ground)
        symbol = wigner_of_kernel(k_obs, 1.0, grid)
        lhs = integrate(w_ground * symbol).real
        rhs = trace_pair(k_rho, k_obs).real
        assert abs(lhs - rhs) < 1e-4 * abs(rhs)
        assert abs(rhs - np.exp(-0.5)) < 1e-8

    def test_trace_pair_axis_mismatch(self, ground):
        k1 = _projector(ground)
        k2 = _projector(gaussian_state((-5.0, 5.0, 161)))
        with pytest.raises(ValueError):
            trace_pair(k1, k2)


def _synthesized(build, sgrid, axis, hbar):
    """A factored kernel from spectral terms: which factors and rest it has depends on ``build``."""
    w = sgrid.omega
    bump = kernels.gaussian_profile(2.0, 0.5)(w)
    skewed = kernels.gaussian_profile(1.5, 0.4)(w) * np.exp(0.8j * w)
    lorentz = make_observable(sgrid, None, kernels.lorentzian_kernel(0.3, lambda x: np.exp(-x)))
    terms = {
        "hermitian-term": CoherenceTerms(sgrid, [bump], [bump]),
        "two-non-hermitian-terms": CoherenceTerms(sgrid, [skewed, np.exp(-w)], [bump, w]),
        "separable-and-lorentzian": CoherenceTerms(
            sgrid,
            np.concatenate([[bump], lorentz.regular.a]),
            np.concatenate([[skewed], lorentz.regular.b]),
            np.concatenate([np.ones((1, 2 * sgrid.omega_count - 1)), lorentz.regular.c]),
        ),
        "zero-terms": CoherenceTerms(sgrid, *np.zeros((2, 0, sgrid.omega_count))),
    }[build]
    return synthesize_kernel(sgrid, terms, axis, hbar)


BUILDS = ["hermitian-term", "two-non-hermitian-terms", "separable-and-lorentzian", "zero-terms"]


class TestFactoredKernel:
    """Factors u_k v_k^H plus a dense rest against the same kernel as one dense array."""

    SGRID = SpectralGrid(4.0, 121)
    AXIS = (-12.0, 9.0, 193)
    HBAR = 0.7

    def _pair(self, build):
        kernel = _synthesized(build, self.SGRID, self.AXIS, self.HBAR)
        return kernel, OperatorKernel(kernel.axis, kernel.dense())

    @pytest.mark.parametrize("build", BUILDS)
    def test_form_follows_the_terms(self, build):
        kernel, _ = self._pair(build)
        factors, rest = {
            "hermitian-term": (1, False),
            "two-non-hermitian-terms": (2, False),
            "separable-and-lorentzian": (1, True),
            "zero-terms": (0, False),
        }[build]
        assert kernel.u.shape == kernel.v.shape == (factors, 193)
        assert (kernel.values is not None) == rest
        assert (kernel.u is kernel.v) == (build in ("hermitian-term", "zero-terms"))

    @pytest.mark.parametrize("build", BUILDS)
    def test_symbol_matches_dense(self, build):
        kernel, dense = self._pair(build)
        grid = Grid.rectangle((-10.25, 7.25, 161), (-0.5, 4.5, 81))
        fast = wigner_of_kernel(kernel, self.HBAR, grid).values
        oracle = wigner_of_kernel(dense, self.HBAR, grid).values
        if build == "zero-terms":
            assert not fast.any()
            return
        scale = float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(fast - oracle))) <= 1e-12 * scale
        assert np.all(fast.imag == 0.0) == (build == "hermitian-term")
        assert float(np.max(np.abs(fast - _trapezoid_oracle(dense, grid, self.HBAR)))) <= 1e-12 * scale

    def test_equal_factors_in_two_arrays_fold_as_hermitian(self, monkeypatch):
        # u_k = v_k is read from the data, not from how the kernel was built:
        # one lag-product gather, and no mirror gather for A
        kernel, _ = self._pair("hermitian-term")
        twin = OperatorKernel(kernel.axis, u=kernel.u, v=kernel.u.copy())
        assert twin.v is not twin.u
        gathers = []
        factor_lags = weyl._factor_lags

        def spy(u, v, *args):
            gathers.append(len(u))
            return factor_lags(u, v, *args)

        monkeypatch.setattr(weyl, "_factor_lags", spy)
        grid = Grid.rectangle((-10.25, 7.25, 161), (-0.5, 4.5, 81))
        symbol = wigner_of_kernel(twin, self.HBAR, grid).values
        assert gathers == [1]
        assert np.array_equal(symbol, wigner_of_kernel(kernel, self.HBAR, grid).values)
        assert not symbol.imag.any()

    @pytest.mark.parametrize("other", BUILDS)
    @pytest.mark.parametrize("build", BUILDS)
    def test_trace_matches_dense(self, build, other):
        # every pair of forms: factor x factor, factor x rest, rest x factor, rest x rest
        a, a_dense = self._pair(build)
        b, b_dense = self._pair(other)
        oracle = trace_pair(a_dense, b_dense)
        scale = float(np.sum(np.abs(a_dense.values) * np.abs(b_dense.values.T)))
        for left, right in [(a, b), (a, b_dense), (a_dense, b)]:
            value = trace_pair(left, right)
            if "zero-terms" in (build, other):
                assert value == 0.0
            else:
                assert abs(value - oracle) <= 1e-12 * abs(oracle)
                assert abs(oracle) > 1e-6 * scale

    def test_pure_state_is_its_factored_projector(self):
        psi = _complex_wavefunction(AXIS)
        grid = Grid.rectangle((AXIS[0] + 1.0, AXIS[1] - 2.0, 145), (-3.0, 3.0, 121))
        w = wigner_of_pure_state(psi, 0.7, grid).values
        unit = psi.normalize().values
        projector = OperatorKernel(AXIS, u=[unit])
        assert projector.v is projector.u
        expected = wigner_of_kernel(projector, 0.7, grid).values.real / (2.0 * np.pi * 0.7)
        assert np.array_equal(w.real, expected) and not w.imag.any()

    def test_factor_shapes_are_checked(self):
        with pytest.raises(ValueError, match="kernel factors u shape"):
            OperatorKernel(AXIS, u=np.ones((2, 192)))
        with pytest.raises(ValueError, match="kernel factors v shape"):
            OperatorKernel(AXIS, u=np.ones((2, 193)), v=np.ones((1, 193)))


def test_pairing_equivalence_forms_no_q_by_q_array(monkeypatch):
    # both kernels of the default run have rank one: no outer product of two
    # q vectors, no dense rest and no dense() call, and the peak stays below
    # the 9.4 MB that the dense kernels took
    n_q = scenario_defaults()["pairing-equivalence"]["q_axis"]["count"]
    outer, post_init = np.outer, OperatorKernel.__post_init__

    def refuse_outer(a, b, *args, **kwargs):
        if np.size(a) >= n_q and np.size(b) >= n_q:
            raise AssertionError("q x q outer product")
        return outer(a, b, *args, **kwargs)

    def refuse_rest(self):
        if self.values is not None:
            raise AssertionError("dense kernel values")
        post_init(self)

    def refuse_dense(self):
        raise AssertionError("OperatorKernel.dense() called")

    monkeypatch.setattr(weyl.np, "outer", refuse_outer)
    monkeypatch.setattr(OperatorKernel, "__post_init__", refuse_rest)
    monkeypatch.setattr(OperatorKernel, "dense", refuse_dense)
    run_named_scenario("pairing-equivalence", {}, seed=0)
    tracemalloc.start()
    try:
        assert run_named_scenario("pairing-equivalence", {}, seed=0).report["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6
