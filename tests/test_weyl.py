"""Wigner transform and marginal tests.

Analytic oracles: the oscillator ground state maps to exp(-q^2-p^2)/pi at
hbar = 1 and the first excited state to (2(q^2+p^2)-1) exp(-(q^2+p^2))/pi,
whose origin value -1/pi is the canonical negativity witness.
"""

import tracemalloc

import numpy as np
from numpy.lib.array_utils import byte_bounds
import pytest

from phasedec import kernels, weyl
from phasedec.phase_space import Axis, Grid, PhaseFunction, integrate
from phasedec.scenarios import run_named_scenario, scenario_defaults
from phasedec.spectral import (
    CoherenceTerms,
    SpectralGrid,
    plane_wave_matrix,
    synthesize_kernel,
)
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
from oracles import (
    dense_as_factors,
    dense_kernel,
    mesh,
    reference_kernel_rows,
    reference_plane_wave_matrix,
)

AXIS = (-6.0, 6.0, 193)


def _projector(psi):
    """The dense projector array psi psi^H, held as its n eigenvectors and eigenvalues."""
    return dense_as_factors(psi.axis, np.outer(psi.values, psi.values.conj()))


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
    def test_kernel_takes_factors_by_keyword_only(self):
        # u and s are keyword-only: a positional dense array is refused, not read as u
        with pytest.raises(TypeError):
            OperatorKernel(AXIS, np.zeros((193, 193)))

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
        k = OperatorKernel(AXIS)
        w = wigner_of_kernel(k, 1.0, grid)
        assert float(np.max(np.abs(w.values))) == 0.0

    def test_gaussian_projector_symbol(self, ground, grid):
        # symbol of |psi><psi| is 2 pi hbar W; compare against the analytic W
        k = _projector(ground)
        symbol = wigner_of_kernel(k, 1.0, grid)
        qm, pm = mesh(grid)
        exact = 2.0 * np.exp(-(qm**2) - pm**2)
        assert float(np.max(np.abs(symbol.values - exact))) < 1e-5

    def test_hermitian_kernel_gives_real_symbol(self, excited, grid):
        k = _projector(excited)
        assert k.u.dtype == np.float64  # real eigenvectors of a real projector
        w = wigner_of_kernel(k, 1.0, grid)
        assert w.values.dtype == np.float64

    def test_rejects_bad_hbar(self, ground, grid):
        k = _projector(ground)
        with pytest.raises(ValueError):
            wigner_of_kernel(k, 0.0, grid)

    def test_rejects_wide_output_range(self, ground):
        k = _projector(ground)
        wide = Grid.rectangle((-8.0, 8.0, 193), AXIS)
        with pytest.raises(ValueError, match="output q-range must lie inside the kernel q-range"):
            wigner_of_kernel(k, 1.0, wide)

    def test_output_q_one_ulp_past_the_range_is_the_last_node(self):
        # nextafter(1e6, 2e6) lies exactly 2000.0 cells from -1e6: the range
        # and node checks share one tolerance in cells, so it is node 2000
        axis = Axis(-1e6, 1e6, 2001)
        past = Axis(-1e6, float(np.nextafter(1e6, 2e6)), 2001)
        assert past.hi > axis.hi
        psi = gaussian_state(axis, sigma=2e5)
        p_axis = (-1e-4, 1e-4, 9)
        w = wigner_of_pure_state(psi, 1.0, Grid.rectangle(past, p_axis)).values
        assert np.array_equal(w, wigner_of_pure_state(psi, 1.0, Grid.rectangle(axis, p_axis)).values)

    def test_nyquist_guard(self, ground):
        # huge momenta under-sample the oscillatory phase and must be refused
        k = _projector(ground)
        fast = Grid.rectangle(AXIS, (-60.0, 60.0, 193))
        with pytest.raises(ValueError, match="pi/4"):
            wigner_of_kernel(k, 1.0, fast)


def _trapezoid_oracle(axis, values, grid, hbar=1.0):
    """Row by row: 2 h sum_j w_j K[i - j, i + j] exp(2i p j h / hbar) over |j| <= reach.

    K is the dense ``values`` array on ``axis``; w_j is 1/2 at j = +-reach
    and 1 inside; a row with reach 0 is zero.
    """
    axis = Axis(*axis)
    n, h = axis.count, axis.spacing
    nodes = np.rint((grid.coordinate(0) - axis.lo) / h).astype(int)
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
        out[row] = 2.0 * h * (phases @ (weights * values[i - j, i + j]))
    return out


def _random_matrix(n, seed):
    return np.random.default_rng(seed).normal(size=(n, n, 2)) @ [1.0, 1j]


def _random_hermitian_kernel(axis, seed):
    a = _random_matrix(axis[2], seed)
    return dense_as_factors(axis, (a + a.conj().T) / 2.0)


def _random_symmetric_kernel(axis, seed):
    """A dense real symmetric array: n real eigenvectors with weights of both signs."""
    a = _random_matrix(axis[2], seed).real
    return dense_as_factors(axis, (a + a.T) / 2.0)


def _real_factored_kernel(axis, seed):
    """Two real factor terms u_k u_k^T: real lags, which fold against the cos table alone."""
    return OperatorKernel(axis, u=np.random.default_rng(seed).normal(size=(2, axis[2])))


def _complex_factored_kernel(axis, seed):
    """Two complex factor terms u_k u_k^H: complex lags, with odd halves against the sin table."""
    u = np.random.default_rng(seed).normal(size=(2, axis[2], 2)) @ [1.0, 1j]
    return OperatorKernel(axis, u=u)


def _signed_kernel(dtype):
    """Three factor terms s_k u_k u_k^H of ``dtype`` with weights of both signs and sizes."""

    def make(axis, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(3, axis[2], 2)) @ [1.0, 1j]
        return OperatorKernel(axis, u=u if dtype is complex else u.real, s=[1.5, -0.25, -3.0])

    return make


def _real_and_complex_rows(axis, seed):
    """A real row and a complex row in one complex factor array, with weights of both signs."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(2, axis[2], 2)) @ [1.0, 1j]
    u[0] = u[0].real
    return OperatorKernel(axis, u=u, s=[-0.75, 2.0])


def _cancelling_weights(axis, seed):
    """One complex factor twice, with weights 1 and -1: K = 0 from factors that are not."""
    u = np.random.default_rng(seed).normal(size=(axis[2], 2)) @ [1.0, 1j]
    return OperatorKernel(axis, u=np.array([u, u]), s=[1.0, -1.0])


def _negative_projector(axis, seed):
    """A complex projector of weight -2: one factor, one negative weight."""
    return OperatorKernel(axis, u=_complex_wavefunction(axis).normalize().values[None], s=[-2.0])


def _complex_wavefunction(axis):
    """Unnormalized, with a momentum kick, so its lag products have imaginary parts."""
    q = np.linspace(*axis)
    values = 3.0 * np.exp(-((q - 0.5) ** 2) / 2.0 + 1.3j * q) + 0.4j * np.exp(-((q + 1.0) ** 2))
    return WaveFunction(axis, values)


def _zero_kernel(axis, seed):
    return OperatorKernel(axis)


def _real_projector(axis, seed):
    return OperatorKernel(axis, u=oscillator_state(axis, 1).values[None])


def _complex_projector(axis, seed):
    return OperatorKernel(axis, u=_complex_wavefunction(axis).normalize().values[None])


ALL_KERNELS = {
    "dense-hermitian": _random_hermitian_kernel,
    "dense-real-symmetric": _random_symmetric_kernel,
    "real-factors": _real_factored_kernel,
    "complex-factors": _complex_factored_kernel,
    "signed-real-factors": _signed_kernel(float),
    "signed-complex-factors": _signed_kernel(complex),
    "real-and-complex-rows": _real_and_complex_rows,
    "cancelling-weights": _cancelling_weights,
    "negative-projector": _negative_projector,
    "zero": _zero_kernel,
    "real-projector": _real_projector,
    "complex-projector": _complex_projector,
}
_EVERY_THIRD = (AXIS[0] + 7 * 0.0625, AXIS[0] + 187 * 0.0625, 61)  # nodes 7, 10, ..., 187 of AXIS
OUT_GRIDS = {
    "every-node-exact-mirror": Grid.rectangle(AXIS, AXIS),
    "every-node-even-mirror": Grid.rectangle(AXIS, (-4.0, 4.0, 96)),
    "every-third-node-odd-mirror": Grid.rectangle(_EVERY_THIRD, (-4.0, 4.0, 97)),
    "every-third-node-one-sided": Grid.rectangle(_EVERY_THIRD, (-0.5, 4.5, 97)),
}


class TestReferenceFold:
    """Each transform matches the fold with a fresh array per buffer bit for bit."""

    @pytest.mark.parametrize("grid", OUT_GRIDS.values(), ids=OUT_GRIDS.keys())
    @pytest.mark.parametrize("make", ALL_KERNELS.values(), ids=ALL_KERNELS.keys())
    def test_kernel_symbol(self, make, grid):
        kernel, hbar = make(AXIS, 11), 0.9
        nodes, p_out = weyl._output_nodes(kernel.axis, hbar, grid)
        expected = PhaseFunction(grid, reference_kernel_rows(kernel, nodes, p_out, hbar)).values
        values = wigner_of_kernel(kernel, hbar, grid).values
        assert values.dtype == expected.dtype == np.float64
        assert np.array_equal(values, expected) and values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("grid", OUT_GRIDS.values(), ids=OUT_GRIDS.keys())
    @pytest.mark.parametrize("complex_psi", [False, True], ids=["real-psi", "complex-psi"])
    def test_pure_state(self, complex_psi, grid):
        psi = _complex_wavefunction(AXIS) if complex_psi else oscillator_state(AXIS, 1, 0.9)
        nodes, p_out = weyl._output_nodes(psi.axis, 0.9, grid)
        projector = OperatorKernel(psi.axis, u=psi.normalize().values[None])
        expected = reference_kernel_rows(projector, nodes, p_out, 0.9) / (2.0 * np.pi * 0.9)
        values = wigner_of_pure_state(psi, 0.9, grid).values
        assert values.dtype == np.float64
        assert np.array_equal(values, expected) and values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("omega_count, q_count", [(121, 193), (241, 385), (64, 1537)])
    def test_plane_wave_table(self, omega_count, q_count):
        sgrid, axis = SpectralGrid(4.0, omega_count), (-24.0, 24.0, q_count)
        table = plane_wave_matrix(sgrid, axis, 0.8)
        expected = reference_plane_wave_matrix(sgrid, axis, 0.8)
        assert np.array_equal(table, expected) and table.tobytes() == expected.tobytes()


def _owner(array: np.ndarray) -> np.ndarray:
    while array.base is not None:
        array = array.base
    return array


class TestWorkspace:
    """Every buffer a transform writes but its rows is a view of one float64 block."""

    @pytest.mark.parametrize("grid", OUT_GRIDS.values(), ids=OUT_GRIDS.keys())
    @pytest.mark.parametrize("make", ALL_KERNELS.values(), ids=ALL_KERNELS.keys())
    def test_every_buffer_is_cut_from_one_block(self, monkeypatch, make, grid):
        # the lag layouts and padded rows of every _factor_lags call, the
        # halves, the cos/sin table and the odd sums of _fold: one block per
        # transform, used to its last float; the rows are apart from it. The
        # table is also taken from what _cos_sin returns, wherever it is held
        written, folds = [], []
        factor_lags, fold, cos_sin = weyl._factor_lags, weyl._fold, weyl._cos_sin

        def lags_spy(kernel, *args):
            out = factor_lags(kernel, *args)
            written.extend([out, *args[2:]])
            return out

        def fold_spy(halves, *args):
            folds.append(halves)
            written.extend([halves, *args[7:]])
            return fold(halves, *args)

        def cos_sin_spy(*args, **kwargs):
            table = cos_sin(*args, **kwargs)
            written.append(table)
            return table

        monkeypatch.setattr(weyl, "_factor_lags", lags_spy)
        monkeypatch.setattr(weyl, "_fold", fold_spy)
        monkeypatch.setattr(weyl, "_cos_sin", cos_sin_spy)
        for hbar in (0.9, 1.1):
            written.clear()
            folds.clear()
            values = wigner_of_kernel(make(AXIS, 12), hbar, grid).values
            transform = [a for a in written if a.size]  # no odd sums without an odd half
            assert len(folds) == 1 and len({id(_owner(a)) for a in transform}) == 1
            block = _owner(transform[0])
            assert block.dtype == np.float64 and block.ndim == 1
            assert all(np.shares_memory(a, block) for a in transform)
            assert max(byte_bounds(a)[1] for a in transform) == byte_bounds(block)[1]
            assert not np.shares_memory(values, block)
            assert _owner(values).nbytes == values.nbytes

    @pytest.mark.parametrize("omega_count, q_count", [(241, 385), (64, 1537)])
    def test_plane_wave_table_is_built_in_place(self, omega_count, q_count):
        # cos and sin go straight into E: the call holds E and nothing of its size
        sgrid, axis = SpectralGrid(4.0, omega_count), (-24.0, 24.0, q_count)
        tracemalloc.start()
        try:
            table = plane_wave_matrix(sgrid, axis, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = q_count * omega_count * 16
        assert table.flags.owndata and table.base is None and table.nbytes == size
        assert peak <= 1.1 * size


class TestGatherPath:
    """The factor-lag gather must reproduce a direct trapezoid sum per row."""

    @staticmethod
    def _assert_matches_oracle(kernel, grid):
        fast = wigner_of_kernel(kernel, 1.0, grid).values
        oracle = _trapezoid_oracle(kernel.axis, dense_kernel(kernel), grid)
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

    @pytest.mark.parametrize(
        "make",
        [_real_factored_kernel, _complex_factored_kernel, _signed_kernel(float), _signed_kernel(complex)],
        ids=["real-factors", "complex-factors", "signed-real-factors", "signed-complex-factors"],
    )
    def test_output_rows_on_every_third_node(self, make):
        # nodes 7, 10, ..., 187: factor lags are read three nodes apart, and
        # the bands of rows start off the window's centre
        axis = (-6.0, 6.0, 193)
        h = (axis[1] - axis[0]) / (axis[2] - 1)
        sub = (axis[0] + 7 * h, axis[0] + 187 * h, 61)
        self._assert_matches_oracle(make(axis, seed=4), Grid.rectangle(sub, (-4.0, 4.0, 96)))

    @pytest.mark.parametrize(
        "make",
        [_random_hermitian_kernel, _real_factored_kernel, _complex_factored_kernel, _signed_kernel(complex)],
        ids=["hermitian", "real-factors", "complex-factors", "signed-complex-factors"],
    )
    @pytest.mark.parametrize(
        "p_axis",
        [(-6.0, 6.0, 193), (-4.0, 4.0, 97), (-4.0, 4.0, 96), (-5.5, 5.5, 385), (-0.5, 4.5, 97)],
        ids=["exact-mirror", "odd-mirror", "even-mirror", "inexact-mirror-385", "one-sided"],
    )
    def test_p_axis(self, make, p_axis):
        # a p axis with p[0] == -p[-1] folds its p >= 0 nodes and fills each
        # p < 0 column from its mirror (even - odd fold); its other nodes
        # need not be exactly antisymmetric. A one-sided axis folds every column
        axis = (-6.0, 6.0, 193)
        p = np.linspace(*p_axis)
        assert np.array_equal(p, -p[::-1]) == (p_axis == (-6.0, 6.0, 193))
        self._assert_matches_oracle(make(axis, seed=9), Grid.rectangle(axis, p_axis))

    @pytest.mark.parametrize(
        "make",
        [_random_hermitian_kernel, _signed_kernel(complex)],
        ids=["hermitian", "signed-complex-factors"],
    )
    def test_long_axis(self, make):
        # 1537 nodes, every 32nd as an output row: reaches up to 768 lags
        axis = (-24.0, 24.0, 1537)
        grid = Grid.rectangle((-24.0, 24.0, 49), (-0.5, 4.5, 641))
        self._assert_matches_oracle(make(axis, seed=6), grid)

    @pytest.mark.parametrize(
        "make, parts",
        [(_random_hermitian_kernel, 2), (_real_factored_kernel, 1), (_complex_factored_kernel, 2)],
        ids=["hermitian", "real-factors", "complex-factors"],
    )
    def test_fold_takes_real_columns(self, monkeypatch, make, parts):
        # a hermitian K folds as real even and odd lags. The 193 rows fold in
        # 8 bands (7 of 24 rows, then 25), each to its deepest lag: depths 24,
        # 48, 72, 96, 97, 73, 49 and 25 give 11641 (row, lag) entries, against
        # 193 x 97 for the full window. Each entry is an even and an odd lag
        # for complex factors, and an even lag alone for real ones
        assert weyl.BANDS == 8
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
        assert sum(size for _, size in seen) == parts * 11641
        assert w.values.dtype == np.float64

    @pytest.mark.parametrize("make", [_random_hermitian_kernel], ids=["hermitian"])
    def test_peak_memory_stays_near_kernel_size(self, make):
        # the real lags take the kernel's bytes; the phase table and the
        # folded rows stay below twice the output's bytes
        axis = (-24.0, 24.0, 385)
        kernel = make(axis, seed=8)
        grid = Grid.rectangle(axis, (-0.5, 4.5, 161))
        tracemalloc.start()
        try:
            w = wigner_of_kernel(kernel, 1.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= kernel.u.nbytes + 2.0 * 16 * grid.n_points  # twice the complex-output bytes

    def test_pure_state_matches_its_projector_kernel(self):
        psi = _complex_wavefunction(AXIS)
        hbar = 0.7
        grid = Grid.rectangle((AXIS[0] + 1.0, AXIS[1] - 2.0, 145), (-3.0, 3.0, 121))
        w = wigner_of_pure_state(psi, hbar, grid).values
        kernel = _projector(psi.normalize())
        expected = wigner_of_kernel(kernel, hbar, grid).values / (2.0 * np.pi * hbar)
        assert float(np.max(np.abs(w - expected))) <= 1e-13 * float(np.max(np.abs(expected)))
        assert w.dtype == np.float64

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
        qm, pm = mesh(grid)
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
        qm, pm = mesh(grid)
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
        qm, pm = mesh(grid)
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
    """A factored kernel from separable hermitian spectral terms: one factor per term."""
    w = sgrid.omega
    bump = kernels.gaussian_profile(2.0, 0.5)(w)
    skewed = kernels.gaussian_profile(1.5, 0.4)(w) * np.exp(0.8j * w)
    terms = {
        "hermitian-term": CoherenceTerms(sgrid, [bump], [bump]),
        "two-hermitian-terms": CoherenceTerms(sgrid, [skewed, np.exp(-w)], [skewed, np.exp(-w)]),
        "zero-terms": CoherenceTerms(sgrid, *np.zeros((2, 0, sgrid.omega_count))),
    }[build]
    return synthesize_kernel(sgrid, terms, axis, plane_wave_matrix(sgrid, axis, hbar))


BUILDS = ["hermitian-term", "two-hermitian-terms", "zero-terms"]


class TestFactoredKernel:
    """Factors s_k u_k u_k^H against the same kernel as one dense array, held as its eigenvectors."""

    SGRID = SpectralGrid(4.0, 121)
    AXIS = (-12.0, 9.0, 193)
    HBAR = 0.7

    def _pair(self, build):
        kernel = _synthesized(build, self.SGRID, self.AXIS, self.HBAR)
        return kernel, dense_as_factors(kernel.axis, dense_kernel(kernel))

    @pytest.mark.parametrize("build", BUILDS)
    def test_form_follows_the_terms(self, build):
        # each separable hermitian term becomes one factor of unit weight, E a_k
        kernel, _ = self._pair(build)
        factors = {"hermitian-term": 1, "two-hermitian-terms": 2, "zero-terms": 0}[build]
        assert kernel.u.shape == (factors, 193)
        assert np.array_equal(kernel.s, np.ones(factors))

    @pytest.mark.parametrize("build", BUILDS)
    def test_symbol_matches_dense(self, build):
        kernel, dense = self._pair(build)
        grid = Grid.rectangle((-10.25, 7.25, 161), (-0.5, 4.5, 81))
        fast = wigner_of_kernel(kernel, self.HBAR, grid).values
        oracle = wigner_of_kernel(dense, self.HBAR, grid).values
        assert fast.dtype == oracle.dtype == np.float64
        if build == "zero-terms":
            assert not fast.any()
            return
        scale = float(np.max(np.abs(oracle)))
        assert float(np.max(np.abs(fast - oracle))) <= 1e-12 * scale
        direct = _trapezoid_oracle(kernel.axis, dense_kernel(kernel), grid, self.HBAR)
        assert float(np.max(np.abs(fast - direct))) <= 1e-12 * scale

    def test_a_second_factor_array_is_refused(self):
        # K = sum_k s_k u_k u_k^H has one factor array: no v, so no non-hermitian kernel
        kernel, _ = self._pair("hermitian-term")
        with pytest.raises(TypeError, match="'v'"):
            OperatorKernel(kernel.axis, u=kernel.u, v=kernel.u)

    def test_real_and_complex_factor_rows(self):
        # one real row among complex ones is stored as complex128, and its
        # lags are formed in complex, as the dense kernel is
        x = Axis(*self.AXIS).nodes()
        real = np.exp(-((x + 1.0) ** 2) / 3.0)
        skewed = np.exp(-((x - 1.0) ** 2) / 2.0) * np.exp(0.6j * x)
        kernel = OperatorKernel(self.AXIS, u=[real, skewed], s=[2.0, -1.0])
        assert kernel.u.dtype == np.complex128
        grid = Grid.rectangle((-10.25, 7.25, 161), (-0.5, 4.5, 81))
        fast = wigner_of_kernel(kernel, self.HBAR, grid).values
        dense = dense_as_factors(self.AXIS, dense_kernel(kernel))
        oracle = wigner_of_kernel(dense, self.HBAR, grid).values
        assert float(np.max(np.abs(fast - oracle))) <= 1e-12 * float(np.max(np.abs(oracle)))

    @pytest.mark.parametrize("other", BUILDS)
    @pytest.mark.parametrize("build", BUILDS)
    def test_trace_matches_dense(self, build, other):
        # every pair of the synthesized factors and the dense arrays held as eigenvectors
        a, a_dense = self._pair(build)
        b, b_dense = self._pair(other)
        oracle = trace_pair(a_dense, b_dense)
        scale = float(np.sum(np.abs(dense_kernel(a)) * np.abs(dense_kernel(b).T)))
        for left, right in [(a, b), (a, b_dense), (a_dense, b)]:
            value = trace_pair(left, right)
            assert isinstance(value, float)
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
        assert np.array_equal(projector.s, [1.0])
        expected = wigner_of_kernel(projector, 0.7, grid).values / (2.0 * np.pi * 0.7)
        assert np.array_equal(w, expected) and w.dtype == np.float64

    def test_factor_shapes_are_checked(self):
        with pytest.raises(ValueError, match="kernel factors u shape"):
            OperatorKernel(AXIS, u=np.ones((2, 192)))
        with pytest.raises(ValueError, match=r"kernel weights s shape \(1,\) does not match \(2,\)"):
            OperatorKernel(AXIS, u=np.ones((2, 193)), s=np.ones(1))


class TestSignedWeights:
    """Weights s_k of either sign: K = sum_k s_k u_k u_k^H."""

    H = 0.0625  # the spacing of AXIS, a power of two: 2h * s_k / (2h) is exact

    @pytest.mark.parametrize("p_axis", [AXIS, (-0.5, 4.5, 97)], ids=["mirrored", "one-sided"])
    @pytest.mark.parametrize("operator", ["identity", "position"])
    def test_multiplication_operators_transform_exactly(self, operator, p_axis):
        # f(q) delta(q - q') for f = 1 and f = q, held as the n unit factors
        # e_k with s_k = f(q_k) / 2h: each row's lags are zero but lag 0, s_k,
        # whose even half 2 s_k takes half weight and meets cos(0) = 1 times
        # 2h, so the symbol is f(q) exactly on every row of reach >= 1, and
        # rows of reach 0 are zero
        axis = Axis(*AXIS)
        assert axis.spacing == self.H
        q = axis.nodes()
        f = np.ones_like(q) if operator == "identity" else q
        kernel = OperatorKernel(AXIS, u=np.eye(axis.count), s=f / (2.0 * self.H))
        symbol = wigner_of_kernel(kernel, 1.0, Grid.rectangle(AXIS, p_axis)).values
        assert symbol.dtype == np.float64
        assert np.array_equal(symbol[1:-1], np.broadcast_to(f[1:-1, None], symbol[1:-1].shape))
        assert not symbol[0].any() and not symbol[-1].any()

    def test_trace_of_signed_kernels_matches_the_dense_trace(self):
        # integral A(q, q') B(q', q) dq dq' as a double trapezoid sum of the dense arrays
        a = _signed_kernel(complex)(AXIS, 13)
        b = OperatorKernel(AXIS, u=_signed_kernel(float)(AXIS, 14).u, s=[-0.5, 2.0, 0.75])
        w = np.full(AXIS[2], self.H)
        w[0] = w[-1] = 0.5 * self.H
        oracle = np.sum(dense_kernel(a) * w * (dense_kernel(b) * w).T)
        assert abs(oracle.imag) <= 1e-12 * abs(oracle)
        value = trace_pair(a, b)
        assert abs(value - oracle.real) <= 1e-12 * abs(oracle)
        assert abs(value - trace_pair(b, a)) <= 1e-12 * abs(value)

    @pytest.mark.parametrize(
        "s, message",
        [
            ([1.0, 0.5j], "kernel weights s must be real"),
            ([1.0, np.nan], "kernel weights s must be finite"),
            ([1.0, np.inf], "kernel weights s must be finite"),
            ([1.0], r"kernel weights s shape \(1,\) does not match \(2,\)"),
            ([1.0, 2.0, 3.0], r"kernel weights s shape \(3,\) does not match \(2,\)"),
        ],
        ids=["complex", "nan", "inf", "short", "long"],
    )
    def test_weights_are_checked(self, s, message):
        with pytest.raises(ValueError, match=message):
            OperatorKernel(AXIS, u=np.ones((2, 193)), s=s)


def test_pairing_equivalence_forms_no_q_by_q_array(monkeypatch):
    # both kernels of the default run have rank one: no outer product of two
    # q vectors, one factor pair each and no way to densify a kernel in the package
    # (the dense oracle lives in the tests), and the peak stays below the
    # 9.4 MB that the dense kernels took
    n_q = scenario_defaults()["pairing-equivalence"]["q_axis"]["count"]
    outer, post_init = np.outer, OperatorKernel.__post_init__

    def refuse_outer(a, b, *args, **kwargs):
        if np.size(a) >= n_q and np.size(b) >= n_q:
            raise AssertionError("q x q outer product")
        return outer(a, b, *args, **kwargs)

    def refuse_rank_above_one(self):
        post_init(self)
        if len(self.u) > 1:
            raise AssertionError(f"{len(self.u)} kernel factor pairs")

    monkeypatch.setattr(weyl.np, "outer", refuse_outer)
    monkeypatch.setattr(OperatorKernel, "__post_init__", refuse_rank_above_one)
    assert not hasattr(OperatorKernel, "dense")
    run_named_scenario("pairing-equivalence", {}, seed=0)
    tracemalloc.start()
    try:
        assert run_named_scenario("pairing-equivalence", {}, seed=0).report["passed"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6
