"""Time evolution, weak limits, decay fitting, and positivity tests.

Oracle for the Lorentzian family: the coherence factor gamma^2 /
(nu^2 + gamma^2) has poles at nu = +/- i gamma, and its Fourier transform
against exp(i nu t / hbar) decays as exp(-gamma t / hbar), so the fitted
rate must be gamma / hbar and the decoherence time hbar / gamma.
"""

import logging
import tracemalloc
import warnings

import numpy as np
import pytest

from phasedec import decoherence, kernels
from phasedec.decoherence import (
    TIME_BLOCK,
    Trajectory,
    _line_fit,
    _phase_sums,
    evolve_pairing,
    fit_decay,
    limit_pairing,
    residual_trajectory,
    verify_final_positivity,
)
from phasedec.phase_space import Grid, _cos_sin
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
from oracles import dense_terms, reference_cos_sin

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
    regular = np.sum(dense_terms(rho.regular) * dense_terms(obs.regular).T)
    singular = np.sum(rho.diagonal * obs.singular) * rho.grid.d_omega
    return complex(singular + regular * rho.grid.d_omega**2)


def bincount_spectrum(rho, obs):
    # the coherence spectrum as an n^2 offset table and two bincounts
    grid = rho.grid
    n = grid.omega_count
    cross = dense_terms(rho.regular) * dense_terms(obs.regular).T * grid.d_omega**2
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

    def test_kernel_blocks_match_closed_form_bit_exactly(self):
        # K[i, j] = sum_k a_k[i] conj(b_k[j]) c_k[i - j + n - 1], from zero in term
        # order, on gathered flat index arrays; numpy's array loops round alike at
        # every stride, while its scalar arithmetic may not
        grid = SpectralGrid(2.0, 23)
        terms = random_terms(np.random.default_rng(41), grid, 3)
        n = grid.omega_count
        i, j = (index.ravel() for index in np.indices((n, n)))
        expected = np.zeros(n * n, dtype=complex)
        for a, b, c in zip(terms.a, terms.b, terms.c):
            expected += a[i] * b[j].conj() * c[i - j + n - 1]
        expected = expected.reshape(n, n)
        everything = slice(None)
        blocks = [
            (slice(4, 9), everything),
            (everything, slice(0, 6)),
            (slice(n - 3, n + 5), slice(0, 2)),
            (slice(0, 1), slice(n - 1, n)),
            (slice(n - 7, n), slice(n - 7, n)),
        ]
        assert np.array_equal(dense_terms(terms), expected)
        for rows, cols in blocks:
            assert np.array_equal(terms._block(rows, cols), expected[rows, cols])

    def test_peak_memory_is_one_product_array(self, lorentzian_pair):
        # two dense kernels, the phase table and their products peaked at 56.5 MB
        rho, obs = lorentzian_pair
        n = rho.grid.omega_count
        evolve_pairing(rho, obs, 3.0, 1.0)
        tracemalloc.start()
        try:
            evolve_pairing(rho, obs, 3.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 16

    def test_non_finite_time_rejected(self, lorentzian_pair, caplog):
        # t = inf returned nan + nan i after two RuntimeWarnings and a T_rec/2 log line
        rho, obs = lorentzian_pair
        with caplog.at_level(logging.WARNING, logger="phasedec"):
            with pytest.raises(ValueError, match="finite"):
                evolve_pairing(rho, obs, np.inf, 1.0)
        assert not caplog.records


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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_times_rejected_before_any_arithmetic(self, lorentzian_pair, caplog, bad):
        # validated before the T_rec/2 log line and before any phase is formed, which
        # used to warn on multiply, cos and sin first
        rho, obs = lorentzian_pair
        with caplog.at_level(logging.WARNING, logger="phasedec"):
            with pytest.raises(ValueError, match="finite"):
                residual_trajectory(rho, obs, [1.0, bad], 1.0)
        assert not caplog.records

    @pytest.mark.past_recurrence
    def test_overflowing_phase_is_refused_naming_times(self):
        # d_omega / hbar = 40 times t = 1e308 overflows: the table builder warned on
        # overflow and invalid values, then "trajectory values must be finite"
        rho, obs = lorentzian_states(SpectralGrid(4.0, 101))
        with pytest.raises(ValueError, match="max.times. is inf"):
            residual_trajectory(rho, obs, [1.0, 1e308], 1e-3)

    @pytest.mark.past_recurrence
    def test_overflow_in_the_last_block_is_refused_before_any_table(self, monkeypatch):
        # the phases are checked on the whole grid first: no block's table is built
        # and then thrown away when a later block overflows
        rho, obs = lorentzian_states(SpectralGrid(4.0, 101))
        times = np.linspace(1.0, 2.0, 3 * TIME_BLOCK)
        times[-1] = 1e308
        built = []
        monkeypatch.setattr(decoherence, "_cos_sin", lambda *args, **kw: built.append(args))
        with pytest.raises(ValueError, match=r"phase step 40 times max\|times\| is inf"):
            residual_trajectory(rho, obs, times, 1e-3)
        assert built == []

    @pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 1.0], [[1.0, 2.0]]])
    def test_unordered_or_nested_times_rejected(self, lorentzian_pair, times):
        rho, obs = lorentzian_pair
        with pytest.raises(ValueError, match="strictly increasing|1-D"):
            residual_trajectory(rho, obs, times, 1.0)

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
            # time blocks: a boundary inside the grid, a tail merged into the block
            # before it (one over, 7 over) and a half-block tail kept on its own
            *[
                (lambda: lorentzian_states(SpectralGrid(4.0, 201)), np.linspace(0.0, 80.0, count), 1.0)
                for count in (TIME_BLOCK - 1, TIME_BLOCK, TIME_BLOCK + 1, 3 * TIME_BLOCK // 2,
                              3 * TIME_BLOCK + 7)
            ],
        ],
        ids=["lorentzian-801", "polefree-1001", "n17", "n41", "n50", "single", "t0", "block-less-1",
             "one-block", "block-plus-1", "block-and-half", "three-blocks-plus-7"],
    )
    def test_matches_long_double_direct_sum(self, build, times, hbar):
        rho, obs = build()
        weights = _coherence_weights(rho.regular, obs.regular)
        values = residual_trajectory(rho, obs, times, hbar).values
        expected = long_double_phase_sum(weights, times, rho.grid.d_omega, hbar)
        assert float(np.max(np.abs(values - expected))) <= 1e-12 * float(np.sum(np.abs(weights)))

    @pytest.mark.parametrize(
        "n, times, hbar",
        [(801, np.linspace(0.0, 80.0, 6000), 1.0), (1601, np.linspace(0.0, 40.0, 2000), 0.5)],
        ids=["lorentzian-801", "lorentzian-1601"],
    )
    def test_round_off_stays_near_eps(self, n, times, hbar):
        # the offset and centre tables come from powers of one phasor each; their
        # error grows with the power, and the heavy small-|d| weights meet low powers
        rho, obs = lorentzian_states(SpectralGrid(4.0, n))
        weights = _coherence_weights(rho.regular, obs.regular)
        values = residual_trajectory(rho, obs, times, hbar).values
        expected = long_double_phase_sum(weights, times, rho.grid.d_omega, hbar)
        assert float(np.max(np.abs(values - expected))) <= 2e-15 * float(np.sum(np.abs(weights)))

    @pytest.mark.parametrize("count, widths", [
        (TIME_BLOCK, [TIME_BLOCK]),
        (TIME_BLOCK + 1, [TIME_BLOCK + 1]),
        (3 * TIME_BLOCK // 2, [TIME_BLOCK, TIME_BLOCK // 2]),
        (3 * TIME_BLOCK + 7, [TIME_BLOCK, TIME_BLOCK, TIME_BLOCK + 7]),
    ], ids=["one-block", "one-over", "block-and-half", "three-blocks-and-7"])
    def test_tables_are_built_per_block_in_one_workspace(self, monkeypatch, count, widths):
        # both tables of a block share the rows of one buffer, reused by every block
        built = []

        def spy(step, rows, points, parts, what, out=None):
            built.append((len(points), out))
            return _cos_sin(step, rows, points, parts, what, out=out)

        monkeypatch.setattr(decoherence, "_cos_sin", spy)
        weights = np.random.default_rng(3).normal(size=1601) + 0j
        _phase_sums(weights, np.linspace(0.0, 80.0, count), 0.005)
        assert [n for n, _ in built] == [n for n in widths for _ in range(2)]
        first = built[0][1]
        assert all(out.flags.c_contiguous and np.shares_memory(out, first) for _, out in built)

    @pytest.mark.parametrize("layout", ["column-view", "contiguous-head"])
    def test_table_written_into_a_buffer_is_the_allocated_table(self, layout):
        # a buffer narrower than the one it lives in gets only its own columns
        step, rows = 0.0125, 21
        times = np.linspace(0.0, 330.0 / (20 * step), 700)
        table = _cos_sin(step, rows, times, 2, "times")
        base = np.full((2 * rows, 1024), np.nan)
        if layout == "column-view":
            out = base[:, : len(times)]
        else:
            out = base.reshape(-1)[: table.size].reshape(table.shape)
        assert _cos_sin(step, rows, times, 2, "times", out=out) is out
        assert np.array_equal(out, table)
        assert np.isnan(base).sum() == base.size - table.size

    @pytest.mark.parametrize("parts", [1, 2])
    def test_table_bits_match_the_row_by_row_reference(self, parts):
        # the table alone, in the 2-D buffer that _phase_sums passes, in a
        # (parts, rows, points) buffer and, for cos and sin, in both views of
        # one complex (points, rows) array: the reference's bits every way
        step, rows = 0.0125, 21
        times = np.linspace(0.0, 330.0 / (20 * step), 700)
        reference = reference_cos_sin(step, rows, times, parts, "times")
        flat, stacked = np.empty_like(reference), np.empty((parts, rows, len(times)))
        tables = [_cos_sin(step, rows, times, parts, "times"), flat, stacked]
        assert _cos_sin(step, rows, times, parts, "times", out=flat) is flat
        assert _cos_sin(step, rows, times, parts, "times", out=stacked) is stacked
        if parts == 2:
            for as_float in (True, False):
                table = np.empty((len(times), rows), dtype=complex)
                out = table.view(float).reshape(len(times), rows, 2).T if as_float else table.T
                assert _cos_sin(step, rows, times, 2, "times", out=out) is out
                tables.append(np.concatenate([table.real.T, table.imag.T]))
        for table in tables:
            table = table.reshape(reference.shape)
            assert np.array_equal(table, reference) and table.tobytes() == reference.tobytes()

    def test_phasor_table_matches_long_double(self):
        # 21 rows, arguments k step t up to 330 rad
        step = 0.0125
        times = np.linspace(0.0, 330.0 / (20 * step), 6000)
        table = _cos_sin(step, 21, times, 2, "times")
        args = np.multiply.outer(np.arange(21) * np.longdouble(step), times.astype(np.longdouble))
        expected = np.concatenate([np.cos(args), np.sin(args)])
        assert table.shape == (42, 6000)
        assert np.array_equal(_cos_sin(step, 21, times, 1, "times"), table[:21])  # cos rows alone
        assert np.all(table[0] == 1.0) and np.all(table[21] == 0.0)
        assert float(np.max(np.abs(table - expected))) <= 2e-13

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


    def test_peak_memory_does_not_grow_with_the_times(self, lorentzian_pair):
        # past the trajectory's own arrays, a call at 60000 times peaks no higher
        # than one at a single block: the unblocked tables and partial product
        # peaked at 63.0 MB here. The times and values are held twice, by
        # residual_trajectory and by the Trajectory that copies them
        rho, obs = lorentzian_pair

        def peak(count):
            times = np.linspace(8.0, 80.0, count)
            tracemalloc.start()
            try:
                traj = residual_trajectory(rho, obs, times, 1.0)
                return tracemalloc.get_traced_memory()[1], traj
            finally:
                tracemalloc.stop()

        one_block, _ = peak(TIME_BLOCK)
        many, traj = peak(60000)
        bytes_per_time = traj.times.itemsize + traj.values.itemsize
        assert many <= 2 * bytes_per_time * len(traj.times) + one_block


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
            dense = dense_terms(terms)
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
        dense = dense_terms(terms)
        defect = hermitian_defect(dense)
        assert terms.hermitian_defect_bound() >= defect > 0.0
        assert terms.max_abs_floor() <= float(np.max(np.abs(dense)))

    def test_pure_state_is_one_term(self):
        sgrid = SpectralGrid(4.0, 161)
        rho = pure_state(sgrid, kernels.gaussian_profile(2.0, 0.3)(sgrid.omega))
        dense = dense_terms(rho.regular)
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

    def test_times_near_float_max_fit_without_warning(self):
        # polyfit squared the times: an overflow RuntimeWarning and a RankWarning
        # t^-0.04 stays above RESIDUAL_FLOOR up to t = 1e300
        times = np.geomspace(1.0, 1e300, 100)
        traj = Trajectory(times, np.exp(-0.04 * np.log(times)).astype(complex), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fit_decay(traj)
        assert rep.model == "power_law"
        assert rep.rate == pytest.approx(0.04, rel=1e-12)
        assert 0.0 < rep.r2_exponential < rep.r2_power_law == pytest.approx(1.0, rel=1e-12)

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


def polyfit_slope_and_r2(x, y):
    """The fit that _line_fit replaced: np.polyfit, np.polyval and 1 - SS_res / SS_tot."""
    coeffs = np.polyfit(x, y, 1)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return float(coeffs[0]), 0.0
    return float(coeffs[0]), 1.0 - float(np.sum((y - np.polyval(coeffs, x)) ** 2)) / ss_tot


class TestLineFit:
    def test_lorentzian_log_linear_curve(self, lorentzian_pair):
        rho, obs = lorentzian_pair
        times = np.geomspace(8.0, 80.0, 80)
        y = np.log(np.abs(residual_trajectory(rho, obs, times, 1.0).values))
        slope, r2 = _line_fit(times, y)
        expected_slope, expected_r2 = polyfit_slope_and_r2(times, y)
        assert slope == pytest.approx(expected_slope, rel=1e-12)
        assert r2 == pytest.approx(expected_r2, rel=1e-12)

    def test_polefree_log_log_curve(self):
        rho, obs = polefree_states()
        times = np.geomspace(1.0, 200.0, 100)
        x = np.log(times)
        y = np.log(np.abs(residual_trajectory(rho, obs, times, 1.0).values))
        slope, r2 = _line_fit(x, y)
        expected_slope, expected_r2 = polyfit_slope_and_r2(x, y)
        assert slope == pytest.approx(expected_slope, rel=1e-12)
        assert r2 == pytest.approx(expected_r2, rel=1e-12)

    def test_constant_y_has_zero_r_squared(self):
        x = np.linspace(1.0, 9.0, 20)
        assert _line_fit(x, np.full(20, -3.5)) == (0.0, 0.0)
        assert polyfit_slope_and_r2(x, np.full(20, -3.5))[1] == 0.0

    @pytest.mark.parametrize("scale", [2.0**-600, 0.5, 2.0**600])
    def test_power_of_two_scaling_is_exact(self, scale):
        # the same points with x scaled: the slope scales inversely, R^2 not at all
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(1.0, 3.0, 50))
        y = 0.7 * x + rng.normal(scale=0.1, size=50)
        slope, r2 = _line_fit(x, y)
        scaled_slope, scaled_r2 = _line_fit(x * scale, y)
        assert scaled_r2 == r2
        assert scaled_slope * scale == slope


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
