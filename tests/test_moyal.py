"""Star-product and Moyal-bracket tests: truncation algebra and limits."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedec import moyal
from phasedec.moyal import (
    BLOCK,
    _bidifferential_terms,
    _bidifferentials,
    _DerivativeCache,
    classical_limit_check,
    moyal_bracket,
    star_product,
)
from phasedec.phase_space import (
    Grid,
    PhaseFunction,
    interior_max_abs,
    interior_slices,
    poisson_bracket,
)


@pytest.fixture(scope="module")
def grid():
    return Grid.square(-2.0, 2.0, 129)


def sample(grid, fn):
    return PhaseFunction.sample(grid, fn)


@pytest.fixture(scope="module")
def canonical(grid):
    q = sample(grid, lambda q, p: q)
    p = sample(grid, lambda q, p: p)
    h = sample(grid, lambda q, p: 0.5 * (q**2 + p**2))
    return q, p, h


def limit_check_at(f, g, hbar, order):
    """classical_limit_check in the call shape of the two series."""
    return classical_limit_check(f, g, [hbar, hbar / 2, hbar / 4], order)


def per_hbar_errors(f, g, hbars, order):
    """Oracle: the per-hbar loop of full series that classical_limit_check replaces."""
    plain, pb = f * g, poisson_bracket(f, g)
    product = [interior_max_abs(star_product(f, g, h, order) - plain) for h in hbars]
    bracket = [interior_max_abs(moyal_bracket(f, g, h, order) - pb) for h in hbars]
    return product, bracket


class TestTruncationOrder:
    @pytest.mark.parametrize("series", [star_product, moyal_bracket, limit_check_at])
    def test_bounds(self, series, canonical):
        q, p, _ = canonical
        series(q, p, 0.5, order=0)
        series(q, p, 0.5, order=6)
        with pytest.raises(ValueError, match="0..6"):
            series(q, p, 0.5, order=7)
        with pytest.raises(ValueError, match="0..6"):
            series(q, p, 0.5, order=-1)


class TestStarProduct:
    def test_constant_multiplies_exactly(self, grid, canonical):
        _, p, _ = canonical
        c = sample(grid, lambda q, p: 3.0 + 0 * q)
        out = star_product(c, p, hbar=0.7)
        assert float(np.max(np.abs(out.values - 3.0 * p.values))) < 1e-12

    def test_canonical_pair_single_correction(self, canonical):
        # q * p keeps exactly one term beyond the plain product: i hbar / 2
        q, p, _ = canonical
        hbar = 0.1
        out = star_product(q, p, hbar, order=2)
        expected = q.values * p.values + 0.5j * hbar
        assert float(np.max(np.abs(out.values - expected))) < 1e-12

    def test_quadratic_hamiltonian_terminates(self, grid, canonical):
        _, _, h = canonical
        hbar = 0.5
        out = star_product(h, h, hbar, order=2)
        expected = h * h - hbar**2 / 4.0
        assert interior_max_abs(out - expected) < 1e-8

    def test_order_zero_is_pointwise(self, canonical):
        q, p, _ = canonical
        out = star_product(q, p, hbar=1.0, order=0)
        assert float(np.max(np.abs(out.values - q.values * p.values))) < 1e-14

    def test_hermitian_symmetry(self, grid):
        # conj(f * g) == conj(g) * conj(f), term by term in the truncation
        rng = np.random.default_rng(7)
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = sample(grid, lambda q, p: coeffs[0] * q**2 + coeffs[1] * p + coeffs[2] * q * p)
        g = sample(grid, lambda q, p: coeffs[3] * p**2 + coeffs[4] * q + coeffs[5] * q * p)
        lhs = np.conj(star_product(f, g, 0.3, order=4).values)
        fc = f.with_values(np.conj(f.values))
        gc = g.with_values(np.conj(g.values))
        rhs = star_product(gc, fc, 0.3, order=4).values
        scale = max(float(np.max(np.abs(lhs))), 1.0)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10 * scale

    def test_rejects_negative_hbar(self, canonical):
        q, p, _ = canonical
        with pytest.raises(ValueError):
            star_product(q, p, hbar=-0.1)

    def test_rejects_grid_mismatch(self, grid, canonical):
        q, _, _ = canonical
        other = sample(Grid.square(-2.0, 2.0, 65), lambda q, p: p)
        with pytest.raises(ValueError):
            star_product(q, other, hbar=0.1)


class TestMoyalBracket:
    @pytest.mark.parametrize("hbar", [0.1, 0.5, 1.0])
    def test_canonical_pair_all_hbar(self, canonical, hbar):
        q, p, _ = canonical
        out = moyal_bracket(q, p, hbar)
        assert float(np.max(np.abs(out.values - 1.0))) < 1e-10

    @pytest.mark.parametrize("hbar", [0.25, 0.5, 1.0])
    def test_quadratic_equals_poisson(self, canonical, hbar):
        q, _, h = canonical
        p = canonical[1]
        out = moyal_bracket(h, q, hbar)
        assert interior_max_abs(out + p) < 1e-8

    def test_hbar_zero_is_an_error(self, canonical):
        q, p, _ = canonical
        with pytest.raises(ValueError, match="poisson_bracket"):
            moyal_bracket(q, p, hbar=0.0)

    def test_antisymmetry_machine_precision(self, grid):
        f = sample(grid, lambda q, p: q**3 + np.sin(p))
        g = sample(grid, lambda q, p: p**2 * q)
        fg = moyal_bracket(f, g, 0.3, order=4)
        gf = moyal_bracket(g, f, 0.3, order=4)
        scale = max(interior_max_abs(fg), 1.0)
        assert float(np.max(np.abs(fg.values + gf.values))) < 1e-10 * scale

    def test_cubic_deviation_quarters_when_hbar_halves(self, grid):
        f = sample(grid, lambda q, p: q**3)
        g = sample(grid, lambda q, p: p**3)
        pb = poisson_bracket(f, g)
        errs = [
            interior_max_abs(moyal_bracket(f, g, hbar, order=3) - pb) for hbar in (0.4, 0.2)
        ]
        ratio = errs[0] / errs[1]
        assert abs(ratio - 4.0) < 0.5

    @settings(max_examples=10, deadline=None)
    @given(hbar=st.floats(0.05, 1.0))
    def test_degree_two_exactness_any_hbar(self, hbar):
        # quadratic arguments terminate the series at the Poisson term
        g = Grid.square(-2.0, 2.0, 65)
        f1 = sample(g, lambda q, p: q**2 + 0.5 * q * p)
        f2 = sample(g, lambda q, p: p**2 - q)
        mb = moyal_bracket(f1, f2, hbar, order=6)
        pb = poisson_bracket(f1, f2)
        assert interior_max_abs(mb - pb) < 1e-8


    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_odd_series_matches_star_commutator(self, order):
        # the bracket skips the even terms of the series; the commutator of two
        # full star products is the oracle, and any leaked even term breaks it
        g = Grid(((-2.0, 2.0, 12), (-1.5, 1.5, 13), (-1.8, 2.2, 12), (-2.0, 1.0, 14)))
        f = sample(g, lambda a, b, c, d: np.exp(-0.3 * (a**2 + d**2) + 0.7j * a * c + 0.4j * b))
        h = sample(g, lambda a, b, c, d: np.cos(a + d) + 1j * np.sin(0.5 * c * b) + np.exp(0.2 * b * c))
        hbar = 0.6
        fh = star_product(f, h, hbar, order).values
        hf = star_product(h, f, hbar, order).values
        oracle = (fh - hf) / (1j * hbar)
        out = moyal_bracket(f, h, hbar, order).values
        assert float(np.max(np.abs(out - oracle))) <= 1e-12 * float(np.max(np.abs(oracle)))


class TestTwoDegreesOfFreedom:
    def test_canonical_structure_in_r4(self):
        g = Grid.square(-1.5, 1.5, 21, n_dof=2)
        q1 = sample(g, lambda a, b, c, d: a)
        q2 = sample(g, lambda a, b, c, d: b)
        p1 = sample(g, lambda a, b, c, d: c)
        p2 = sample(g, lambda a, b, c, d: d)
        for hbar in (0.3, 1.0):
            assert float(np.max(np.abs(moyal_bracket(q1, p1, hbar).values - 1.0))) < 1e-10
            assert float(np.max(np.abs(moyal_bracket(q1, p2, hbar).values))) < 1e-10
            assert float(np.max(np.abs(moyal_bracket(q1, q2, hbar).values))) < 1e-10

    def test_isotropic_quadratic_terminates(self):
        # both degree pairs contribute to the second bidifferential term:
        # H * H = H^2 - hbar^2 / 2 for the isotropic quadratic in R^4
        g = Grid.square(-1.5, 1.5, 21, n_dof=2)
        h = sample(g, lambda a, b, c, d: 0.5 * (a * a + b * b + c * c + d * d))
        p1 = sample(g, lambda a, b, c, d: c)
        q1 = sample(g, lambda a, b, c, d: a)
        hbar = 0.5
        s = star_product(h, h, hbar, order=4)
        deviation = s.values - h.values * h.values
        assert float(np.max(np.abs(deviation - (-(hbar**2) / 2.0)))) < 1e-8
        assert interior_max_abs(moyal_bracket(h, q1, hbar) + p1) < 1e-8

    def test_order_four_peak_memory(self):
        # one derivative chain per operand keeps 13 grid-sized arrays live;
        # keeping every planned derivative until its last use needs 43
        g = Grid.square(-1.5, 1.5, 21, n_dof=2)
        f = sample(g, lambda a, b, c, d: np.exp(-0.3 * (a**2 + d**2) + 0.7j * a * c + 0.4j * b))
        h = sample(g, lambda a, b, c, d: np.cos(a + d) + 1j * np.sin(0.5 * c * b))
        star_product(f, h, 0.5, order=4)  # fill the stencil caches first
        tracemalloc.start()
        try:
            star_product(f, h, 0.5, order=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * f.values.nbytes


REAL_GRIDS = {
    "161^2": Grid.square(-2.0, 2.0, 161),
    "21^4": Grid.square(-1.5, 1.5, 21, n_dof=2),
}
#: real operand pairs per degree-of-freedom count: a polynomial and a non-polynomial one
REAL_PAIRS = {
    (1, "polynomial"): (lambda q, p: q**3 + 0.5 * q * p**2, lambda q, p: p**3 - 2.0 * q**2 * p),
    (1, "smooth"): (lambda q, p: np.exp(-0.3 * (q**2 + p**2)) * np.cos(q), lambda q, p: np.sin(q * p) + np.cos(p)),
    (2, "polynomial"): (lambda a, b, c, d: a**3 + b * d + c**2 * a, lambda a, b, c, d: d**3 - a * b * c),
    (2, "smooth"): (
        lambda a, b, c, d: np.exp(-0.3 * (a**2 + d**2)) * np.cos(b + c),
        lambda a, b, c, d: np.sin(a * c) + np.cos(b * d),
    ),
}


def real_pair(grid_name, kind):
    grid = REAL_GRIDS[grid_name]
    f, g = REAL_PAIRS[grid.n_dof, kind]
    return sample(grid, f), sample(grid, g)


def assert_close(out, oracle, rtol, where=...):
    out, oracle = out[where], oracle[where]
    assert float(np.max(np.abs(out - oracle))) <= rtol * float(np.max(np.abs(oracle)))


class TestRealOperands:
    # A purely imaginary operand keeps the complex path, so 1j * f is the oracle
    # for real f. The series are compared on the interior: the BLAS kernels may
    # sum a grid's last column in another order for real and complex samples, and
    # the one-sided high-order stencils there magnify that rounding.

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("kind", ["polynomial", "smooth"])
    @pytest.mark.parametrize("grid_name", REAL_GRIDS)
    def test_series_match_complex_path(self, grid_name, kind, order):
        f, g = real_pair(grid_name, kind)
        for series in (star_product, moyal_bracket):
            oracle = series(1j * f, g, 0.5, order).values / 1j
            assert_close(series(f, g, 0.5, order).values, oracle, 1e-13, interior_slices(f.grid))

    @pytest.mark.parametrize("order", range(7))
    @pytest.mark.parametrize("kind", ["polynomial", "smooth"])
    def test_limit_check_errors_match_complex_path(self, kind, order):
        f, g = real_pair("161^2", kind)
        hbars = [0.4, 0.2, 0.1]
        rep = classical_limit_check(f, g, hbars, order)
        oracle = classical_limit_check(1j * f, g, hbars, order)
        assert_close(np.array(rep.product_errors), np.array(oracle.product_errors), 1e-12)
        assert_close(np.array(rep.bracket_errors), np.array(oracle.bracket_errors), 1e-12)

    @pytest.mark.parametrize("order", [3, 4])
    def test_mixed_pair_matches_complex_path(self, order):
        f, g = real_pair("21^4", "smooth")
        h = g * np.exp(0.4j * f.values)
        inner = interior_slices(f.grid)
        for series in (star_product, moyal_bracket):
            assert_close(series(f, h, 0.5, order).values, series(1j * f, h, 0.5, order).values / 1j, 1e-13, inner)
            assert_close(series(h, f, 0.5, order).values, series(h, 1j * f, 0.5, order).values / 1j, 1e-13, inner)

    def test_tiny_imaginary_part_is_kept(self):
        # only an exactly zero imaginary part makes an operand real; the bracket of
        # f + i eps s with real g has imaginary part eps {s, g}, however small eps is
        # (here below 1e-30 max|f|; a power of two scales without rounding)
        f, g = real_pair("161^2", "smooth")
        s = sample(f.grid, lambda q, p: np.cos(q + p))
        eps = 2.0**-101
        assert eps * np.max(np.abs(s.values)) < 1e-30 * np.max(np.abs(f.values))
        out = moyal_bracket(f + 1j * eps * s, g, 0.5, order=3).values.imag
        assert_close(out, eps * moyal_bracket(s, g, 0.5, order=3).values.real, 1e-12, interior_slices(f.grid))

    def test_order_four_peak_memory(self):
        # real derivative chains, B_m and scratch take half the bytes of complex ones
        f, g = real_pair("21^4", "smooth")
        star_product(f, g, 0.5, order=4)  # fill the stencil caches first
        tracemalloc.start()
        try:
            star_product(f, g, 0.5, order=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * f.values.nbytes


class TestClassicalLimitCheck:
    @pytest.mark.parametrize("order", range(7))
    def test_errors_equal_per_hbar_series(self, grid, order):
        # one set of hbar-free B_m for the sweep, bit for bit the full series per hbar
        f = sample(grid, lambda q, p: q**3)
        g = sample(grid, lambda q, p: p**3)
        hbars = [0.4, 0.2, 0.1]
        rep = classical_limit_check(f, g, hbars, order)
        assert (list(rep.product_errors), list(rep.bracket_errors)) == per_hbar_errors(f, g, hbars, order)

    def test_cubic_slopes(self, grid):
        f = sample(grid, lambda q, p: q**3)
        g = sample(grid, lambda q, p: p**3)
        rep = classical_limit_check(f, g, [0.4, 0.2, 0.1])
        assert 0.9 <= rep.product_slope <= 1.1
        assert 1.8 <= rep.bracket_slope <= 2.2

    def test_quadratic_product_slope(self, grid):
        # the first star correction to q^2 * p^2 is imaginary but still O(hbar)
        f = sample(grid, lambda q, p: q**2)
        g = sample(grid, lambda q, p: p**2)
        rep = classical_limit_check(f, g, [0.4, 0.2, 0.1])
        assert 0.9 <= rep.product_slope <= 1.1

    def test_commuting_functions_of_q_are_exact(self, grid):
        f = sample(grid, lambda q, p: np.sin(q))
        g = sample(grid, lambda q, p: q**2)
        rep = classical_limit_check(f, g, [0.4, 0.2, 0.1])
        assert rep.product_exact and rep.bracket_exact
        assert rep.product_slope is None and rep.bracket_slope is None

    def test_commuting_functions_of_h_second_order(self, grid):
        # both arguments functions of the same Hamiltonian: product deviation O(hbar^2)
        f = sample(grid, lambda q, p: 0.5 * (q**2 + p**2))
        g = sample(grid, lambda q, p: (0.5 * (q**2 + p**2)) ** 2)
        rep = classical_limit_check(f, g, [0.4, 0.2, 0.1])
        assert rep.product_slope >= 1.9

    def test_rejects_short_sequence(self, canonical):
        q, p, _ = canonical
        with pytest.raises(ValueError):
            classical_limit_check(q, p, [0.4, 0.2])

    def test_rejects_nondecreasing_sequence(self, canonical):
        q, p, _ = canonical
        with pytest.raises(ValueError):
            classical_limit_check(q, p, [0.1, 0.2, 0.4])
        with pytest.raises(ValueError):
            classical_limit_check(q, p, [0.4, 0.4, 0.2])


@pytest.fixture
def derivative_calls(monkeypatch):
    """Count the derivatives that moyal takes, wrapped in its namespace as a tracer would."""
    calls = []
    derivative = moyal._derivative_values

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return derivative(*args, **kwargs)

    monkeypatch.setattr(moyal, "_derivative_values", counted)
    return calls


class TestDerivativeSchedule:
    # both operands follow one chain rule and their chains run in preorder, so on
    # two degrees of freedom each takes one derivative per distinct multi-index
    # (14, 69 and 209 at orders 2, 4 and 6); the previous rule took 31, 162, 516,
    # 66 and 21 calls for the five cases below

    @pytest.mark.parametrize("order, expected", [(2, 28), (4, 138), (6, 418)])
    def test_star_product_calls(self, derivative_calls, order, expected):
        f, g = (sample(Grid.square(-1.5, 1.5, 9, n_dof=2), fn) for fn in REAL_PAIRS[2, "smooth"])
        star_product(f, g, 0.5, order)
        assert len(derivative_calls) == expected

    def test_bracket_calls(self, derivative_calls):
        f, g = (sample(Grid.square(-1.5, 1.5, 9, n_dof=2), fn) for fn in REAL_PAIRS[2, "smooth"])
        moyal_bracket(f, g, 0.5, order=4)
        assert len(derivative_calls) <= 62

    def test_limit_check_calls(self, derivative_calls):
        f, g = (sample(Grid.square(-2.0, 2.0, 33), fn) for fn in REAL_PAIRS[1, "smooth"])
        classical_limit_check(f, g, [0.4, 0.2, 0.1], order=3)
        assert len(derivative_calls) <= 18


def whole_array_bidifferentials(f, g, orders):
    """Oracle: B_m from whole-array passes over the same terms in the same order."""
    fd, gd = _DerivativeCache(f.values, f.grid), _DerivativeCache(g.values, g.grid)
    sums = {m: np.zeros(f.grid.shape, np.result_type(fd.dtype, gd.dtype)) for m in orders}
    for weight, m, chain_f, chain_g in _bidifferential_terms(f.grid.n_dof, orders):
        sums[m] += weight * fd.get(chain_f) * gd.get(chain_g)
    return sums


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_blocked_accumulation_is_bit_identical(kind):
    # 15^4 samples are one full block and a tail
    grid = Grid.square(-1.5, 1.5, 15, n_dof=2)
    assert BLOCK < grid.n_points < 2 * BLOCK
    f, g = (sample(grid, fn) for fn in REAL_PAIRS[2, "smooth"])
    if kind == "complex":
        f, g = f * np.exp(0.3j * g.values), g + 0.5j * f
    orders = range(1, 5)
    out, oracle = _bidifferentials(f, g, orders), whole_array_bidifferentials(f, g, orders)
    for m in orders:
        assert out[m].dtype == oracle[m].dtype == (float if kind == "real" else complex)
        assert np.array_equal(out[m], oracle[m])
