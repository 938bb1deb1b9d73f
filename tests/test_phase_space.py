"""Grid, quadrature, derivative, and bracket tests."""

import collections
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasedec import phase_space
from phasedec.phase_space import (
    Grid,
    PhaseFunction,
    _derivative_values,
    _difference_matrix,
    integrate,
    interior_max_abs,
    interior_slices,
    partial_derivative,
    poisson_bracket,
)
from oracles import per_row_difference_matrix


@pytest.fixture(scope="module")
def grid():
    return Grid.square(-3.0, 3.0, 129)


def sample(grid, fn):
    return PhaseFunction.sample(grid, fn)


def complex_and_real(*values):
    """Cases (value, complex) with id ``value`` and (value, float) with id ``value-real``."""
    return [pytest.param(v, complex, id=f"{v}") for v in values] + [
        pytest.param(v, float, id=f"{v}-real") for v in values
    ]


def random_samples(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape)
    return v if dtype is float else v + 1j * rng.standard_normal(shape)


class TestTypes:
    def test_grid_rejects_small_axis(self):
        with pytest.raises(ValueError):
            Grid.square(0.0, 1.0, 4)

    def test_grid_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Grid.rectangle((1.0, 1.0, 16), (0.0, 1.0, 16))

    def test_grid_spacing(self):
        g = Grid.rectangle((0.0, 1.0, 11), (0.0, 2.0, 21))
        assert g.spacing(0) == pytest.approx(0.1)
        assert g.spacing(1) == pytest.approx(0.1)
        assert g.shape == (11, 21)
        assert g.n_points == 231

    def test_symplectic_pairs_give_kronecker(self):
        # {q_i, p_j} computed from the form equals delta_ij
        g = Grid.square(-1.0, 1.0, 17, n_dof=2)
        q0 = sample(g, lambda q0, q1, p0, p1: q0)
        q1 = sample(g, lambda q0, q1, p0, p1: q1)
        p0 = sample(g, lambda q0, q1, p0, p1: p0)
        p1 = sample(g, lambda q0, q1, p0, p1: p1)
        assert interior_max_abs(poisson_bracket(q0, p0) - 1.0) < 1e-10
        assert interior_max_abs(poisson_bracket(q0, p1)) < 1e-10
        assert interior_max_abs(poisson_bracket(q1, p1) - 1.0) < 1e-10

    def test_phase_function_shape_mismatch(self, grid):
        with pytest.raises(ValueError):
            PhaseFunction(grid, np.zeros((3, 3)))

    def test_phase_function_rejects_nan(self, grid):
        values = np.zeros(grid.shape, dtype=complex)
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            PhaseFunction(grid, values)

    def test_values_are_read_only(self, grid):
        f = sample(grid, lambda q, p: q)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_sample_passes_open_meshes_and_broadcasts_once(self):
        g = Grid(((-1.0, 1.0, 9), (0.0, 2.0, 10), (-2.0, 0.0, 11), (1.0, 3.0, 12)))
        shapes = []
        f = sample(g, lambda *x: shapes.append([c.shape for c in x]) or x[0] * x[3] + x[1])
        assert shapes == [[(9, 1, 1, 1), (1, 10, 1, 1), (1, 1, 11, 1), (1, 1, 1, 12)]]
        full = np.meshgrid(*(axis.nodes() for axis in g.axes), indexing="ij")
        assert np.array_equal(f.values, full[0] * full[3] + full[1])
        assert f.values.flags.c_contiguous and f.values.dtype == float
        # a constant or a function of one coordinate needs no padding
        assert np.array_equal(sample(g, lambda *x: 2.5).values, np.full(g.shape, 2.5))
        assert np.array_equal(sample(g, lambda *x: x[1]).values, full[1])


class TestIntegrate:
    def test_zero(self, grid):
        assert integrate(PhaseFunction(grid, np.zeros(grid.shape))) == 0

    def test_constant_on_unit_square(self):
        g = Grid.square(0.0, 1.0, 33)
        assert integrate(sample(g, lambda q, p: 1.0 + 0 * q)) == pytest.approx(1.0, abs=1e-12)

    def test_constant_on_unit_hypercube(self):
        g = Grid.square(0.0, 1.0, 9, n_dof=2)
        f = sample(g, lambda q1, q2, p1, p2: 1.0 + 0 * q1)
        assert integrate(f) == pytest.approx(1.0, abs=1e-12)

    def test_normalized_gaussian(self):
        g = Grid.square(-6.0, 6.0, 129)
        f = sample(g, lambda q, p: np.exp(-(q**2) - p**2) / np.pi)
        assert integrate(f).real == pytest.approx(1.0, abs=1e-6)

    def test_monotone_convergence_under_refinement(self):
        errors = []
        for count in (9, 13, 17):
            g = Grid.square(-6.0, 6.0, count)
            f = sample(g, lambda q, p: np.exp(-(q**2) - p**2) / np.pi)
            errors.append(abs(integrate(f).real - 1.0))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize(
        "axes",
        [
            ((-2.0, 3.0, 37), (-0.5, 4.5, 53)),
            ((-1.0, 2.0, 9), (0.0, 5.0, 11), (-3.0, 1.0, 13), (2.0, 2.5, 15)),
        ],
        ids=["2-axis", "4-axis"],
    )
    def test_matches_nested_trapezoid_rule(self, axes):
        # distinct counts and spacings: every axis must get its own weights
        grid = Grid(axes)
        values = np.random.default_rng(11).normal(size=grid.shape + (2,)) @ [1.0, 1j]
        expected = values
        for axis in reversed(range(len(axes))):
            expected = np.trapezoid(expected, dx=grid.spacing(axis), axis=axis)
        scale = float(np.sum(np.abs(values))) * np.prod([grid.spacing(a) for a in range(len(axes))])
        assert abs(integrate(PhaseFunction(grid, values)) - expected) <= 1e-13 * scale

    def test_rejects_nonfinite(self, grid):
        # construction is the choke point: non-finite samples never reach quadrature
        bad = np.zeros(grid.shape, dtype=complex)
        bad[2, 2] = np.inf
        with pytest.raises(ValueError):
            PhaseFunction(grid, bad)


class TestPartialDerivative:
    def test_linear(self, grid):
        f = sample(grid, lambda q, p: q)
        df = partial_derivative(f, axis=0)
        assert interior_max_abs(df - 1.0) < 1e-10

    def test_polynomial_exact(self, grid):
        f = sample(grid, lambda q, p: q**2 * p)
        df = partial_derivative(f, axis=1)
        q2 = sample(grid, lambda q, p: q**2)
        assert interior_max_abs(df - q2) < 1e-8

    def test_fourth_order_refinement(self):
        errors = []
        for count in (65, 129):
            g = Grid.square(-3.0, 3.0, count)
            f = sample(g, lambda q, p: np.sin(q))
            d2 = partial_derivative(f, axis=0, order=2)
            target = sample(g, lambda q, p: -np.sin(q))
            errors.append(interior_max_abs(d2 - target))
        ratio = errors[0] / errors[1]
        assert 12.0 < ratio < 20.0

    def test_higher_orders(self, grid):
        f = sample(grid, lambda q, p: q**4)
        d3 = partial_derivative(f, axis=0, order=3)
        d4 = partial_derivative(f, axis=0, order=4)
        target3 = sample(grid, lambda q, p: 24.0 * q)
        assert interior_max_abs(d3 - target3) < 1e-6
        assert interior_max_abs(d4 - 24.0) < 1e-6

    @pytest.mark.parametrize("order, dtype", complex_and_real(1, 2, 3, 4))
    def test_every_axis_matches_tensordot(self, order, dtype):
        # distinct counts and spacings per axis, so a mixed-up reshape or the
        # last-axis branch cannot pass by symmetry; real samples stay real
        g = Grid(((-1.0, 1.0, 9), (-2.0, 1.0, 10), (0.0, 3.0, 11), (-1.5, 2.5, 12)))
        v = random_samples(g.shape, dtype, seed=7)
        for axis in range(4):
            d = _difference_matrix(g.shape[axis], g.spacing(axis), order)
            expected = np.moveaxis(np.tensordot(d, v, (1, axis)), 0, axis)
            out = _derivative_values(v, g, axis, order)
            assert out.dtype == v.dtype
            assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("axis, dtype", complex_and_real(0, 1, 2, 3))
    def test_out_buffer_holds_the_same_values(self, axis, dtype):
        g = Grid(((-1.0, 1.0, 9), (-2.0, 1.0, 10), (0.0, 3.0, 11), (-1.5, 2.5, 12)))
        v = random_samples(g.shape, dtype, seed=3)
        out = np.full(g.shape, np.nan, dtype=dtype)
        assert _derivative_values(v, g, axis, 2, out=out) is out
        assert np.array_equal(out, _derivative_values(v, g, axis, 2))

    # a bool or a float order or axis used to reach numpy and fail there with a
    # broadcast or slice-index error; True would also have read as order 1
    @pytest.mark.parametrize(
        "order",
        [5, 0, True, 2.0, np.bool_(True), np.float64(1.0)],
        ids=["5", "0", "bool", "float", "numpy-bool", "numpy-float"],
    )
    def test_order_out_of_range(self, grid, order):
        f = sample(grid, lambda q, p: q)
        with pytest.raises(ValueError, match="derivative order must be an integer"):
            partial_derivative(f, axis=0, order=order)

    @pytest.mark.parametrize(
        "axis", [2, -1, True, 1.0, np.float64(0.0)], ids=["2", "-1", "bool", "float", "numpy-float"]
    )
    def test_axis_out_of_range(self, grid, axis):
        f = sample(grid, lambda q, p: q)
        with pytest.raises(ValueError, match=re.escape(f"axis {axis!r} is not an integer")):
            partial_derivative(f, axis=axis)

    def test_numpy_integer_order_and_axis(self, grid):
        f = sample(grid, lambda q, p: q**2 * p)
        expected = partial_derivative(f, axis=0, order=2).values
        assert np.array_equal(partial_derivative(f, axis=np.int64(0), order=np.int64(2)).values, expected)


class TestDifferenceMatrix:
    # axis lengths and non-dyadic spacings; the weights are placed, not recomputed per row
    AXES = [(count, 2.7 / (count - 1)) for count in range(9, 22)] + [(161, 0.4 / np.pi), (1281, 0.011)]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_per_row_fornberg_oracle(self, order):
        for count, spacing in self.AXES:
            d = _difference_matrix.__wrapped__(count, spacing, order)
            expected = per_row_difference_matrix(count, spacing, order)
            assert not d[expected == 0].any()  # no weight outside the oracle's windows
            row_max = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.all(np.abs(d - expected) <= 1e-12 * row_max), count

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_mirror_identity_is_exact(self, order):
        # the last rows are the first ones reversed times (-1)^order, so
        # reflecting the axis maps the matrix onto itself bit for bit
        for count, spacing in [(9, 0.3), (21, 2.7 / 20), (161, 0.4 / np.pi)]:
            d = _difference_matrix.__wrapped__(count, spacing, order)
            assert np.array_equal(d[::-1, ::-1], (-1) ** order * d), count

    def test_fornberg_runs_once_per_stencil_row_whatever_the_axes(self, monkeypatch):
        calls = collections.Counter()
        weights = phase_space._fornberg_weights

        def spy(x0, nodes, order):
            calls[order] += 1
            return weights(x0, nodes, order)

        monkeypatch.setattr(phase_space, "_fornberg_weights", spy)
        phase_space._integer_stencils.cache_clear()
        for order in (1, 2, 3, 4):
            for count in (21, 161, 1281):
                for spacing in (0.1, 0.4 / np.pi):
                    _difference_matrix.__wrapped__(count, spacing, order)
            half = (order + 1) // 2 + 1
            assert 0 < calls[order] <= 1 + half

    def test_short_axis_refused(self):
        with pytest.raises(ValueError, match="too small for order-4 stencils"):
            _difference_matrix.__wrapped__(7, 0.1, 4)


class TestPoissonBracket:
    def test_canonical_pair(self, grid):
        q = sample(grid, lambda q, p: q)
        p = sample(grid, lambda q, p: p)
        assert interior_max_abs(poisson_bracket(q, p) - 1.0) < 1e-10

    def test_self_bracket_vanishes(self, grid):
        h = sample(grid, lambda q, p: 0.5 * (q**2 + p**2))
        assert interior_max_abs(poisson_bracket(h, h)) < 1e-12

    def test_harmonic_flow(self, grid):
        h = sample(grid, lambda q, p: 0.5 * (q**2 + p**2))
        q = sample(grid, lambda q, p: q)
        p = sample(grid, lambda q, p: p)
        assert interior_max_abs(poisson_bracket(h, q) + p) < 1e-8

    def test_grid_mismatch(self, grid):
        other = Grid.square(-3.0, 3.0, 65)
        with pytest.raises(ValueError):
            poisson_bracket(sample(grid, lambda q, p: q), sample(other, lambda q, p: p))

    @settings(max_examples=15, deadline=None)
    @given(
        a=st.floats(-2, 2),
        b=st.floats(-2, 2),
        c=st.floats(-2, 2),
        d=st.floats(-2, 2),
    )
    def test_antisymmetry_on_random_polynomials(self, a, b, c, d):
        g = Grid.square(-2.0, 2.0, 33)
        f1 = sample(g, lambda q, p: a * q**2 + b * p + c * q * p)
        f2 = sample(g, lambda q, p: d * p**2 + a * q + b * q * p)
        fg = poisson_bracket(f1, f2)
        gf = poisson_bracket(f2, f1)
        assert float(np.max(np.abs(fg.values + gf.values))) < 1e-10

    def test_leibniz_rule_refinement_convergent(self):
        # non-separable factors: the discrete product rule only holds up to
        # stencil error, which must shrink at 4th order under refinement
        errors = []
        for count in (65, 129):
            g = Grid.square(-2.0, 2.0, count)
            f = sample(g, lambda q, p: np.sin(q) * p)
            u = sample(g, lambda q, p: np.cos(q + p))
            v = sample(g, lambda q, p: np.sin(q * p))
            lhs = poisson_bracket(f, u * v)
            rhs = u * poisson_bracket(f, v) + poisson_bracket(f, u) * v
            errors.append(interior_max_abs(lhs - rhs))
        assert errors[1] < errors[0] / 8.0


@pytest.mark.parametrize(
    "apply",
    [lambda f, g: partial_derivative(f, axis=1, order=2), poisson_bracket],
    ids=["partial_derivative", "poisson_bracket"],
)
def test_real_operands_take_the_real_last_axis_stencil(monkeypatch, apply):
    # real samples are float64, so the last axis multiplies by d.T (parts == 1),
    # not by the half-zero kron(d.T, I_2) of interleaved complex samples
    parts = []
    stencil = phase_space._interleaved_difference_matrix

    def spy(count, spacing, order, n_parts):
        parts.append(n_parts)
        return stencil(count, spacing, order, n_parts)

    monkeypatch.setattr(phase_space, "_interleaved_difference_matrix", spy)
    g = Grid.rectangle((-2.0, 2.0, 33), (-1.0, 3.0, 41))
    f = sample(g, lambda q, p: np.sin(q) * p**2)
    h = sample(g, lambda q, p: np.cos(q + p) + 0j)  # complex-typed, imaginary part exactly zero
    out = apply(f, h)
    assert parts and set(parts) == {1}
    assert out.values.dtype == np.float64


def test_interior_slices_keep_80_percent():
    g = Grid.square(0.0, 1.0, 100)
    sl = interior_slices(g)
    assert sl[0] == slice(10, 90)
    assert sl[1] == slice(10, 90)
