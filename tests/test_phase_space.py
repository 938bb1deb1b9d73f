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
    _tiles,
    integrate,
    interior_max_abs,
    interior_slices,
    partial_derivative,
    poisson_bracket,
)
from oracles import per_row_difference_matrix, placed_tiles


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
            d = placed_tiles(g.shape[axis], g.spacing(axis), order)
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
    # axis lengths and non-dyadic spacings; the weights are placed, not recomputed
    # per row. 9..21 nodes are one tile, 25..40 two tiles of one dense block, and
    # 161 and 1281 span 7 and 54 tiles whose interior ones share one block
    AXES = [(count, 2.7 / (count - 1)) for count in range(9, 22)] + [
        (25, 0.1), (40, 0.1), (161, 0.4 / np.pi), (1281, 0.011)
    ]

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_per_row_fornberg_oracle(self, order):
        for count, spacing in self.AXES:
            d = placed_tiles(count, spacing, order)
            expected = per_row_difference_matrix(count, spacing, order)
            assert not d[expected == 0].any()  # no weight outside the oracle's windows
            row_max = np.max(np.abs(expected), axis=1, keepdims=True)
            assert np.all(np.abs(d - expected) <= 1e-12 * row_max), count

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_mirror_identity_is_exact(self, order):
        # the last rows are the first ones reversed times (-1)^order, so
        # reflecting the axis maps the matrix onto itself bit for bit
        for count, spacing in [(9, 0.3), (21, 2.7 / 20), (40, 0.1), (161, 0.4 / np.pi)]:
            for parts in (1, 2):
                d = placed_tiles(count, spacing, order, parts)
                assert np.array_equal(d[::-1, ::-1], (-1) ** order * d), (count, parts)

    def test_interleaved_tiles_are_kron_with_the_identity(self):
        for count in (9, 40, 161):
            d = placed_tiles(count, 0.1, 3)
            assert np.array_equal(placed_tiles(count, 0.1, 3, parts=2), np.kron(d, np.eye(2))), count

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
                    placed_tiles(count, spacing, order)
            half = (order + 1) // 2 + 1
            assert 0 < calls[order] <= 1 + half

    def test_short_axis_refused(self):
        with pytest.raises(ValueError, match="too small for order-4 stencils"):
            placed_tiles(7, 0.1, 4)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_cached_tiles_do_not_grow_with_the_axis(self, order):
        # one dense 5121-node matrix took 210 MB; every tile is a view of one
        # block of at most TILE + 2 (order + 4) nodes squared, whatever the axis,
        # and the tiles' heights differ by at most one row (no short tail tile)
        def cached_bytes(count, parts, layout):
            owners = {}
            for _, _, weights in _tiles(count, 0.01, order, parts, layout):
                owner = weights if weights.base is None else weights.base
                owners[id(owner)] = owner.nbytes
            return sum(owners.values())

        side = phase_space.TILE + 2 * (order + 4)
        for parts, layout in ((1, "C"), (1, "F"), (2, "F")):
            sizes = [cached_bytes(count, parts, layout) for count in (641, 1281, 5121)]
            assert sizes[0] == sizes[1] == sizes[2] <= 8 * (parts * side) ** 2, (parts, sizes)
            heights = [rows.stop - rows.start for rows, _, _ in _tiles(5121, 0.01, order, parts, layout)]
            assert len(heights) == -(-5121 // phase_space.TILE) and max(heights) - min(heights) <= parts


# the exact derivatives of sin(k x + 1/2) and exp(i k x), each times a factor
# that varies along the other axis
WAVES = {
    float: lambda x, k, order: (np.sin(k * x + 0.5), k**order * np.sin(k * x + 0.5 + order * np.pi / 2)),
    complex: lambda x, k, order: (np.exp(1j * k * x), (1j * k) ** order * np.exp(1j * k * x)),
}


@pytest.mark.parametrize("order, dtype", complex_and_real(1, 2, 3, 4))
def test_multi_tile_axes_hold_the_oracle_error(order, dtype):
    # 641 and 1281 nodes are 27 and 54 tiles on axis 0 and on the last axis;
    # against the closed form, the tiled error is at most twice that of the
    # per-row oracle matrix applied by tensordot (measured: at most 1.24 times,
    # at order 4, where round-off dominates)
    for count in (641, 1281):
        for axis in (0, 1):
            axes = [(-2.0, 2.0, 9), (-2.0, 2.0, 9)]
            axes[axis] = (-2.0, 2.0, count)
            g = Grid(tuple(axes))
            shape, across = ((count, 1), (1, 9)) if axis == 0 else ((1, count), (9, 1))
            other = np.linspace(1.0, 2.0, 9).reshape(across)
            wave, exact = (w.reshape(shape) * other for w in WAVES[dtype](g.coordinate(axis), 3.0, order))
            v = np.ascontiguousarray(wave)
            tiled = np.max(np.abs(_derivative_values(v, g, axis, order) - exact))
            d = per_row_difference_matrix(count, g.spacing(axis), order)
            oracle = np.max(np.abs(np.moveaxis(np.tensordot(d, v, (1, axis)), 0, axis) - exact))
            assert tiled <= 2.0 * oracle, (count, axis, tiled, oracle)


# two- and four-axis grids of one-tile axes (at most TILE nodes) and of
# multi-tile ones, with distinct counts so a mixed-up slab cannot pass by symmetry
SLAB_GRIDS = {
    "2-axis-one-tile": ((-1.0, 1.0, 9), (-2.0, 1.0, 13)),
    "2-axis-multi-tile": ((-1.0, 1.0, 41), (-2.0, 1.0, 57)),
    "4-axis-one-tile": ((-1.0, 1.0, 9), (-2.0, 1.0, 10), (0.0, 3.0, 11), (-1.5, 2.5, 12)),
    "4-axis-multi-tile": ((-1.0, 1.0, 30), (-2.0, 1.0, 9), (0.0, 3.0, 10), (-1.5, 2.5, 26)),
}


def thin_slabs(monkeypatch, lines):
    """Slabs of ``lines`` columns on axis 0 and rows on the last axis, whatever the array's size."""
    monkeypatch.setattr(phase_space, "SLAB", 0)
    monkeypatch.setattr(phase_space, "MIN_SLAB_LINES", lines)


def counted_matmuls(monkeypatch) -> list:
    """A list that gets one entry per ``np.matmul`` call from here on."""
    calls, matmul = [], np.matmul

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


class TestSlabs:
    @pytest.mark.parametrize("order, dtype", complex_and_real(1, 2, 3, 4))
    @pytest.mark.parametrize("name", list(SLAB_GRIDS))
    def test_thin_slabs_match_one_slab_and_the_oracle(self, monkeypatch, name, order, dtype):
        # slabs of 1 and 7 lines, the last one short, against one slab of the
        # whole array (the unslabbed matmuls) and against the per-row Fornberg
        # matrix; BLAS may pick another kernel for a thinner matmul, so a slab
        # can move the last bits, on axis 0 and on the last axis alike
        g = Grid(SLAB_GRIDS[name])
        v = random_samples(g.shape, dtype, seed=11)
        monkeypatch.setattr(phase_space, "SLAB", 2**62)
        whole = [_derivative_values(v, g, axis, order) for axis in range(len(g.axes))]
        for lines in (1, 7):
            thin_slabs(monkeypatch, lines)
            for axis, expected in enumerate(whole):
                out = _derivative_values(v, g, axis, order)
                assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected)), (lines, axis)
                d = per_row_difference_matrix(g.shape[axis], g.spacing(axis), order)
                oracle = np.moveaxis(np.tensordot(d, v, (1, axis)), 0, axis)
                assert np.max(np.abs(out - oracle)) <= 1e-12 * np.max(np.abs(oracle)), (lines, axis)

    def test_one_matmul_per_tile_within_one_slab(self, monkeypatch):
        # the six defaults' path: moyal-convergence differentiates 161^2 real
        # samples, 207 kB and so one slab; a middle axis is never slabbed,
        # however large the array
        cases = [
            (Grid.square(-2.0, 2.0, 161), float, (0, 1)),
            (Grid(SLAB_GRIDS["2-axis-multi-tile"]), complex, (0, 1)),
            (Grid(SLAB_GRIDS["4-axis-one-tile"]), complex, (0, 1, 2, 3)),
            (Grid.square(-2.0, 2.0, 21, n_dof=2), float, (1, 2)),  # 1.5 MB
        ]
        calls = counted_matmuls(monkeypatch)
        for g, dtype, axes in cases:
            v = random_samples(g.shape, dtype, seed=5)
            for axis in axes:
                for order in (1, 2, 3, 4):
                    calls.clear()
                    _derivative_values(v, g, axis, order)
                    assert len(calls) == -(-g.shape[axis] // phase_space.TILE), (g.shape, axis, order)

    @pytest.mark.parametrize("lines", [1, 7])
    def test_thin_slabs_split_only_axis_0_and_the_last_axis(self, monkeypatch, lines):
        # axis 0 goes in slabs of its trailing floats, the last axis in slabs
        # of the flat view's rows; every tile runs once per slab
        thin_slabs(monkeypatch, lines)
        calls = counted_matmuls(monkeypatch)
        g = Grid(SLAB_GRIDS["4-axis-multi-tile"])
        for dtype in (float, complex):
            v = random_samples(g.shape, dtype, seed=5)
            widths = {0: v.nbytes // 8 // g.shape[0], 3: v.size // g.shape[3]}
            for axis in range(4):
                calls.clear()
                _derivative_values(v, g, axis, 3)
                slabs = -(-widths[axis] // lines) if axis in widths else 1
                assert len(calls) == slabs * -(-g.shape[axis] // phase_space.TILE), (dtype, axis)


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
    # real samples are float64, so every axis takes the real tiles (parts == 1),
    # not the half-zero kron(w, I_2) tiles of interleaved complex samples
    parts = []
    tiles = phase_space._tiles

    def spy(count, spacing, order, n_parts, layout):
        parts.append(n_parts)
        return tiles(count, spacing, order, n_parts, layout)

    monkeypatch.setattr(phase_space, "_tiles", spy)
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
