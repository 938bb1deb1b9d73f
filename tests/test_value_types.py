"""Validation shared by every value type: owned read-only copies, one dtype rule and one hermitian rule."""

import tracemalloc
from operator import attrgetter

import numpy as np
import pytest

from phasedec.decoherence import Trajectory
from phasedec.phase_space import Axis, Grid, PhaseFunction
from phasedec.spectral import (
    CoherenceTerms,
    Observable,
    SpectralGrid,
    plane_wave_matrix,
    synthesize_kernel,
    synthesize_wavefunction,
)
from phasedec.states import AdmissibilityError, ClassicalDensity, State, make_state
from phasedec.weyl import (
    OperatorKernel,
    WaveFunction,
    gaussian_state,
    oscillator_state,
    wigner_of_pure_state,
)
from oracles import dense_terms

GRID = Grid.square(-1.0, 1.0, 8)
SGRID = SpectralGrid(1.0, 16)
AXIS = (0.0, 1.0, 8)
TIMES = np.arange(1.0, 9.0)


def _complex(*shape):
    rng = np.random.default_rng(0)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# (build from one array, attribute path holding it, dtype kept, valid array, wrongly shaped array)
CASES = [
    pytest.param(
        lambda a: PhaseFunction(GRID, a), "values", complex, _complex(8, 8), _complex(8, 7),
        id="PhaseFunction.values",
    ),
    pytest.param(
        lambda a: OperatorKernel(AXIS, u=a), "u", complex, _complex(2, 8), _complex(2, 9),
        id="OperatorKernel.u",
    ),
    pytest.param(
        lambda a: OperatorKernel(AXIS, u=np.ones((2, 8)), s=a), "s", float, np.array([0.5, -2.0]),
        np.ones(3), id="OperatorKernel.s",
    ),
    pytest.param(
        lambda a: WaveFunction(AXIS, a), "values", complex, _complex(8), _complex(7),
        id="WaveFunction.values",
    ),
    pytest.param(
        lambda a: State(SGRID, a), "diagonal", float, np.linspace(0, 1, 16),
        np.ones(15), id="State.diagonal",
    ),
    pytest.param(
        lambda a: State(SGRID, np.ones(16), CoherenceTerms(SGRID, a, a)), "regular.a", complex,
        _complex(2, 16), _complex(16), id="State.regular",
    ),
    pytest.param(
        lambda a: ClassicalDensity(SGRID, a), "values", float, np.linspace(0, 1, 16),
        np.ones((16, 1)), id="ClassicalDensity.values",
    ),
    pytest.param(
        lambda a: Observable(SGRID, a), "singular", complex, _complex(16),
        _complex(17), id="Observable.singular",
    ),
    pytest.param(
        lambda a: Observable(SGRID, np.zeros(16), CoherenceTerms(SGRID, a, a)), "regular.a",
        complex, _complex(1, 16), _complex(1, 15), id="Observable.regular",
    ),
    pytest.param(
        lambda a: CoherenceTerms(SGRID, np.ones((2, 16)), a), "b", complex, _complex(2, 16),
        _complex(3, 16), id="CoherenceTerms.b",
    ),
    pytest.param(
        lambda a: CoherenceTerms(SGRID, np.ones((1, 16)), np.ones((1, 16)), a), "c", complex,
        _complex(1, 31), _complex(1, 16), id="CoherenceTerms.c",
    ),
    pytest.param(
        lambda a: Trajectory(a, np.zeros(np.shape(a)), 0.0), "times", float, TIMES,
        TIMES.reshape(2, 4), id="Trajectory.times",
    ),
    pytest.param(
        lambda a: Trajectory(TIMES, a, 0.0), "values", complex, _complex(8), _complex(9),
        id="Trajectory.values",
    ),
]


@pytest.mark.parametrize("build, attr, dtype, valid, wrong", CASES)
def test_keeps_an_owned_read_only_copy(build, attr, dtype, valid, wrong):
    source = valid.copy()
    stored = attrgetter(attr)(build(source))
    source.flat[0] += 1.0
    np.testing.assert_array_equal(stored, valid)
    assert stored.dtype == dtype
    assert not np.shares_memory(stored, source)
    assert not stored.flags.writeable
    with pytest.raises(ValueError):
        stored.flat[0] = 0.0


@pytest.mark.parametrize("build, attr, dtype, valid, wrong", CASES)
def test_rejects_a_wrong_shape_and_a_nan(build, attr, dtype, valid, wrong):
    with pytest.raises(ValueError):
        build(wrong)
    bad = valid.copy()
    bad.flat[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        build(bad)


# the arrays that hold real samples as float64: (build from one array, attribute path, shape)
REAL_OR_COMPLEX = [
    pytest.param(lambda a: PhaseFunction(GRID, a), "values", (8, 8), id="PhaseFunction.values"),
    pytest.param(lambda a: WaveFunction(AXIS, a), "values", (8,), id="WaveFunction.values"),
    pytest.param(lambda a: OperatorKernel(AXIS, u=a), "u", (2, 8), id="OperatorKernel.u"),
]


@pytest.mark.parametrize("build, attr, shape", REAL_OR_COMPLEX)
def test_real_samples_are_stored_as_float64(build, attr, shape):
    real = np.random.default_rng(1).normal(size=shape)
    # real-typed, and complex with an imaginary part of exactly zero
    for samples in (real, real + 0j, real.tolist()):
        stored = attrgetter(attr)(build(samples))
        assert stored.dtype == np.float64
        np.testing.assert_array_equal(stored, real)


@pytest.mark.parametrize("build, attr, shape", REAL_OR_COMPLEX)
def test_any_nonzero_imaginary_part_stays_complex128(build, attr, shape):
    samples = np.random.default_rng(1).normal(size=shape) + 0j
    samples.flat[-1] += 1j * 2.0**-1074  # the smallest subnormal, in one sample
    stored = attrgetter(attr)(build(samples))
    assert stored.dtype == np.complex128
    np.testing.assert_array_equal(stored, samples)


# arrays whose dtype is declared, whatever the samples: (build from one array, attribute, dtype, shape)
FIXED_DTYPE = [
    pytest.param(
        lambda a: OperatorKernel(AXIS, u=np.ones((2, 8)), s=a), "s", float, (2,), id="OperatorKernel.s"
    ),
    pytest.param(lambda a: State(SGRID, a), "diagonal", float, (16,), id="State.diagonal"),
    pytest.param(
        lambda a: State(SGRID, np.ones(16), CoherenceTerms(SGRID, a, a)), "regular.a", complex,
        (1, 16), id="State.regular",
    ),
    pytest.param(lambda a: Observable(SGRID, a), "singular", complex, (16,), id="Observable.singular"),
    pytest.param(
        lambda a: CoherenceTerms(SGRID, a, a), "b", complex, (2, 16), id="CoherenceTerms.b"
    ),
    pytest.param(
        lambda a: CoherenceTerms(SGRID, np.ones((1, 16)), np.ones((1, 16)), a), "c", complex,
        (1, 31), id="CoherenceTerms.c",
    ),
    pytest.param(lambda a: Trajectory(TIMES, a, 0.0), "values", complex, (8,), id="Trajectory.values"),
]


@pytest.mark.parametrize("build, attr, dtype, shape", FIXED_DTYPE)
def test_other_arrays_keep_their_declared_dtype(build, attr, dtype, shape):
    real = np.linspace(0.5, 1.0, np.prod(shape)).reshape(shape)
    for samples in (real, real + 0j) if dtype is complex else (real,):
        assert attrgetter(attr)(build(samples)).dtype == dtype


def test_real_wigner_rows_stay_real():
    # float64 rows and their owned copy peak at 2.1 x 8 bytes per point at 1537^2
    # (40 MB); widening them to complex peaked at 3.1 x 8 bytes (59 MB)
    axis = (-6.0, 6.0, 1537)
    psi = oscillator_state(axis, 1)
    grid = Grid.rectangle(axis, axis)
    tracemalloc.start()
    try:
        w = wigner_of_pure_state(psi, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * grid.n_points
    assert w.values.dtype == np.float64


@pytest.mark.parametrize("defect, accepted", [(0.5e-12, True), (2e-12, False)])
def test_one_hermitian_tolerance(defect, accepted):
    # a = (1 + i defect/2) b: max|A - A^H| = defect against max|A| = 1 up to
    # defect^2, so the relative defect is `defect`, and the terms bound is exact
    b = np.exp(-np.linspace(0.0, 1.0, 16) ** 2)[None]
    terms = CoherenceTerms(SGRID, (1.0 + 0.5j * defect) * b, b)
    matrix = dense_terms(terms)
    assert np.max(np.abs(matrix)) == pytest.approx(1.0)
    assert np.max(np.abs(matrix - matrix.conj().T)) == pytest.approx(defect, rel=1e-3)
    if accepted:
        make_state(SGRID, np.ones(16), terms)
    else:
        with pytest.raises(AdmissibilityError, match="not hermitian"):
            make_state(SGRID, np.ones(16), terms)


# every constructor that takes a (lo, hi, count) triple, fed one bad axis
AXIS_USERS = {
    "Grid.rectangle": lambda axis: Grid.rectangle(axis, AXIS),
    "OperatorKernel": lambda axis: OperatorKernel(axis, u=np.zeros((1, 9))),
    "WaveFunction": lambda axis: WaveFunction(axis, np.zeros(9)),
    "oscillator_state": lambda axis: oscillator_state(axis, 1),
    "gaussian_state": lambda axis: gaussian_state(axis),
    "plane_wave_matrix": lambda axis: plane_wave_matrix(SGRID, axis, 1.0),
    "synthesize_wavefunction": lambda axis: synthesize_wavefunction(
        SGRID, np.ones(16), axis, np.ones((9, 16))
    ),
    "synthesize_kernel": lambda axis: synthesize_kernel(
        SGRID, CoherenceTerms(SGRID, np.ones((1, 16)), np.ones((1, 16))), axis, np.ones((9, 16))
    ),
}


@pytest.mark.parametrize(
    "axis, message",
    [
        ((1.0, 1.0, 9), "axis range must satisfy max > min, got [1.0, 1.0]"),
        ((0.0, 1.0, 7), "axis count must be >= 8, got 7"),
    ],
    ids=["empty-range", "too-few-nodes"],
)
@pytest.mark.parametrize("build", AXIS_USERS.values(), ids=AXIS_USERS.keys())
def test_one_axis_rule_and_message(build, axis, message):
    with pytest.raises(ValueError) as refused:
        build(axis)
    assert str(refused.value) == message


def test_axis_normalizes_to_float_float_int():
    axis = Axis(-1, 1, 9.0)
    assert axis == (-1.0, 1.0, 9)
    assert [type(v) for v in axis] == [float, float, int]
    assert axis.spacing == 0.25
    np.testing.assert_array_equal(axis.nodes(), np.linspace(-1.0, 1.0, 9))
    assert Grid.rectangle(axis, (-1, 1, 9)).axes == (axis, axis)
