"""Validation shared by every value type: owned read-only copies and one hermitian rule."""

from operator import attrgetter

import numpy as np
import pytest

from phasedec.decoherence import Trajectory
from phasedec.phase_space import Axis, Grid, PhaseFunction
from phasedec.spectral import (
    CoherenceTerms,
    Observable,
    SpectralGrid,
    synthesize_kernel,
    synthesize_wavefunction,
)
from phasedec.states import AdmissibilityError, ClassicalDensity, State, make_state
from phasedec.weyl import OperatorKernel, WaveFunction, gaussian_state, oscillator_state

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
        lambda a: OperatorKernel(AXIS, a), "values", complex, _complex(8, 8), _complex(8, 9),
        id="OperatorKernel.values",
    ),
    pytest.param(
        lambda a: OperatorKernel(AXIS, u=a), "u", complex, _complex(2, 8), _complex(2, 9),
        id="OperatorKernel.u",
    ),
    pytest.param(
        lambda a: OperatorKernel(AXIS, u=np.ones((2, 8)), v=a), "v", complex, _complex(2, 8),
        _complex(3, 8), id="OperatorKernel.v",
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


@pytest.mark.parametrize("defect, accepted", [(0.5e-12, True), (2e-12, False)])
def test_one_hermitian_tolerance(defect, accepted):
    # a = (1 + i defect/2) b: max|A - A^H| = defect against max|A| = 1 up to
    # defect^2, so the relative defect is `defect`, and the terms bound is exact
    b = np.exp(-np.linspace(0.0, 1.0, 16) ** 2)[None]
    terms = CoherenceTerms(SGRID, (1.0 + 0.5j * defect) * b, b)
    matrix = terms.dense()
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
    "OperatorKernel": lambda axis: OperatorKernel(axis, np.zeros((9, 9))),
    "WaveFunction": lambda axis: WaveFunction(axis, np.zeros(9)),
    "oscillator_state": lambda axis: oscillator_state(axis, 1),
    "gaussian_state": lambda axis: gaussian_state(axis),
    "synthesize_wavefunction": lambda axis: synthesize_wavefunction(SGRID, np.ones(16), axis, 1.0),
    "synthesize_kernel": lambda axis: synthesize_kernel(
        SGRID, CoherenceTerms(SGRID, np.ones((1, 16)), np.ones((1, 16))), axis, 1.0
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
