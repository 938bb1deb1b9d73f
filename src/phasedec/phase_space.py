"""Uniform phase-space grids, derivatives, brackets, and quadrature.

Phase space is R^(2N) with coordinates ordered (q_1..q_N, p_1..p_N).
Everything here is a pure function over immutable value types; grid-point
loops vectorize over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

__all__ = [
    "Axis",
    "Grid",
    "PhaseFunction",
    "integrate",
    "partial_derivative",
    "poisson_bracket",
    "interior_slices",
    "interior_max_abs",
]

#: minimum points per axis; below this the 4th-order stencils degenerate
MIN_AXIS_COUNT = 8
#: central share of each axis kept by the interior error norms
INTERIOR_FRACTION = 0.8


def _frozen(values, dtype, shape, what: str) -> np.ndarray:
    """One owned, read-only ``dtype`` copy of ``values``.

    Every value type stores its arrays through this; a wrong shape or a
    non-finite entry raises ValueError naming ``what``.
    """
    values = np.array(values, dtype=dtype)
    if values.shape != tuple(shape):
        raise ValueError(f"{what} shape {values.shape} does not match {tuple(shape)}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    values.setflags(write=False)
    return values


class _AxisFields(NamedTuple):
    lo: float
    hi: float
    count: int


class Axis(_AxisFields):
    """``count`` uniform nodes from ``lo`` to ``hi``: the one axis type of every grid.

    Construction checks ``hi > lo`` and ``count >= MIN_AXIS_COUNT`` and
    stores ``(float, float, int)``; as a tuple it still unpacks and
    compares like a plain ``(lo, hi, count)`` triple.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, count: int):
        lo, hi, count = float(lo), float(hi), int(count)
        if not hi > lo:
            raise ValueError(f"axis range must satisfy max > min, got [{lo}, {hi}]")
        if count < MIN_AXIS_COUNT:
            raise ValueError(f"axis count must be >= {MIN_AXIS_COUNT}, got {count}")
        return super().__new__(cls, lo, hi, count)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over R^(2N).

    ``axes`` holds one :class:`Axis` per coordinate, ordered
    (q_1..q_N, p_1..p_N); plain (min, max, count) triples are converted.
    """

    axes: tuple[Axis, ...]

    def __post_init__(self):
        if len(self.axes) < 2 or len(self.axes) % 2 != 0:
            raise ValueError("grid needs 2N axes with N >= 1")
        object.__setattr__(self, "axes", tuple(Axis(*axis) for axis in self.axes))

    @classmethod
    def square(cls, lo: float, hi: float, count: int, n_dof: int = 1) -> "Grid":
        """Same (lo, hi, count) on every one of the 2N axes."""
        return cls(((lo, hi, count),) * (2 * n_dof))

    @classmethod
    def rectangle(cls, q_axis, p_axis) -> "Grid":
        """N = 1 grid from a (min, max, count) triple per coordinate."""
        return cls((q_axis, p_axis))

    @property
    def n_dof(self) -> int:
        return len(self.axes) // 2

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(axis.count for axis in self.axes)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.shape))

    def spacing(self, axis: int) -> float:
        return self.axes[axis].spacing

    def coordinate(self, axis: int) -> np.ndarray:
        return self.axes[axis].nodes()

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Broadcast coordinate arrays, one per axis, shaped ``self.shape``."""
        return tuple(
            np.meshgrid(*(self.coordinate(a) for a in range(len(self.axes))), indexing="ij")
        )


def _pairs(n_dof: int) -> list[tuple[int, int, float]]:
    """Nonzero entries (a, b, omega_ab) of the symplectic form [[0, I_N], [-I_N, 0]].

    They pair q_i with p_i at +1 and p_i with q_i at -1: the bracket's axis pairs.
    """
    return [pair for i in range(n_dof) for pair in ((i, n_dof + i, 1.0), (n_dof + i, i, -1.0))]


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Complex samples of a function on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = _frozen(self.values, complex, self.grid.shape, "phase function samples")
        object.__setattr__(self, "values", values)

    @classmethod
    def sample(cls, grid: Grid, fn, label: str = "") -> "PhaseFunction":
        """Sample ``fn(*mesh)`` on the grid; fn gets one array per axis."""
        return cls(grid, np.broadcast_to(fn(*grid.mesh()), grid.shape), label)

    def with_values(self, values: np.ndarray, label: str | None = None) -> "PhaseFunction":
        return PhaseFunction(self.grid, values, self.label if label is None else label)

    def _operand(self, other):
        """Samples of a PhaseFunction on the same grid, or a scalar/array as given."""
        if isinstance(other, PhaseFunction):
            _require_same_grid(self, other)
            return other.values
        return other

    def __add__(self, other):
        return self.with_values(self.values + self._operand(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.with_values(self.values - self._operand(other))

    def __mul__(self, other):
        return self.with_values(self.values * self._operand(other))

    __rmul__ = __mul__


def _require_same_grid(f: PhaseFunction, g: PhaseFunction):
    if f.grid != g.grid:
        raise ValueError("phase functions live on different grids")


def integrate(f: PhaseFunction) -> complex:
    """Trapezoidal quadrature of ``f`` over all 2N axes."""
    values = f.values
    for axis in reversed(range(len(f.grid.axes))):
        values = np.trapezoid(values, dx=f.grid.spacing(axis), axis=axis)
    return complex(values)


def _fornberg_weights(x0: float, nodes: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the ``order``-th derivative at ``x0``.

    Fornberg's recursion; exact for polynomials of degree < len(nodes).
    """
    n = len(nodes)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@lru_cache(maxsize=128)
def _difference_matrix(count: int, spacing: float, order: int) -> np.ndarray:
    """Dense 1-D differentiation matrix, 4th-order interior stencils.

    Interior rows use the shortest centered stencil with accuracy 4;
    rows too close to an edge use one-sided windows of order + 4 nodes
    (accuracy >= 4 there as well).
    """
    x = np.arange(count) * spacing
    half = (order + 1) // 2 + 1  # centered window half-width for accuracy 4
    central = 2 * half + 1
    sided = order + 4
    if count < max(central, sided):
        raise ValueError(f"axis count {count} too small for order-{order} stencils")
    d = np.zeros((count, count))
    for i in range(count):
        if half <= i < count - half:
            lo, size = i - half, central
        else:
            lo, size = min(max(i - sided // 2, 0), count - sided), sided
        d[i, lo : lo + size] = _fornberg_weights(x[i], x[lo : lo + size], order)
    return d


@lru_cache(maxsize=128)
def _interleaved_difference_matrix(count: int, spacing: float, order: int, parts: int) -> np.ndarray:
    """``kron(d.T, I_parts)``: the last-axis stencil acting from the right on samples of ``parts`` floats.

    That is ``d.T`` for real samples and interleaves real and imaginary
    parts for complex ones.
    """
    return np.kron(_difference_matrix(count, spacing, order).T, np.eye(parts))


def _derivative_values(
    values: np.ndarray, grid: Grid, axis: int, order: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``partial_derivative`` on raw samples: one real matmul on their float view.

    Real samples are differentiated in real arithmetic into a real result.
    On the last axis the stencil acts from the right: as ``d.T`` on real
    samples, and as ``kron(d.T, I_2)`` on complex ones, whose float view
    interleaves real and imaginary parts. The result goes into ``out``, a
    C-contiguous array of the grid's shape and the samples' dtype, when given.
    """
    values = np.ascontiguousarray(values, dtype=np.result_type(values, float))
    if out is None:
        out = np.empty(grid.shape, dtype=values.dtype)
    parts = values.dtype.itemsize // 8
    n = grid.shape[axis]
    if axis == len(grid.axes) - 1:
        d = _interleaved_difference_matrix(n, grid.spacing(axis), order, parts)
        np.matmul(values.view(float).reshape(-1, parts * n), d, out=out.view(float).reshape(-1, parts * n))
    else:
        d = _difference_matrix(n, grid.spacing(axis), order)
        rows = prod(grid.shape[:axis])
        np.matmul(d, values.reshape(rows, n, -1).view(float), out=out.reshape(rows, n, -1).view(float))
    return out


def partial_derivative(f: PhaseFunction, axis: int, order: int = 1) -> PhaseFunction:
    """Finite-difference partial derivative along one grid axis.

    Central stencils of accuracy order 4 in the interior, one-sided near
    the boundary; ``order`` in 1..4.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    if not 0 <= axis < len(f.grid.axes):
        raise ValueError(f"axis {axis} out of range for a {len(f.grid.axes)}-axis grid")
    return f.with_values(_derivative_values(f.values, f.grid, axis, order), label=f.label)


def poisson_bracket(f: PhaseFunction, g: PhaseFunction) -> PhaseFunction:
    """{f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i)."""
    _require_same_grid(f, g)
    total = np.zeros(f.grid.shape, dtype=complex)
    for a, b, w in _pairs(f.grid.n_dof):
        df = _derivative_values(f.values, f.grid, a, 1)
        total += w * df * _derivative_values(g.values, g.grid, b, 1)
    return f.with_values(total, label="")


def interior_slices(grid: Grid) -> tuple[slice, ...]:
    """Index slices keeping the central ``INTERIOR_FRACTION`` of each axis."""
    out = []
    for _, _, n in grid.axes:
        margin = int(round(n * (1.0 - INTERIOR_FRACTION) / 2.0))
        out.append(slice(margin, n - margin))
    return tuple(out)


def interior_max_abs(f: PhaseFunction) -> float:
    """Max |f| over the central ``INTERIOR_FRACTION`` of every axis."""
    return float(np.max(np.abs(f.values[interior_slices(f.grid)])))
