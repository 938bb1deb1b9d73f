"""Uniform phase-space grids, derivatives, brackets, and quadrature.

Phase space is R^(2N) with coordinates ordered (q_1..q_N, p_1..p_N).
Everything here is a pure function over immutable value types; grid-point
loops vectorize over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod
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
#: most rows per derivative tile: within 10% of the fastest of the heights
#: 21..160 timed at 161 and 641 nodes, and an axis of 21 nodes stays one tile
TILE = 24
#: most bytes per derivative slab on axis 0 and the last axis, timed from 96
#: to 384 kB on 21^4 grids: 256 kB slabs took 0.59-0.70 of one pass's time
#: (0.9-1.0 on the complex last axis), 384 kB ones 0.87-1.09; and 161^2 real
#: samples (207 kB) stay one slab
SLAB = 2**18
#: fewest lines per derivative slab, timed from 64 to 1536 at 641 to 2561
#: nodes: 512 made axis 0 up to 18% slower through extra matmul calls, and
#: 1024 gave back part of the last axis's gain at 1281 nodes
MIN_SLAB_LINES = 768


def _frozen(values, dtype, shape, what: str, copy=True) -> np.ndarray:
    """One owned, read-only, C-contiguous ``dtype`` copy of ``values``.

    Every value type stores its arrays through this; a wrong shape or a
    non-finite entry raises ValueError naming ``what``. ``dtype`` None is
    the one real-or-complex rule: complex128 when some imaginary part is
    nonzero, else float64. ``copy`` None keeps ``values`` itself when it
    already has that dtype and layout, for an array no one else holds.
    """
    if dtype is None:
        nonzero_imag = np.iscomplexobj(values) and np.imag(values).any()
        values, dtype = (values, complex) if nonzero_imag else (np.real(values), float)
    values = np.array(values, dtype=dtype, order="C", copy=copy)
    if values.shape != tuple(shape):
        raise ValueError(f"{what} shape {values.shape} does not match {tuple(shape)}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    values.setflags(write=False)
    return values


def _shown(count: int) -> str:
    """An integer for an error message: in full up to 15 digits, else its leading digits and digit count.

    A count taken from a JSON float such as 1e300 has hundreds of digits;
    float formatting would raise OverflowError above 1e308.
    """
    digits = str(abs(count))
    if len(digits) <= 15:
        return str(count)
    return f"{'-' * (count < 0)}{digits[:6]}... ({len(digits)} digits)"


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
            raise ValueError(f"axis count must be >= {MIN_AXIS_COUNT}, got {_shown(count)}")
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


def _pairs(n_dof: int) -> list[tuple[int, int, float]]:
    """Nonzero entries (a, b, omega_ab) of the symplectic form [[0, I_N], [-I_N, 0]].

    They pair q_i with p_i at +1 and p_i with q_i at -1: the bracket's axis pairs.
    """
    return [pair for i in range(n_dof) for pair in ((i, n_dof + i, 1.0), (n_dof + i, i, -1.0))]


@dataclass(frozen=True, eq=False)
class PhaseFunction:
    """Samples of a function on a :class:`Grid`: float64 when real, else complex128."""

    grid: Grid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = _frozen(self.values, None, self.grid.shape, "phase function samples")
        object.__setattr__(self, "values", values)

    @classmethod
    def _adopt(cls, grid: Grid, values: np.ndarray) -> "PhaseFunction":
        """Samples ``values`` checked and frozen as the constructor does, but kept, not copied.

        For a fresh array that the caller drops, such as a Wigner
        transform's rows: a copy would hold them twice while it is made.
        """
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", _frozen(values, None, grid.shape, "phase function samples", None))
        object.__setattr__(f, "label", "")
        return f

    @classmethod
    def sample(cls, grid: Grid, fn, label: str = "") -> "PhaseFunction":
        """Sample ``fn`` on the grid, broadcast once to the grid shape.

        ``fn`` gets one open-mesh coordinate array per axis: axis a's nodes
        along dimension a and length 1 along the others. Its result must
        broadcast to the grid shape, so a constant or a function of one
        coordinate needs no padding.
        """
        mesh = np.meshgrid(*(axis.nodes() for axis in grid.axes), indexing="ij", sparse=True)
        return cls(grid, np.broadcast_to(fn(*mesh), grid.shape), label)

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


def _trapezoid_weights(count: int, spacing: float) -> np.ndarray:
    """Trapezoid weights of ``count`` nodes ``spacing`` apart: the spacing, halved at both ends.

    Every full-axis trapezoid sum in the package contracts with this vector;
    only the Wigner lag windows, whose reach differs per row, weight their own.
    """
    weights = np.full(count, spacing)
    weights[0] = weights[-1] = 0.5 * spacing
    return weights


def _check_phases(step: float, points: np.ndarray, what: str):
    """Refuse a step * max|x| that is not finite, naming the points ``what``."""
    reach = float(step) * float(np.max(np.abs(points)))
    if not isfinite(reach):
        raise ValueError(f"phase step {step:.3g} times max|{what}| is {reach}; the phases overflow")


def _cos_sin(
    step: float, count: int, points: np.ndarray, parts: int, what: str, out=None
) -> np.ndarray:
    """(parts count x len(points)) real table: cos(k step x) rows for k < count, then sin rows.

    The sin rows are built only for ``parts`` 2. Row k is row k - 1 times
    the unit phasor exp(i step x) (Numerical Recipes, 3rd ed., 5.4): one
    cos and one sin per point whatever ``count``, and row 0 is exact. Every
    cos/sin table of the package comes from here. A step * max|x| that is
    not finite is refused before any arithmetic, naming the points ``what``
    (``_check_phases``). The table is written into ``out`` when given, and
    ``out`` is returned. It may be a float array or view of the table's
    shape, so a caller that builds one table per block of points reuses one
    buffer, or of shape (parts, count, len(points)). With ``parts`` 2 it
    may also be a complex (count, len(points)) array or view, such as the
    transpose of a (points, count) array: each row k then goes in as the
    complex powers, cos in the real parts and sin in the imaginary parts,
    one strided copy per row. Each entry holds the same bits every way.
    """
    _check_phases(step, points, what)
    phasor = np.empty(len(points), dtype=complex)
    np.cos(step * points, out=phasor.real)
    np.sin(step * points, out=phasor.imag)
    power = np.ones_like(phasor)
    table = np.empty((parts * count, len(points))) if out is None else out
    if table.dtype == complex:
        rows, row = table, power
    else:
        rows = table.reshape(parts, count, len(points))  # a view: it splits the first axis at most
        row = power.view(float).reshape(-1, 2).T[:parts]  # the live real and imaginary parts
    for k in range(count):
        rows[..., k, :] = row
        power *= phasor
    return table


def integrate(f: PhaseFunction) -> complex:
    """Trapezoidal quadrature of ``f`` over all 2N axes.

    Each axis is contracted with its weight vector, the last axis first, so
    every step is one matrix-vector product on a contiguous array.
    """
    values = f.values
    for axis in reversed(f.grid.axes):
        values = values @ _trapezoid_weights(axis.count, axis.spacing)
    return complex(values)


def _fornberg_weights(x0: float, nodes: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the ``order``-th derivative at ``x0``.

    Fornberg's recursion (Math. Comp. 51 (1988) 699-706); exact for
    polynomials of degree < len(nodes). The package calls it only on
    integer nodes, from ``_integer_stencils``, once per stencil row.
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


@lru_cache(maxsize=4)
def _integer_stencils(order: int) -> tuple[np.ndarray, np.ndarray]:
    """(centred, edge) weights of the ``order``-th derivative on unit-spaced nodes.

    ``centred`` is the shortest centred stencil with accuracy 4, on offsets
    -half..half, made exactly (anti)symmetric by averaging it with its
    mirror. Row i < half of ``edge`` is the one-sided window of order + 4
    nodes 0..order + 3 seen from node i (accuracy >= 4 there as well).
    These are the package's only Fornberg calls: 1 + half per order.
    """
    half = (order + 1) // 2 + 1  # centred window half-width for accuracy 4
    centred = _fornberg_weights(0.0, np.arange(-half, half + 1.0), order)
    edge = np.array([_fornberg_weights(float(i), np.arange(order + 4.0), order) for i in range(half)])
    return 0.5 * (centred + (-1) ** order * centred[::-1]), edge


@lru_cache(maxsize=128)
def _tiles(count: int, spacing: float, order: int, parts: int, layout: str) -> tuple:
    """The ``order``-th derivative along ``count`` nodes as row tiles ``(rows, columns, weights)``.

    The rows split into ceil(count / ``TILE``) tiles whose heights differ by
    at most one; tile rows r0:r1 read the columns max(r0 - half, 0) to
    min(r1 + half, count). Every tile is a view of one dense matrix d of
    the first m = min(count, ``TILE`` + 2 (order + 4)) nodes: the first
    tile is a block at d's top left, the last one a block at its bottom
    right, and every interior tile the same Toeplitz block of centred rows
    inside it. d places the ``_integer_stencils`` rows, divided by
    ``spacing**order``, without a Fornberg call: the centred stencil on
    every interior row, the edge rows on the first ``half`` rows, and the
    edge rows mirrored times (-1)^order on the last ``half``, so the
    assembled matrix D satisfies ``D[::-1, ::-1] == (-1)**order * D``
    exactly. An axis of at most ``TILE`` nodes is one tile, D itself. With
    ``parts`` 2, d is ``kron(d, I_2)``, which acts on samples whose real
    and imaginary parts interleave, and rows and columns count floats.
    ``layout`` is d's memory order. The cached bytes depend on ``TILE``,
    not on ``count``. ``_derivative_values`` applies every tile to one
    slab of the samples before it moves to the next.
    """
    centred, edge = (weights / spacing**order for weights in _integer_stencils(order))
    half, sided = edge.shape
    if count < sided:
        raise ValueError(f"axis count {count} too small for order-{order} stencils")
    d = np.zeros((min(count, TILE + 2 * sided),) * 2)
    d.reshape(-1)[np.arange(half, len(d) - half)[:, None] * (len(d) + 1) + np.arange(-half, half + 1)] = centred
    d[:half, :sided], d[-half:, -sided:] = edge, (-1) ** order * edge[::-1, ::-1]
    d = np.asarray(np.kron(d, np.eye(parts)), order=layout)
    n_tiles = -(-count // TILE)
    bounds = [parts * (t * count // n_tiles) for t in range(n_tiles + 1)]
    half, sided, count = parts * half, parts * sided, parts * count
    tiles = []
    for start, stop in zip(bounds, bounds[1:]):
        lo, hi = max(start - half, 0), min(stop + half, count)
        shift = 0 if start == 0 else count - len(d) if stop == count else start - sided
        tiles.append((slice(start, stop), slice(lo, hi), d[start - shift : stop - shift, lo - shift : hi - shift]))
    return tuple(tiles)


def _derivative_values(
    values: np.ndarray, grid: Grid, axis: int, order: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``partial_derivative`` on C-contiguous float64 or complex128 samples: a real matmul per tile and slab.

    Each tile of ``_tiles`` multiplies its weights into its rows, so the
    cost is linear in the axis length; an axis of at most ``TILE`` nodes
    is one tile, the whole matrix. Real samples are differentiated in real
    arithmetic into a real result. On the last axis the tiles act on the
    transposed float view, as ``kron(w, I_2)`` on complex samples, whose
    real and imaginary parts interleave. numpy hands BLAS that product
    transposed, so those tiles are kept in Fortran order: BLAS then reads
    C-ordered weights, which it packs fastest.

    On axis 0 the samples are one (n, columns) block, and on the last
    axis one (parts n, rows) block of the flat view. Either goes in slabs
    of ``SLAB`` bytes, but of at least ``MIN_SLAB_LINES`` columns or rows,
    and every tile is applied to a slab before the next slab, so the slab
    stays in cache (Golub & Van Loan, Matrix Computations, 4th ed., 1.5).
    One pass over a whole 21^4 array streams 1.5 MB per matmul, and at
    2561 nodes every last-axis tile read all rows a grid row apart. An
    array within one slab makes one matmul per tile. A middle axis is
    already a batch of (n, trailing) blocks, one per BLAS call, and is not
    slabbed. The result goes into ``out``, a C-contiguous array of the
    grid's shape and the samples' dtype, when given.
    """
    out = np.empty(grid.shape, dtype=values.dtype) if out is None else out
    n, last = grid.shape[axis], axis == len(grid.axes) - 1
    parts = values.dtype.itemsize // 8 if last else 1
    if last:
        source, target = (a.view(float).reshape(1, -1, parts * n).transpose(0, 2, 1) for a in (values, out))
    else:
        source, target = (a.reshape(prod(grid.shape[:axis]), n, -1).view(float) for a in (values, out))
    batch, depth, width = source.shape
    step = width if batch > 1 else max(SLAB // (8 * depth), MIN_SLAB_LINES)
    tiles = _tiles(n, grid.spacing(axis), order, parts, "F" if last else "C")
    for start in range(0, width, step):
        lines = slice(start, start + step)
        for rows, cols, weights in tiles:
            np.matmul(weights, source[:, cols, lines], out=target[:, rows, lines])
    return out


def _is_integer(value) -> bool:
    """True for an int or a numpy integer; False for a bool, whose True would read as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def partial_derivative(f: PhaseFunction, axis: int, order: int = 1) -> PhaseFunction:
    """Finite-difference partial derivative along one grid axis.

    Central stencils of accuracy order 4 in the interior, one-sided near
    the boundary; ``order`` in 1..4. ``order`` and ``axis`` must be ints or
    numpy integers: a bool or a float is refused, not truncated.
    """
    if not _is_integer(order) or order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be an integer in 1..4, got {order!r}")
    if not _is_integer(axis) or not 0 <= axis < len(f.grid.axes):
        raise ValueError(f"axis {axis!r} is not an integer in 0..{len(f.grid.axes) - 1} of the grid")
    return f.with_values(_derivative_values(f.values, f.grid, axis, order), label=f.label)


def poisson_bracket(f: PhaseFunction, g: PhaseFunction) -> PhaseFunction:
    """{f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i), real when f and g are."""
    _require_same_grid(f, g)
    total = np.zeros(f.grid.shape, dtype=np.result_type(f.values, g.values))
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
