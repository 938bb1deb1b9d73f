"""Star product and Moyal bracket as truncated bidifferential series.

The product is sum_m c_m(hbar) B_m(f, g) with c_m = (i*hbar/2)^m / m!, where
B_m applies the m-th power of the bidifferential operator built from the
symplectic form. No B_m depends on hbar: ``_bidifferentials`` builds them,
and ``_combine`` weights them with in-place multiply-adds, so
``classical_limit_check`` builds B_1..B_order once for its whole hbar sweep.
The weights come from ``_coefficients``, which refuses an hbar whose
weights or bracket scale overflow before any B_m is built.

A term of B_m is weight * D^alpha f * D^beta g, where beta is alpha with
the counts of q_i and p_i swapped for each i. Both operands reach a
derivative along one shared rule, ``_chain``, and each holds only the chain
of the current term. The rule commutes with the swap except where the two
counts tie, and the terms are sorted so that the chains of both operands
run in preorder: for the star product on two degrees of freedom at orders
2, 4 and 6, each operand takes one derivative per distinct multi-index.
Because the rule does not depend on which operand it serves, D^alpha of a
function comes out the same on either side of a product, and
B_m(g, f) = (-1)^m B_m(f, g) holds term by term on the grid too; the
bracket (f*g - g*f)/(i*hbar) is 2/(i*hbar) times the odd part of one series.
The sign convention is fixed so that the bracket of the canonical pair is
+1, i.e. {q, p}_mb = {q, p}_pb; a dedicated test pins this constant.

Each term adds into its B_m in flat blocks of ``BLOCK`` samples through one
block-sized scratch product, which stays in cache. Every element sees the
same multiply, multiply and add as in a whole-array pass, so the blocks
change no bit of B_m. The derivative buffers of both operands, one per link
of each one's longest chain, are views into one workspace per call:
grid-sized buffers allocated one at a time would go back to the OS after
each call, under glibc's mmap threshold and trim rule, and fault in again
on the next (``_bidifferentials`` gives the counts).

A float64 operand is differentiated and multiplied in real arithmetic, and B_m
is real when both operands are. The series sums in complex, as c_m is; a result
whose imaginary part is exactly zero, as the bracket of real operands, is float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial, isfinite, prod

import numpy as np

from .phase_space import (
    Grid,
    PhaseFunction,
    _derivative_values,
    _pairs,
    _require_same_grid,
    interior_slices,
)

__all__ = [
    "star_product",
    "moyal_bracket",
    "classical_limit_check",
    "ConvergenceReport",
]

#: highest truncation order of the star series: the hbar^6 term
MAX_ORDER = 6
#: samples per block of the B_m accumulation, so that its scratch product stays in
#: cache; chosen by timing 2^12..2^17 on real and complex 21^4 terms
BLOCK = 2**15


def _check_operands(f: PhaseFunction, g: PhaseFunction, order: int):
    _require_same_grid(f, g)
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must be in 0..{MAX_ORDER}, got {order}")


def _chain(alpha: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (axis, step) derivatives, in the order taken, that lead from the samples to D^alpha.

    The degrees of freedom go from last to first. Within one, the axis with
    the larger count goes first, q on a tie, in steps of at most 4 orders
    (the stencils' limit), the largest step first. Both operands derive
    along this one rule, and swapping q_i <-> p_i in alpha swaps them in the
    chain, except where the counts of q_i and p_i tie.

    ``_bidifferential_terms`` sorts chains link by link on (degree of
    freedom, step, q before p). Among the continuations of a link (q_i, a),
    that puts the tie's (p_i, a) last: every other one has a lower degree of
    freedom or a smaller step. The subtree under (p_i, a) comes next. After
    the swap the g chains of both groups start with (q_i, a), so they form
    one run, and g's chains keep the preorder of f's.
    """
    n_dof = len(alpha) // 2
    links = []
    for i in reversed(range(n_dof)):
        q, p = (i, alpha[i]), (n_dof + i, alpha[n_dof + i])
        for axis, count in (q, p) if q[1] >= p[1] else (p, q):
            links += [(axis, 4)] * (count // 4) + [(axis, count % 4)] * (count % 4 > 0)
    return tuple(links)


class _DerivativeCache:
    """Derivatives of one sample array along the chain of the latest request.

    The derivatives take the samples' dtype, so real samples are
    differentiated in real arithmetic. A request keeps the links it shares
    with the previous chain and computes the rest into the buffers of the
    links it drops, so one chain of arrays is live at a time. ``buffers``
    are all the arrays it writes into, one per link of the longest chain
    it will be asked for, each of the grid's shape and the samples' dtype,
    so it allocates nothing: ``_bidifferentials`` cuts them from one
    workspace per call.
    """

    def __init__(self, values: np.ndarray, grid: Grid, buffers: list[np.ndarray]):
        self.grid = grid
        self._links: tuple[tuple[int, int], ...] = ()
        self._arrays = [values]  # the samples, then one derivative per link
        self._free = buffers

    def get(self, links: tuple[tuple[int, int], ...]) -> np.ndarray:
        """The derivative at the end of the chain ``links``, valid until the next request."""
        keep = 0
        while keep < min(len(links), len(self._links)) and links[keep] == self._links[keep]:
            keep += 1
        self._free += self._arrays[keep + 1 :]
        del self._arrays[keep + 1 :]
        for axis, step in links[keep:]:
            out = self._free.pop()
            self._arrays.append(_derivative_values(self._arrays[-1], self.grid, axis, step, out=out))
        self._links = links
        return self._arrays[-1]


def _bidifferential_terms(n_dof: int, orders) -> list[tuple[float, int, tuple, tuple]]:
    """The terms of B_m for m in ``orders`` as (weight, m, chain_f, chain_g), in evaluation order.

    B_m(f, g) is the sum of weight * D^alpha_f f * D^alpha_g g over its terms,
    each derivative reached along its ``_chain``. The terms are sorted by
    their chains, link by link on (degree of freedom, step, q before p), so
    both operands' chains run in preorder.
    """

    def key(links):
        return tuple((axis % n_dof, step, axis // n_dof) for axis, step in links)

    terms = []
    for m in orders:
        for combo in combinations_with_replacement(_pairs(n_dof), m):
            alpha_f = tuple(sum(a == axis for a, _, _ in combo) for axis in range(2 * n_dof))
            alpha_g = tuple(sum(b == axis for _, b, _ in combo) for axis in range(2 * n_dof))
            # each pair has its own f-axis, so alpha_f holds the multinomial counts
            weight = factorial(m) // prod(map(factorial, alpha_f)) * prod(w for _, _, w in combo)
            terms.append((weight, m, _chain(alpha_f), _chain(alpha_g)))
    # alpha_f and alpha_g fix the term, so no two keys tie
    return sorted(terms, key=lambda term: (key(term[2]), key(term[3])))


def _bidifferentials(f: PhaseFunction, g: PhaseFunction, orders) -> dict[int, np.ndarray]:
    """B_m(f, g) for each m in ``orders``; none of them depends on hbar.

    Both operands' derivative buffers are cut from one float64 workspace,
    allocated before the first term: one buffer per link of the longest
    chain each operand's terms reach, a view of that operand's dtype.
    Grid-sized buffers allocated one at a time, as first needed, would only
    raise glibc's mmap threshold to their size, and glibc trims the heap top
    above twice the threshold, so they would go back to the OS after every
    call and fault in again on the next: about 3000, 6700 and 2600 pages
    per star product of orders 2 and 4 and bracket of order 4 on real 21^4
    samples, run in turn. The one block faults none. The B_m are their own
    arrays: in the workspace they would keep it alive until the series is
    summed.

    Each term adds into its B_m in flat blocks of ``BLOCK`` samples through
    one scratch product. The B_m are real when f and g are.
    """
    grid, terms = f.grid, _bidifferential_terms(f.grid.n_dof, orders)
    depths = [max((len(term[i]) for term in terms), default=0) for i in (2, 3)]
    workspace = np.empty(sum(depth * x.values.nbytes // 8 for x, depth in zip((f, g), depths)))
    split = depths[0] * f.values.nbytes // 8
    fd, gd = (
        _DerivativeCache(x.values, grid, list(part.view(x.values.dtype).reshape(depth, *grid.shape)))
        for x, depth, part in zip((f, g), depths, (workspace[:split], workspace[split:]))
    )
    dtype = np.result_type(f.values.dtype, g.values.dtype)
    sums = {m: np.zeros(grid.shape, dtype=dtype) for m in orders}
    flat_sums = {m: total.reshape(-1) for m, total in sums.items()}
    scratch = np.empty(min(BLOCK, grid.n_points), dtype=dtype)
    for weight, m, chain_f, chain_g in terms:
        df, dg, total = fd.get(chain_f).reshape(-1), gd.get(chain_g).reshape(-1), flat_sums[m]
        for start in range(0, total.size, BLOCK):
            block = slice(start, start + BLOCK)
            product = scratch[: total[block].size]
            np.multiply(weight, df[block], out=product)
            product *= dg[block]
            total[block] += product
    return sums


def _coefficients(
    hbar: float, order: int, odd_only: bool
) -> tuple[dict[int, complex], complex | None]:
    """The weights c_m(hbar) = (i*hbar/2)^m / m! of the B_m, m <= order, and the scale of their sum.

    With ``odd_only`` only the odd m enter and the scale is 2/(i*hbar);
    otherwise there is none. A weight or scale that is not finite is refused
    as a ValueError naming hbar, before any arithmetic on samples.
    """
    weights = {}
    for m in range(1, order + 1, 2 if odd_only else 1):
        try:  # a complex power that overflows raises rather than returning inf
            weights[m] = (1j * hbar / 2.0) ** m / factorial(m)
        except OverflowError:
            weight = f"(i hbar/2)^{m}/{m}!"
            raise ValueError(f"hbar {hbar:.3g} overflows the star series weight {weight}") from None
    scale = 2.0 / (1j * hbar) if odd_only else None
    if odd_only and not isfinite(abs(scale)):
        raise ValueError(f"hbar {hbar:.3g} overflows the bracket scale 2/(i hbar)")
    return weights, scale


def _combine(
    total: np.ndarray, b: dict[int, np.ndarray], weights: dict[int, complex], scale: complex | None
) -> np.ndarray:
    """Add each weight times its B_m into ``total``, in place, scale the sum and return it.

    ``weights`` and ``scale`` come from ``_coefficients``: with the odd-m
    weights and 2/(i*hbar), from ``total`` = 0, that is the Moyal bracket.
    ``b`` is only read, so one set of B_m serves a whole hbar sweep.
    """
    term = np.empty_like(total)
    for m, weight in weights.items():
        np.multiply(weight, b[m], out=term)
        total += term
    if scale is not None:
        total *= scale
    return total


def _series(f: PhaseFunction, g: PhaseFunction, hbar: float, order: int, odd_only: bool) -> np.ndarray:
    """Samples of f*g truncated after the hbar^order term, or of the bracket with ``odd_only``."""
    _check_operands(f, g, order)
    weights, scale = _coefficients(hbar, order, odd_only)
    b = _bidifferentials(f, g, weights)
    if odd_only:
        total = np.zeros(f.grid.shape, dtype=complex)
    else:
        total = np.multiply(f.values, g.values, dtype=complex)
    return _combine(total, b, weights, scale)


def star_product(
    f: PhaseFunction,
    g: PhaseFunction,
    hbar: float,
    order: int = 2,
) -> PhaseFunction:
    """Star product of two phase functions on a common grid, truncated after the hbar^order term."""
    if hbar < 0:
        raise ValueError("hbar must be >= 0")
    return f.with_values(_series(f, g, hbar, order, odd_only=False), label="")


def moyal_bracket(
    f: PhaseFunction,
    g: PhaseFunction,
    hbar: float,
    order: int = 2,
) -> PhaseFunction:
    """(f*g - g*f) / (i*hbar) from the series truncated after the hbar^order term.

    Equals the Poisson bracket for quadratics.
    """
    if hbar == 0:
        raise ValueError("hbar = 0 has no Moyal bracket; use poisson_bracket instead")
    if hbar < 0:
        raise ValueError("hbar must be > 0")
    return f.with_values(_series(f, g, hbar, order, odd_only=True), label="")


@dataclass(frozen=True)
class ConvergenceReport:
    """Observed classical-limit orders from a decreasing hbar sweep.

    A slope is None when every error of its sweep is below 1e-12 times the
    largest of 1 and the interior peaks of |fg| and |{f, g}|: the truncated
    series is then exact, and there is no order to fit.
    """

    hbars: tuple[float, ...]
    product_errors: tuple[float, ...]
    bracket_errors: tuple[float, ...]
    product_slope: float | None
    bracket_slope: float | None


def _loglog_slope(hbars, errors, exact_tol: float) -> float | None:
    """Slope of log error against log hbar; None when every error is below ``exact_tol``."""
    if all(e < exact_tol for e in errors):
        return None
    return float(np.polyfit(np.log(hbars), np.log(errors), 1)[0])


def classical_limit_check(
    f: PhaseFunction,
    g: PhaseFunction,
    hbar_sequence,
    order: int = 3,
) -> ConvergenceReport:
    """Measure how fast the star product and bracket reach their limits.

    Regresses max-interior deviations against hbar on log-log axes. The
    product deviation |f*g - fg| is expected to vanish like hbar, the
    bracket deviation like hbar^2; the truncation default keeps the first
    term beyond the Poisson bracket so the latter is visible.
    """
    hbars = [float(h) for h in hbar_sequence]
    if len(hbars) < 3:
        raise ValueError("need at least 3 hbar values")
    if any(h <= 0 for h in hbars) or any(a <= b for a, b in zip(hbars, hbars[1:])):
        raise ValueError("hbar sequence must be positive and strictly decreasing")
    _check_operands(f, g, order)
    coefficients = [(_coefficients(h, order, False), _coefficients(h, order, True)) for h in hbars]

    # B_1 is the Poisson bracket, so it is built at order 0 too
    b = _bidifferentials(f, g, range(1, max(order, 1) + 1))
    plain, pb = np.multiply(f.values, g.values, dtype=complex), b[1]
    inner = interior_slices(f.grid)
    scale = max(float(np.max(np.abs(plain[inner]))), float(np.max(np.abs(pb[inner]))), 1.0)
    exact_tol = 1e-12 * scale

    prod_err, brak_err = [], []
    for product_coefficients, bracket_coefficients in coefficients:
        product = _combine(plain.copy(), b, *product_coefficients)
        bracket = _combine(np.zeros_like(plain), b, *bracket_coefficients)
        product -= plain
        bracket -= pb
        prod_err.append(float(np.max(np.abs(product[inner]))))
        brak_err.append(float(np.max(np.abs(bracket[inner]))))

    return ConvergenceReport(
        hbars=tuple(hbars),
        product_errors=tuple(prod_err),
        bracket_errors=tuple(brak_err),
        product_slope=_loglog_slope(hbars, prod_err, exact_tol),
        bracket_slope=_loglog_slope(hbars, brak_err, exact_tol),
    )
