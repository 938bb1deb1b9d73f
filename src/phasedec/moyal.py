"""Star product and Moyal bracket as truncated bidifferential series.

The product is sum_m c_m(hbar) B_m(f, g) with c_m = (i*hbar/2)^m / m!, where
B_m applies the m-th power of the bidifferential operator built from the
symplectic form. No B_m depends on hbar: ``_bidifferentials`` builds them,
and ``_combine`` weights them with in-place multiply-adds, so
``classical_limit_check`` builds B_1..B_order once for its whole hbar sweep.

A term of B_m is weight * D^alpha f * D^beta g, where beta is alpha with
the counts of q_i and p_i swapped for each i. Both operands reach a
derivative along one shared rule, ``_chain``, and each holds only the chain
of the current term, in buffers recycled within the call. The rule commutes
with the swap except where the two counts tie, and the terms are sorted so
that the chains of both operands run in preorder: for the star product on
two degrees of freedom at orders 2, 4 and 6, each operand takes one
derivative per distinct multi-index. Because the rule does not depend on
which operand it serves, D^alpha of a function comes out the same on either
side of a product, and B_m(g, f) = (-1)^m B_m(f, g) holds term by term on
the grid too; the bracket (f*g - g*f)/(i*hbar) is 2/(i*hbar) times the odd
part of one series.
The sign convention is fixed so that the bracket of the canonical pair is
+1, i.e. {q, p}_mb = {q, p}_pb; a dedicated test pins this constant.

Each term adds into its B_m in flat blocks of ``BLOCK`` samples through one
block-sized scratch product, which stays in cache. Every element sees the
same multiply, multiply and add as in a whole-array pass, so the blocks
change no bit of B_m.

An operand whose samples have an imaginary part of exactly zero is
differentiated and multiplied in real arithmetic, and B_m is real when both
operands are; the star product and bracket are still complex PhaseFunctions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial, prod

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

    Samples whose imaginary part is exactly zero are held as one contiguous
    real copy, so their derivatives are taken in real arithmetic. A request
    keeps the links it shares with the previous chain and computes the rest
    into the buffers of the links it drops, so one chain of arrays is live
    at a time.
    """

    def __init__(self, values: np.ndarray, grid: Grid):
        if not values.imag.any():
            values = np.ascontiguousarray(values.real)
        self.grid, self.dtype = grid, values.dtype
        self._links: tuple[tuple[int, int], ...] = ()
        self._arrays = [values]  # the samples, then one derivative per link
        self._free: list[np.ndarray] = []

    def get(self, links: tuple[tuple[int, int], ...]) -> np.ndarray:
        """The derivative at the end of the chain ``links``, valid until the next request."""
        keep = 0
        while keep < min(len(links), len(self._links)) and links[keep] == self._links[keep]:
            keep += 1
        self._free += self._arrays[keep + 1 :]
        del self._arrays[keep + 1 :]
        for axis, step in links[keep:]:
            out = self._free.pop() if self._free else np.empty(self.grid.shape, self.dtype)
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

    Each term adds into its B_m in flat blocks of ``BLOCK`` samples through
    one scratch product. The B_m are real when f and g are.
    """
    grid = f.grid
    fd, gd = _DerivativeCache(f.values, grid), _DerivativeCache(g.values, grid)
    dtype = np.result_type(fd.dtype, gd.dtype)
    sums = {m: np.zeros(grid.shape, dtype=dtype) for m in orders}
    flat_sums = {m: total.reshape(-1) for m, total in sums.items()}
    scratch = np.empty(min(BLOCK, grid.n_points), dtype=dtype)
    for weight, m, chain_f, chain_g in _bidifferential_terms(grid.n_dof, orders):
        df, dg, total = fd.get(chain_f).reshape(-1), gd.get(chain_g).reshape(-1), flat_sums[m]
        for start in range(0, total.size, BLOCK):
            block = slice(start, start + BLOCK)
            product = scratch[: total[block].size]
            np.multiply(weight, df[block], out=product)
            product *= dg[block]
            total[block] += product
    return sums


def _combine(
    total: np.ndarray, b: dict[int, np.ndarray], hbar: float, order: int, odd_only: bool
) -> np.ndarray:
    """Add c_m(hbar) B_m into ``total`` for m <= order, in place, and return it.

    With ``odd_only`` only the odd m enter and the sum is then scaled by
    2/(i*hbar): from ``total`` = 0 that is the Moyal bracket. ``b`` is only
    read, so one set of B_m serves a whole hbar sweep.
    """
    term = np.empty_like(total)
    for m in range(1, order + 1, 2 if odd_only else 1):
        np.multiply((1j * hbar / 2.0) ** m / factorial(m), b[m], out=term)
        total += term
    if odd_only:
        total *= 2.0 / (1j * hbar)
    return total


def _series(f: PhaseFunction, g: PhaseFunction, hbar: float, order: int, odd_only: bool) -> np.ndarray:
    """Samples of f*g truncated after the hbar^order term, or of the bracket with ``odd_only``."""
    _check_operands(f, g, order)
    b = _bidifferentials(f, g, range(1, order + 1, 2 if odd_only else 1))
    total = np.zeros(f.grid.shape, dtype=complex) if odd_only else f.values * g.values
    return _combine(total, b, hbar, order, odd_only)


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
    """Observed classical-limit orders from a decreasing hbar sweep."""

    hbars: tuple[float, ...]
    product_errors: tuple[float, ...]
    bracket_errors: tuple[float, ...]
    product_slope: float | None
    bracket_slope: float | None
    product_exact: bool
    bracket_exact: bool


def _loglog_slope(hbars, errors) -> float:
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

    # B_1 is the Poisson bracket, so it is built at order 0 too
    b = _bidifferentials(f, g, range(1, max(order, 1) + 1))
    plain, pb = f.values * g.values, b[1]
    inner = interior_slices(f.grid)
    scale = max(float(np.max(np.abs(plain[inner]))), float(np.max(np.abs(pb[inner]))), 1.0)
    exact_tol = 1e-12 * scale

    prod_err, brak_err = [], []
    for h in hbars:
        product = _combine(plain.copy(), b, h, order, odd_only=False)
        bracket = _combine(np.zeros_like(plain), b, h, order, odd_only=True)
        product -= plain
        bracket -= pb
        prod_err.append(float(np.max(np.abs(product[inner]))))
        brak_err.append(float(np.max(np.abs(bracket[inner]))))

    product_exact = all(e < exact_tol for e in prod_err)
    bracket_exact = all(e < exact_tol for e in brak_err)
    return ConvergenceReport(
        hbars=tuple(hbars),
        product_errors=tuple(prod_err),
        bracket_errors=tuple(brak_err),
        product_slope=None if product_exact else _loglog_slope(hbars, prod_err),
        bracket_slope=None if bracket_exact else _loglog_slope(hbars, brak_err),
        product_exact=product_exact,
        bracket_exact=bracket_exact,
    )
