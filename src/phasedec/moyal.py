"""Star product and Moyal bracket as truncated bidifferential series.

The product is sum_m (1/m!) (i*hbar/2)^m B_m(f, g), where B_m applies the
m-th power of the bidifferential operator built from the symplectic form.
B_m(g, f) = (-1)^m B_m(f, g) holds term by term, on the grid too, so the
bracket (f*g - g*f)/(i*hbar) is 2/(i*hbar) times the odd part of one series.
The sign convention is fixed so that the bracket of the canonical pair is
+1, i.e. {q, p}_mb = {q, p}_pb; a dedicated test pins this constant.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial, prod

import numpy as np

from .phase_space import (
    PhaseFunction,
    SymplecticForm,
    _derivative_values,
    _require_same_grid,
    interior_max_abs,
    poisson_bracket,
)

__all__ = [
    "star_product",
    "moyal_bracket",
    "classical_limit_check",
    "ConvergenceReport",
]

#: highest truncation order of the star series: the hbar^6 term
MAX_ORDER = 6


class _DerivativeCache:
    """Mixed partial derivatives of one sample array, each dropped after its last planned use."""

    def __init__(self, f: PhaseFunction, requests: list[tuple[int, ...]]):
        self.grid = f.grid
        self._store: dict[tuple[int, ...], np.ndarray] = {(0,) * len(f.grid.axes): f.values}
        self._steps: dict[tuple[int, ...], tuple[int, int, tuple[int, ...]]] = {}
        self._uses: Counter = Counter()
        for alpha in requests:
            self._plan(alpha)

    def _plan(self, alpha: tuple[int, ...]):
        # one use of alpha; the first also uses its base, whose last derivative
        # comes off the first non-zero slot (orders above 4 compose <=4 steps)
        self._uses[alpha] += 1
        if self._uses[alpha] == 1 and any(alpha):
            axis = next(i for i, a in enumerate(alpha) if a > 0)
            step = min(alpha[axis], 4)
            lower = alpha[:axis] + (alpha[axis] - step,) + alpha[axis + 1 :]
            self._steps[alpha] = axis, step, lower
            self._plan(lower)

    def get(self, alpha: tuple[int, ...]) -> np.ndarray:
        if alpha not in self._store:
            axis, step, lower = self._steps[alpha]
            self._store[alpha] = _derivative_values(self.get(lower), self.grid, axis, step)
        self._uses[alpha] -= 1
        return self._store[alpha] if self._uses[alpha] else self._store.pop(alpha)


def _bidifferential_terms(n_dof: int, m: int) -> list[tuple[float, tuple, tuple]]:
    """B_m(f, g) as (weight, alpha_f, alpha_g): the sum of weight * D^alpha_f f * D^alpha_g g."""
    terms = []
    for combo in combinations_with_replacement(SymplecticForm(n_dof).pairs(), m):
        alpha_f = tuple(sum(a == axis for a, _, _ in combo) for axis in range(2 * n_dof))
        alpha_g = tuple(sum(b == axis for _, b, _ in combo) for axis in range(2 * n_dof))
        # each pair has its own f-axis, so alpha_f holds the multinomial counts
        weight = factorial(m) // prod(map(factorial, alpha_f)) * prod(w for _, _, w in combo)
        terms.append((weight, alpha_f, alpha_g))
    return terms


def _series(f: PhaseFunction, g: PhaseFunction, hbar: float, order: int, odd_only: bool):
    """sum_m (i*hbar/2)^m / m! B_m(f, g) for m <= order, or only its odd-m terms."""
    _require_same_grid(f, g)
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"truncation order must be in 0..{MAX_ORDER}, got {order}")
    orders = range(1, order + 1, 2 if odd_only else 1)
    terms = {m: _bidifferential_terms(f.grid.n_dof, m) for m in orders}
    fd = _DerivativeCache(f, [t[1] for m in orders for t in terms[m]])
    gd = _DerivativeCache(g, [t[2] for m in orders for t in terms[m]])
    total = np.zeros(f.grid.shape, dtype=complex) if odd_only else f.values * g.values
    for m in orders:
        b_m = sum(w * fd.get(alpha_f) * gd.get(alpha_g) for w, alpha_f, alpha_g in terms[m])
        total += (1j * hbar / 2.0) ** m / factorial(m) * b_m
    return total


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
    return f.with_values(_series(f, g, hbar, order, odd_only=True) * (2.0 / (1j * hbar)), label="")


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
    _require_same_grid(f, g)

    plain = f * g
    pb = poisson_bracket(f, g)
    scale = max(interior_max_abs(plain), interior_max_abs(pb), 1.0)
    exact_tol = 1e-12 * scale

    prod_err, brak_err = [], []
    for h in hbars:
        prod_err.append(interior_max_abs(star_product(f, g, h, order) - plain))
        brak_err.append(interior_max_abs(moyal_bracket(f, g, h, order) - pb))

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
