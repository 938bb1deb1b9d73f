"""Closed-form star products and Poisson brackets of polynomials.

These are the references for the algebra workload's library ops. A
polynomial in (q_1..q_N, p_1..p_N) is a coefficient tensor ``c`` with one
axis per coordinate: ``c[a, b, ...]`` multiplies ``q_1**a * q_2**b * ...``.
Derivatives and products act on the coefficients exactly, so nothing here
shares a code path with phasedec's finite-difference series.

The star product is expanded as

    f * g = sum over multi-indices alpha, beta of
            (i hbar/2)^|alpha| (-i hbar/2)^|beta| / (alpha! beta!)
            (d_q^alpha d_p^beta f) (d_p^alpha d_q^beta g),

cut at |alpha| + |beta| <= order, which is the truncated Moyal series.
For polynomials whose degrees keep every dropped term zero the cut series
is the exact product.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def random_polynomial(rng: np.random.Generator, n_axes: int, degree: int) -> np.ndarray:
    """Coefficients uniform in [-1, 1] on every monomial of total degree <= ``degree``."""
    coeffs = np.zeros((degree + 1,) * n_axes)
    for powers in itertools.product(range(degree + 1), repeat=n_axes):
        if sum(powers) <= degree:
            coeffs[powers] = rng.uniform(-1.0, 1.0)
    return coeffs


def derivative(coeffs: np.ndarray, axis: int, times: int) -> np.ndarray:
    """``times``-th partial derivative along one coordinate."""
    if times == 0:
        return coeffs
    n = coeffs.shape[axis]
    if times >= n:
        shape = list(coeffs.shape)
        shape[axis] = 1
        return np.zeros(shape, dtype=coeffs.dtype)
    powers = np.arange(times, n)
    falling = np.array([math.perm(int(k), times) for k in powers], dtype=float)
    shape = [1] * coeffs.ndim
    shape[axis] = -1
    return np.take(coeffs, powers, axis=axis) * falling.reshape(shape)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polynomial product: a full convolution of the coefficient tensors."""
    out = np.zeros(tuple(x + y - 1 for x, y in zip(a.shape, b.shape)), dtype=complex)
    for index in zip(*np.nonzero(a)):
        window = tuple(slice(i, i + n) for i, n in zip(index, b.shape))
        out[window] += a[index] * b
    return out


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    shape = tuple(max(x, y) for x, y in zip(a.shape, b.shape))
    out = np.zeros(shape, dtype=complex)
    out[tuple(slice(0, n) for n in a.shape)] += a
    out[tuple(slice(0, n) for n in b.shape)] += b
    return out


def star_product(f: np.ndarray, g: np.ndarray, hbar: float, order: int) -> np.ndarray:
    """Moyal series of two polynomials, truncated after the hbar**order term."""
    n_dof = f.ndim // 2
    total = np.zeros((1,) * f.ndim, dtype=complex)
    for alpha in itertools.product(range(order + 1), repeat=n_dof):
        for beta in itertools.product(range(order + 1), repeat=n_dof):
            if sum(alpha) + sum(beta) > order:
                continue
            df, dg = f, g
            for i, (a, b) in enumerate(zip(alpha, beta)):
                df = derivative(derivative(df, i, a), n_dof + i, b)
                dg = derivative(derivative(dg, n_dof + i, a), i, b)
            if not (df.any() and dg.any()):
                continue
            weight = (0.5j * hbar) ** sum(alpha) * (-0.5j * hbar) ** sum(beta)
            weight /= math.prod(math.factorial(k) for k in alpha + beta)
            total = add(total, weight * multiply(df, dg))
    return total


def poisson_bracket(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i d_qi f d_pi g - d_pi f d_qi g."""
    n_dof = f.ndim // 2
    total = np.zeros((1,) * f.ndim, dtype=complex)
    for i in range(n_dof):
        q, p = i, n_dof + i
        total = add(total, multiply(derivative(f, q, 1), derivative(g, p, 1)))
        total = add(total, -multiply(derivative(f, p, 1), derivative(g, q, 1)))
    return total


def evaluate(coeffs: np.ndarray, coords: list[np.ndarray]) -> np.ndarray:
    """Values of the polynomial on the tensor grid spanned by ``coords``."""
    out = np.asarray(coeffs, dtype=complex)
    for axis, x in enumerate(coords):
        vandermonde = x[:, None] ** np.arange(out.shape[axis])
        out = np.moveaxis(np.tensordot(out, vandermonde, axes=([axis], [1])), -1, axis)
    return out
