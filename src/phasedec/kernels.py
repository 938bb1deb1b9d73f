"""Built-in spectral kernel families for states and observables.

Profiles are plain callables of the omega nodes. The regular-kernel
factories return a :class:`CoherenceKernel`: one term
profile(w) conj(profile(w')) symbol(w - w'), which ``make_state`` and
``make_observable`` sample as :class:`~phasedec.spectral.CoherenceTerms`
(the profile on the n grid nodes, the symbol on the 2n - 1 offsets).
Opaque (w, w') callables are not accepted. The families differ in the
analytic structure of their dependence on nu = omega - omega', which is
what sets the decay class of time-evolved pairings:

* lorentzian: a pole at nu = +/- i*gamma, so residuals decay like
  exp(-gamma * t / hbar);
* gaussian: entire in nu, super-exponential residual decay;
* spectral_edge ("pole-free"): smooth in nu but with a sqrt(omega)
  half-line edge, so residuals decay only as a power law.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CoherenceKernel",
    "gaussian_profile",
    "polynomial_profile",
    "spectral_edge_profile",
    "separable_kernel",
    "lorentzian_kernel",
    "gaussian_coherence_kernel",
]


class CoherenceKernel:
    """One kernel term profile(w) conj(profile(w')) symbol(w - w'), described, not sampled.

    ``profile`` takes the omega nodes and ``symbol`` the offsets
    nu = omega - omega'; ``symbol`` None means 1. Consumers read
    the two attributes only, so a copy of the instance ``__dict__`` (as
    ``functools.wraps`` makes) describes the same kernel.
    """

    def __init__(self, profile, symbol=None):
        self.profile = profile
        self.symbol = symbol


def gaussian_profile(center: float, width: float):
    """exp(-(w - center)^2 / (2 width^2)) as a label profile."""
    if width <= 0:
        raise ValueError("width must be positive")

    def profile(w):
        return np.exp(-((w - center) ** 2) / (2.0 * width**2))

    return profile


def polynomial_profile(coefficients, decay: float = 1.0):
    """polyval(coefficients, w) * exp(-w / decay); decaying polynomial profile."""
    if decay <= 0:
        raise ValueError("decay must be positive")
    coeffs = np.asarray(coefficients, dtype=float)

    def profile(w):
        return np.polyval(coeffs, w) * np.exp(-w / decay)

    return profile


def spectral_edge_profile(decay: float = 1.2, cutoff: float | None = None):
    """sqrt(w) * exp(-w / decay), optionally super-Gaussian truncated.

    The square-root edge at w = 0 is non-analytic, the stand-in for
    pole-free spectra such as the free particle's.
    """
    if decay <= 0:
        raise ValueError("decay must be positive")
    if cutoff is not None and cutoff <= 0:
        raise ValueError("cutoff must be positive")

    def profile(w):
        out = np.sqrt(np.maximum(w, 0.0)) * np.exp(-w / decay)
        if cutoff is not None:
            out = out * np.exp(-((w / cutoff) ** 6))
        return out

    return profile


def separable_kernel(profile) -> CoherenceKernel:
    """Rank-1 hermitian off-diagonal kernel profile(w) * conj(profile(w'))."""
    return CoherenceKernel(profile)


def lorentzian_kernel(gamma: float, profile) -> CoherenceKernel:
    """profile(w) conj(profile(w')) * gamma^2 / ((w - w')^2 + gamma^2).

    Half-width ``gamma`` in nu = w - w'; the nearest pole of the nu
    dependence sits at distance gamma from the real axis. A gamma whose
    square is not a normal float is refused: at nu = 0 the symbol would be
    0/0 (an underflowed square) or inf/inf (an overflowed one).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    square = float(gamma) * float(gamma)
    if not np.finfo(float).tiny <= square <= np.finfo(float).max:
        raise ValueError(f"gamma {gamma!r} squares to {square!r}, not a normal float")

    def symbol(nu):
        return gamma**2 / (nu**2 + gamma**2)

    return CoherenceKernel(profile, symbol)


def gaussian_coherence_kernel(nu_width: float, profile) -> CoherenceKernel:
    """profile(w) conj(profile(w')) * exp(-(w - w')^2 / (2 nu_width^2))."""
    if nu_width <= 0:
        raise ValueError("nu_width must be positive")

    def symbol(nu):
        return np.exp(-(nu**2) / (2.0 * nu_width**2))

    return CoherenceKernel(profile, symbol)
