"""Kernel-family sanity: hermiticity, positivity, parameter validation."""

import numpy as np
import pytest

from phasedec import kernels
from phasedec.scenarios import _KERNEL_FAMILY_DEFAULTS, _coherence_from_options, _kernel_option
from phasedec.spectral import SpectralGrid, make_observable
from phasedec.states import HERMITIAN_TOL, make_state

GRID = SpectralGrid(4.0, 41)


def dense(kernel):
    return make_observable(GRID, None, kernel).regular.dense()


def test_gaussian_profile_peaks_at_center():
    profile = kernels.gaussian_profile(1.5, 0.3)
    w = np.linspace(0, 4, 81)
    assert w[np.argmax(profile(w))] == pytest.approx(1.5)


def test_profile_width_validation():
    with pytest.raises(ValueError):
        kernels.gaussian_profile(1.0, 0.0)
    with pytest.raises(ValueError):
        kernels.lorentzian_kernel(-0.1, kernels.gaussian_profile(1.0, 0.3))
    with pytest.raises(ValueError):
        kernels.gaussian_coherence_kernel(0.0, kernels.gaussian_profile(1.0, 0.3))
    with pytest.raises(ValueError):
        kernels.spectral_edge_profile(decay=0.0)
    with pytest.raises(ValueError):
        kernels.polynomial_profile([1.0], decay=-1.0)


@pytest.mark.parametrize(
    "factory",
    [
        lambda p: kernels.separable_kernel(p),
        lambda p: kernels.lorentzian_kernel(0.2, p),
        lambda p: kernels.gaussian_coherence_kernel(0.4, p),
    ],
)
def test_families_are_hermitian(factory):
    values = dense(factory(kernels.gaussian_profile(2.0, 0.5)))
    assert np.allclose(values, values.conj().T)


def test_lorentzian_peaks_on_diagonal():
    values = dense(kernels.lorentzian_kernel(0.1, lambda x: np.ones_like(x))).real
    assert np.allclose(np.diag(values), 1.0)
    assert values[0, -1] < 0.01


def test_spectral_edge_vanishes_at_zero():
    profile = kernels.spectral_edge_profile(decay=1.2, cutoff=7.5)
    w = np.linspace(0, 10, 101)
    vals = profile(w)
    assert vals[0] == 0.0
    assert vals[1] > 0.0
    assert vals[-1] < 1e-4  # cutoff suppresses the window edge


def test_polynomial_profile_matches_polyval():
    profile = kernels.polynomial_profile([1.0, -2.0, 3.0], decay=2.0)
    w = np.linspace(0, 4, 17)
    expected = np.polyval([1.0, -2.0, 3.0], w) * np.exp(-w / 2.0)
    assert np.allclose(profile(w), expected)


def test_families_integrate_with_make_observable():
    grid = SpectralGrid(4.0, 41)
    obs = make_observable(
        grid,
        lambda w: 1.0 + 0 * w,
        kernels.lorentzian_kernel(0.2, kernels.gaussian_profile(2.0, 0.5)),
    )
    assert np.all(obs.singular == 1.0)
    assert obs.regular.hermitian_defect_bound() <= HERMITIAN_TOL * obs.regular.max_abs_floor()


def _closed_form(family, w, wp):
    # each family written out on the full (omega, omega') mesh, at its defaults
    opts = _KERNEL_FAMILY_DEFAULTS[family]
    if family in ("lorentzian", "gaussian"):
        profile = lambda x: np.exp(-((x - opts["center"]) ** 2) / (2.0 * opts["width"] ** 2))
    elif family == "polefree":
        profile = lambda x: np.sqrt(x) * np.exp(-x / opts["decay"] - (x / opts["cutoff"]) ** 6)
    else:
        profile = lambda x: np.polyval(opts["coefficients"], x) * np.exp(-x / opts["decay"])
    nu = w - wp
    if family == "lorentzian":
        coherence = opts["gamma"] ** 2 / (nu**2 + opts["gamma"] ** 2)
    elif family == "gaussian":
        coherence = np.exp(-(nu**2) / (2.0 * opts["nu_width"] ** 2))
    else:
        coherence = 1.0
    return profile(w) * np.conj(profile(wp)) * coherence


def _full_mesh(grid):
    return np.meshgrid(grid.omega, grid.omega, indexing="ij")


def _full_mesh_samples(grid, kernel):
    # the sampling before open meshes: profile and symbol on the full squared grid,
    # with each offset taken as (i - i') * d_omega, as the offset grid has it
    w, wp = _full_mesh(grid)
    i, ip = np.meshgrid(np.arange(grid.omega_count), np.arange(grid.omega_count), indexing="ij")
    out = kernel.profile(w) * np.conj(kernel.profile(wp))
    if kernel.symbol is not None:
        out = out * kernel.symbol((i - ip) * grid.d_omega)
    return np.array(np.broadcast_to(out, grid.shape * 2), dtype=complex)


@pytest.mark.parametrize("family", sorted(_KERNEL_FAMILY_DEFAULTS))
def test_open_mesh_sampling_is_bit_identical_to_full_mesh(family):
    grid = SpectralGrid(10.0, 1201)
    diagonal, regular = _coherence_from_options(_kernel_option({"family": family}))
    expected = _full_mesh_samples(grid, regular)
    assert np.array_equal(make_state(grid, diagonal, regular).regular.dense(), expected)
    assert np.array_equal(make_observable(grid, None, regular).regular.dense(), expected)


@pytest.mark.parametrize("family", sorted(_KERNEL_FAMILY_DEFAULTS))
def test_dense_matches_closed_form_full_mesh(family):
    grid = SpectralGrid(10.0, 1201)
    diagonal, regular = _coherence_from_options(_kernel_option({"family": family}))
    expected = _closed_form(family, *_full_mesh(grid))
    scale = float(np.max(np.abs(expected)))
    state, observable = make_state(grid, diagonal, regular), make_observable(grid, None, regular)
    for terms in (state.regular, observable.regular):
        assert len(terms.a) == 1
        assert float(np.max(np.abs(terms.dense() - expected))) <= 1e-14 * scale
