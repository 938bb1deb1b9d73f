"""Kernel-family sanity: hermiticity, positivity, parameter validation."""

import numpy as np
import pytest

from phasedec import kernels
from phasedec.scenarios import _KERNEL_FAMILY_DEFAULTS, _coherence_from_options
from phasedec.spectral import SpectralGrid, make_observable
from phasedec.states import make_state


@pytest.fixture
def mesh():
    w = np.linspace(0.0, 4.0, 41)
    return w[:, None], w[None, :]


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
def test_families_are_hermitian(mesh, factory):
    w, wp = mesh
    kernel = factory(kernels.gaussian_profile(2.0, 0.5))
    values = kernel(w, wp)
    assert np.allclose(values, values.conj().T)


def test_lorentzian_peaks_on_diagonal(mesh):
    w, wp = mesh
    kernel = kernels.lorentzian_kernel(0.1, lambda x: np.ones_like(x))
    values = kernel(w, wp).real
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
    assert obs.self_adjoint


def _full_mesh_samples(grid, regular_fn):
    # the sampling before open meshes: every label on the full squared grid
    coords = grid.coordinates()
    half = len(coords)
    meshes = np.meshgrid(*coords, *coords, indexing="ij")
    args = [mesh for pair in zip(meshes[:half], meshes[half:]) for mesh in pair]
    return np.array(np.broadcast_to(regular_fn(*args), grid.shape * 2), dtype=complex)


@pytest.mark.parametrize("family", sorted(_KERNEL_FAMILY_DEFAULTS))
def test_open_mesh_sampling_is_bit_identical_to_full_mesh(family):
    grid = SpectralGrid(10.0, 1201)
    diagonal, regular, _ = _coherence_from_options({"family": family})
    expected = _full_mesh_samples(grid, regular)
    assert np.array_equal(make_state(grid, diagonal, regular).regular, expected)
    assert np.array_equal(make_observable(grid, None, regular).regular, expected)


def test_open_mesh_sampling_on_two_label_grid():
    grid = SpectralGrid(3.0, 21, momentum_axes=((-1.0, 1.0, 17),))

    def regular(w, wp, p, pp):
        return np.exp(-((w - wp) ** 2) - (p - pp) ** 2) * np.exp(0.3j * (w * pp - wp * p))

    expected = _full_mesh_samples(grid, regular)
    assert np.array_equal(make_observable(grid, None, regular).regular, expected)
    assert np.array_equal(
        make_state(grid, lambda w, p: 1.0 + 0 * w, regular).regular, expected
    )
