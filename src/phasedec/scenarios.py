"""Named experiment scenarios behind the command-line runner.

Each scenario runs one self-contained experiment and returns three things:
its report fields, its checks and its plot-ready curves. A check is one
record ``(name, entry, key)``: the assertion's name, its verdict entry
(``passed`` and the values it judged) and, where the report repeats the
checked value, the report key that holds ``entry["value"]``.
``run_named_scenario`` alone assembles the report from these: the scenario
name, the seed, the fields, each keyed value, the ``assertions`` mapping
and ``passed``. So a checked value is written once, in its check. Scenario
parameters all have defaults; a config file only overrides what it names.

A value a run refuses is a ValueError naming its option. Every kernel
profile, kernel symbol and Gaussian profile block samples through one
check, ``_checked``: samples that are not finite, that all square to zero,
or (for a profile) that an FFT pairing cannot keep finite are refused,
naming the one parameter that the block's family blames. A parameter that
a ``kernels`` factory refuses when it is built is named through ``_option``.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels
from .decoherence import (
    Trajectory,
    fit_decay,
    limit_pairing,
    residual_trajectory,
    verify_final_positivity,
)
from .moyal import MAX_ORDER, classical_limit_check, moyal_bracket, star_product
from .phase_space import Axis, Grid, PhaseFunction, _shown, integrate, interior_max_abs
from .spectral import (
    MomentumMap,
    SpectralGrid,
    make_observable,
    plane_wave_matrix,
    regular_basis_observable,
    singular_basis_observable,
    symb_singular,
    synthesize_kernel,
    synthesize_wavefunction,
)
from .states import (
    make_state,
    pair,
    pair_regular_symbols,
    pair_singular_symbols,
    pure_state,
    random_admissible_state,
    regular_basis_functional,
    singular_basis_functional,
    singular_symbol,
    to_classical_density,
)
from .weyl import (
    OperatorKernel,
    gaussian_state,
    oscillator_state,
    q_marginal,
    trace_pair,
    wigner_of_kernel,
    wigner_of_pure_state,
)

__all__ = ["SCENARIO_NAMES", "scenario_defaults", "run_named_scenario", "ScenarioResult"]


@dataclass
class ScenarioResult:
    report: dict
    curves: dict[str, tuple[list[str], list[list]]]


#: the most states ``limit-positivity`` draws: each takes about 0.26 ms on
#: one core, so this many take about 3 s, and a larger count is refused
#: before the first state is drawn
MAX_STATES = 10_000

_KERNEL_FAMILY_DEFAULTS = {
    "lorentzian": {"gamma": 0.1, "center": 2.0, "width": 0.35},
    "gaussian": {"nu_width": 0.25, "center": 2.0, "width": 0.5},
    "polefree": {"decay": 1.2, "cutoff": 7.5},
    "custom-polynomial": {"coefficients": [1.0], "decay": 1.2},
}


_DEFAULTS: dict[str, dict] = {
    "moyal-convergence": {
        "hbar": [0.4, 0.2, 0.1],
        "grid": {"lo": -2.0, "hi": 2.0, "count": 161},
        "truncation_order": 3,
        "quadratic_hbar": 0.5,
    },
    "wigner-negativity": {
        "hbar": 1.0,
        "axis": {"lo": -6.0, "hi": 6.0, "count": 193},
    },
    "pairing-equivalence": {
        "hbar": 1.0,
        "spectral_grid": {"omega_max": 4.0, "omega_count": 241},
        "state_profile": {"center": 2.0, "width": 0.3},
        "observable_profile": {"center": 2.0, "width": 0.5},
        "q_axis": {"lo": -24.0, "hi": 24.0, "count": 385},
        "p_axis": {"lo": -0.5, "hi": 4.5, "count": 161},
        "box_lengths": [4.0, 8.0, 16.0, 32.0],
        "box_momentum_count": 193,
    },
    "decoherence-lorentzian": {
        "hbar": [0.5, 1.0],
        "spectral_grid": {"omega_max": 4.0, "omega_count": 801},
        "kernel": {"family": "lorentzian", **_KERNEL_FAMILY_DEFAULTS["lorentzian"]},
        "observable_profile": {"center": 2.0, "width": 0.5},
        "times": {"start_factor": 0.8, "stop_factor": 8.0, "count": 80, "spacing": "log"},
    },
    "decoherence-polefree": {
        "hbar": 1.0,
        "spectral_grid": {"omega_max": 10.0, "omega_count": 1001},
        "kernel": {"family": "polefree", **_KERNEL_FAMILY_DEFAULTS["polefree"]},
        "times": {"start": 1.0, "stop": 200.0, "count": 100, "spacing": "log"},
    },
    "limit-positivity": {
        "hbar": 1.0,
        "spectral_grid": {"omega_max": 4.0, "omega_count": 201},
        "n_states": 20,
        "wigner_axis": {"lo": -6.0, "hi": 6.0, "count": 129},
    },
}

SCENARIO_NAMES = tuple(sorted(_DEFAULTS))


def scenario_defaults(name: str | None = None) -> dict:
    """Deep copy of the defaults, for one scenario or all of them."""
    if name is None:
        return copy.deepcopy(_DEFAULTS)
    if name not in _DEFAULTS:
        raise KeyError(f"unknown scenario {name!r}")
    return copy.deepcopy(_DEFAULTS[name])


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    """``defaults`` with ``override`` merged in: the one place an override is typed.

    Each override takes its default's type. A mapping merges key by key, a
    list must be non-empty and holds finite floats, ints, floats and the
    hbar options go through their ``_*_option``, and ``kernel`` merges over
    its family's defaults.
    A refused value raises ValueError naming its path, as ``box_lengths[1]``.
    """
    out = copy.deepcopy(defaults)
    for key, value in override.items():
        name = path + key
        if key not in out:
            raise ValueError(f"unknown option {name!r}")
        default = out[key]
        if key == "kernel":
            out[key] = _kernel_option(value)
        elif key in ("hbar", "quadratic_hbar"):
            out[key] = _hbar_option(default, value, name)
        elif isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"option {name!r} must be a mapping")
            out[key] = _merge(default, value, f"{name}.")
        elif isinstance(default, list):
            if not isinstance(value, list) or not value:
                raise ValueError(
                    f"option {name!r} must be a non-empty list of finite numbers, got {value!r}"
                )
            out[key] = [_float_option(v, f"{name}[{i}]") for i, v in enumerate(value)]
        elif isinstance(default, int):
            out[key] = _integer_option(value, name)
        elif isinstance(default, float):
            out[key] = _float_option(value, name)
        else:
            out[key] = value
    return out


def _integer_option(value, name: str) -> int:
    """``value`` as an int, for an option whose default is one.

    A float must be finite and integral (193.0, not 193.7 or 1e400); a bool
    or a non-number is refused, so nothing is silently truncated.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        if float(value).is_integer():  # False for inf and nan
            value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"option {name!r} must be an integer, got {value!r}")
    return int(value)


def _float_option(value, name: str) -> float:
    """``value`` as a float, for an option whose default is one.

    It must be a finite real number: a bool, a string, nan, inf or an
    integer too large for a float (1e400 in JSON parses to inf) is refused.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"option {name!r} must be a finite number, got {value!r}")


def _hbar_option(default, value, name: str):
    """hbar values: a list where the default is one, else a single number.

    Each must be a positive finite number. A list default also takes one
    number (``--hbar`` gives one); a scalar default a one-element list.
    """
    values = value if isinstance(value, list) else [value]
    values = [_float_option(v, name) for v in values]
    if not values or min(values) <= 0:
        raise ValueError(f"option {name!r} needs positive numbers, got {value!r}")
    if isinstance(default, list):
        return values
    if len(values) > 1:
        raise ValueError(f"option {name!r} takes one value here, got {len(values)}: {values}")
    return values[0]


def _kernel_option(value) -> dict:
    """A ``kernel`` block over its named family's defaults, not the scenario's kernel."""
    if not isinstance(value, dict):
        raise ValueError("option 'kernel' must be a mapping")
    params = dict(value)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _KERNEL_FAMILY_DEFAULTS:
        problem = "is missing" if family is None else f"names unknown kernel family {family!r}"
        raise ValueError(
            f"option 'kernel.family' {problem}; choose from "
            f"{', '.join(sorted(_KERNEL_FAMILY_DEFAULTS))}"
        )
    return {"family": family, **_merge(_KERNEL_FAMILY_DEFAULTS[family], params, "kernel.")}


def _coherence_from_options(kernel: dict):
    """Diagonal callable and regular kernel term of a typed ``kernel`` block.

    Returns (diagonal_fn, regular_kernel), the kernel a
    ``kernels.CoherenceKernel``. The diagonal is the squared profile, so
    every family yields an admissible state. The profile and the symbol
    sample through ``_checked``; a parameter that a factory refuses when it
    is built is named through ``_option``.
    """
    family = kernel["family"]
    symbol = None
    if family in ("lorentzian", "gaussian"):
        profile = _gaussian_block(kernel, "kernel")
        name = "gamma" if family == "lorentzian" else "nu_width"
        factory = kernels.lorentzian_kernel if family == "lorentzian" else kernels.gaussian_coherence_kernel
        symbol = _option(f"kernel.{name}", factory, kernel[name], profile).symbol
        symbol = _checked(symbol, "kernel", kernel, lambda x: name, "symbol")
    elif family == "polefree":  # the uncut factor sqrt(w) exp(-w / decay) is the decay's
        uncut = _option("kernel.decay", kernels.spectral_edge_profile, kernel["decay"])
        edge = _option("kernel.cutoff", kernels.spectral_edge_profile, kernel["decay"], kernel["cutoff"])
        profile = _checked(edge, "kernel", kernel, lambda x: "decay" if _fault(uncut, x)[0] else "cutoff")
    else:  # custom-polynomial: the polynomial factor is the coefficients'
        coefficients = kernel["coefficients"]
        decaying = _option("kernel.decay", kernels.polynomial_profile, coefficients, kernel["decay"])
        poly = functools.partial(np.polyval, coefficients)
        profile = _checked(
            decaying, "kernel", kernel, lambda x: "coefficients" if _fault(poly, x)[0] else "decay"
        )

    def diagonal(w):
        return np.abs(profile(w)) ** 2

    return diagonal, kernels.CoherenceKernel(profile, symbol)


def _gaussian_block(block: dict, path: str):
    """``kernels.gaussian_profile`` of a (center, width) block, sampled through ``_checked``.

    A refusal names the center when it lies outside the nodes' range, else
    the width; a width <= 0 is refused, by name, when the profile is built.
    """
    center = block["center"]
    profile = _option(f"{path}.width", kernels.gaussian_profile, center, block["width"])
    return _checked(profile, path, block, lambda x: "width" if np.min(x) <= center <= np.max(x) else "center")


def _fault(function, x, kind: str = "profile") -> tuple[str | None, np.ndarray]:
    """Why the samples ``function(x)`` cannot be used (None if they can), and the samples.

    They are taken with float errors ignored: on the omega nodes an
    exponent that overflows is a factor of exactly 0, and a 0/0 is a NaN.
    Samples that are not finite, or that all square to zero, are refused.
    So is a profile whose squared sum s over m nodes of step h leaves
    4 m s^2 max(1, h^2) not finite: an FFT pairing of two profile factors
    sums up to 4 m products of two such sums, and ``_coherence_weights``
    scales them by d_omega^2. A symbol (on the offsets) multiplies the
    pairing after the FFT, so its sum is not bounded.
    """
    x = np.asarray(x)
    with np.errstate(all="ignore"):
        try:
            out = function(x)
        except OverflowError:  # a Python float power, as width**2 at width 1e200
            out = np.full(x.shape, math.inf)
        squares = float(np.sum(np.abs(out) ** 2))
    step = float(np.ptp(x)) / max(x.size - 1, 1)
    where = "node" if kind == "profile" else "offset"
    if not np.all(np.isfinite(out)):
        return f"needs a finite exponent and a finite sample at every omega {where}", out
    if not squares:
        return f"squares to zero on every omega {where}", out
    if kind == "profile" and not math.isfinite(4.0 * x.size * squares * squares * max(1.0, step * step)):
        return (
            f"squares to a sum of {squares:.3g} over {x.size} omega nodes of step {step:.3g}, "
            "too large for a pairing to stay finite"
        ), out
    return None, out


def _checked(function, path: str, block: dict, blame, kind: str = "profile"):
    """``function``, sampling through ``_fault``: the one check of every kernel and profile block.

    A refusal is one ValueError naming ``path.blame(x)``: the one parameter
    of ``block`` that its family blames when the samples on ``x`` fail.
    """

    def sample(x):
        fault, out = _fault(function, x, kind)
        if fault is None:
            return out
        params = ", ".join(f"{key} {value!r}" for key, value in block.items() if key != "family")
        raise ValueError(f"option '{path}.{blame(x)}': the {kind} {fault}; got {params}")

    return sample


def _option(names: str | tuple[str, ...], build, *args, **kwargs):
    """``build(*args, **kwargs)`` for one option, or for a tuple of options that set a limit together.

    A ValueError it raises names the option, or every option of the tuple.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        names = (names,) if isinstance(names, str) else names
        raise ValueError(f"option{'s' * (len(names) > 1)} {', '.join(map(repr, names))}: {exc}") from None


def _assertion(name: str, passed: bool, key: str | None = None, **details) -> tuple[str, dict, str | None]:
    """One check record: the assertion's name, its verdict entry and the report key of ``details["value"]``.

    ``key`` None leaves the value in the entry alone.
    """
    return name, {"passed": bool(passed), **details}, key


def _near(name: str, value, target: float, tolerance: float, relative: bool = False, key: str | None = None):
    """Passes when |value - target| <= tolerance, times |target| when ``relative``; None fails."""
    limit = tolerance * abs(target) if relative else tolerance
    passed = value is not None and abs(value - target) <= limit
    return _assertion(name, passed, key, value=value, target=target, tolerance=tolerance)


def _below(name: str, value, bound: float, key: str | None = None, **details):
    """Passes when value < bound; a probe time ``t`` in ``details`` must also be below ``t_max``."""
    inside = details.get("t", -math.inf) < details.get("t_max", math.inf)
    return _assertion(name, value < bound and inside, key, value=value, bound=bound, **details)


def _above(name: str, value, bound: float, key: str | None = None):
    """Passes when value > bound."""
    return _assertion(name, value > bound, key, value=value, bound=bound)


def _table(header: list[str], *columns) -> tuple[list[str], list[list]]:
    """A curve: its CSV header and one row per index of the equal-length columns, as Python numbers."""
    return header, [list(row) for row in zip(*(np.asarray(column).tolist() for column in columns))]


def _time_grid(time_opts: dict, t_scale: float = 1.0) -> np.ndarray:
    count = time_opts["count"]
    if count < 12:
        raise ValueError("time grid needs at least 12 points")
    if "start_factor" in time_opts:
        start = time_opts["start_factor"] * t_scale
        stop = time_opts["stop_factor"] * t_scale
    else:
        start, stop = time_opts["start"], time_opts["stop"]
    if not 0 < start < stop:
        raise ValueError("time grid must satisfy 0 < start < stop")
    spacing = time_opts["spacing"]
    if spacing == "log":
        return np.geomspace(start, stop, count)
    if spacing == "linear":
        return np.linspace(start, stop, count)
    raise ValueError(f"time grid spacing must be 'log' or 'linear', got {spacing!r}")


def _run_moyal_convergence(opts: dict, seed: int) -> tuple[dict, list, dict]:
    hbars = sorted(opts["hbar"], reverse=True)
    grid = Grid.square(*_option("grid", Axis, **opts["grid"]))
    order = opts["truncation_order"]
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"option 'truncation_order' must be in 0..{MAX_ORDER}, got {_shown(order)}")
    f = PhaseFunction.sample(grid, lambda q, p: q**3, "q^3")
    h = PhaseFunction.sample(grid, lambda q, p: p**3, "p^3")
    rep = _option("hbar", classical_limit_check, f, h, hbars, order=order)

    hq = opts["quadratic_hbar"]
    ham = PhaseFunction.sample(grid, lambda q, p: 0.5 * (q**2 + p**2), "H")
    coord_q = PhaseFunction.sample(grid, lambda q, p: q, "q")
    mom_p = PhaseFunction.sample(grid, lambda q, p: p, "p")
    # the star product refuses an hq whose (i hq/2)^2 / 2 overflows, so the
    # shift (hq/2)^2 = hq^2/4 is finite by the time it is sampled
    star = _option("quadratic_hbar", star_product, ham, ham, hq)
    bracket_err = interior_max_abs(_option("quadratic_hbar", moyal_bracket, ham, coord_q, hq) + mom_p)
    shift = PhaseFunction.sample(grid, lambda q, p: (hq / 2) ** 2)
    star_err = interior_max_abs(star - ham * ham + shift)

    checks = [
        _near("product_slope_first_order", rep.product_slope, 1.0, 0.15, key="product_slope"),
        _near("bracket_slope_second_order", rep.bracket_slope, 2.0, 0.2, key="bracket_slope"),
        _below("quadratic_bracket_exact", bracket_err, 1e-8, key="quadratic_bracket_error"),
        _below("quadratic_star_exact", star_err, 1e-8, key="quadratic_star_error"),
    ]
    errors = {"product_errors": list(rep.product_errors), "bracket_errors": list(rep.bracket_errors)}
    curve = _table(["hbar", "product_error", "bracket_error"], hbars, rep.product_errors, rep.bracket_errors)
    return {"hbar": hbars, **errors}, checks, {"convergence": curve}


def _run_wigner_negativity(opts: dict, seed: int) -> tuple[dict, list, dict]:
    hbar = opts["hbar"]
    axis = _option("axis", Axis, **opts["axis"])
    grid = Grid.rectangle(axis, axis)
    limit = ("hbar", "axis")  # they set the phase-step limit max|p| dy / hbar < pi/4 and the states' samples
    psi = _option(limit, gaussian_state, axis, sigma=np.sqrt(hbar))
    ground = _option(limit, wigner_of_pure_state, psi, hbar, grid)
    # the checks read three things of the ground symbol: taken here, it is
    # dropped before the excited one is built, so one n x n symbol is held
    # at a time (two would outgrow what glibc keeps of the heap between runs)
    mid = grid.shape[1] // 2
    min_ground, ground_p0 = float(ground.values.real.min()), ground.values[:, mid].copy()
    masses = {"ground": float(integrate(ground).real)}
    del ground
    psi = _option(limit, oscillator_state, axis, 1, hbar)
    excited = _option(limit, wigner_of_pure_state, psi, hbar, grid)
    min_excited = float(excited.values.real.min())
    # dip of the first excited quasi-density at the origin is -1/(pi*hbar)
    target = -1.0 / (np.pi * hbar)
    masses["excited"] = float(integrate(excited).real)
    tol = 1e-5  # of each unit mass

    checks = [
        _near("excited_minimum_depth", min_excited, target, 0.02, relative=True, key="min_excited"),
        _assertion("excited_is_negative", min_excited < 0, value=min_excited),
        _above("ground_nonnegative", min_ground, -1e-6, key="min_ground"),
        *[
            _assertion(
                f"{state}_unit_mass", abs(mass - 1.0) <= tol, key=f"mass_{state}", value=mass, tolerance=tol
            )
            for state, mass in masses.items()
        ],
        _above("marginal_nonnegative", float(q_marginal(excited).min()), -1e-6, key="min_marginal"),
    ]
    columns = grid.coordinate(0), ground_p0, excited.values[:, mid].real
    curve = _table(["q", "W_ground_p0", "W_excited_p0"], *columns)
    return {"hbar": hbar, "target_minimum": target}, checks, {"wigner_slice": curve}


def _run_pairing_equivalence(opts: dict, seed: int) -> tuple[dict, list, dict]:
    hbar = opts["hbar"]
    q_axis = _option("q_axis", Axis, **opts["q_axis"])
    p_axis = _option("p_axis", Axis, **opts["p_axis"])
    lengths = opts["box_lengths"]
    for i, length in enumerate(lengths):
        if length <= 0:
            raise ValueError(f"option 'box_lengths[{i}]' must be positive, got {length}")
    if len(set(lengths)) < 2:  # the growth slope is a line fit over the lengths
        raise ValueError(f"option 'box_lengths' needs at least two distinct lengths, got {lengths}")
    sgrid = _option("spectral_grid", SpectralGrid, **opts["spectral_grid"])
    p_lo, p_hi = 0.0, sgrid.omega_max
    box_p_axis = _option("box_momentum_count", Axis, p_lo, p_hi, opts["box_momentum_count"])
    coeff_profile = _gaussian_block(opts["state_profile"], "state_profile")
    obs_profile = _gaussian_block(opts["observable_profile"], "observable_profile")

    coeffs = coeff_profile(sgrid.omega).astype(complex)
    coeffs = coeffs / np.sqrt(np.sum(np.abs(coeffs) ** 2) * sgrid.d_omega)
    rho = pure_state(sgrid, coeffs)
    obs = make_observable(sgrid, None, kernels.separable_kernel(obs_profile))

    v_spectral = pair(rho, obs)
    # one plane-wave matrix serves psi and the observable's factors; both
    # kernels stay rank one, so no q x q array is formed
    table = _option(("hbar", "spectral_grid", "q_axis"), plane_wave_matrix, sgrid, q_axis, hbar)
    psi = synthesize_wavefunction(sgrid, coeffs, q_axis, table)
    k_rho = OperatorKernel(q_axis, u=psi.normalize().values[None])
    k_obs = synthesize_kernel(sgrid, obs.regular, q_axis, table)
    del table
    v_trace = trace_pair(k_rho, k_obs)

    pgrid = Grid.rectangle(q_axis, p_axis)
    limit = ("hbar", "q_axis", "p_axis")  # the Wigner phase-step limit
    w_rho = _option(limit, wigner_of_pure_state, psi, hbar, pgrid)
    a_obs = _option(limit, wigner_of_kernel, k_obs, hbar, pgrid)
    v_phase = pair_regular_symbols(w_rho, a_obs)

    values = np.array([v_spectral, v_trace, v_phase])
    spread = float(np.max(np.abs(values - values.mean())) / abs(values.mean()))

    # duality block: discrete basis pairings across random node pairs
    idx = np.random.default_rng(seed).integers(0, sgrid.omega_count, size=4)
    i, j = int(idx[0]), int(idx[1])
    k, l = int(idx[2]), int(idx[3])
    if i == j:
        j = (j + 1) % sgrid.omega_count
    dual_same = pair(singular_basis_functional(sgrid, i), singular_basis_observable(sgrid, i)).real
    dual_diff = abs(pair(singular_basis_functional(sgrid, i), singular_basis_observable(sgrid, j)))
    dual_reg = pair(regular_basis_functional(sgrid, k, l), regular_basis_observable(sgrid, k, l)).real
    cross_a = abs(pair(singular_basis_functional(sgrid, i), regular_basis_observable(sgrid, k, l)))
    cross_b = abs(pair(regular_basis_functional(sgrid, k, l), singular_basis_observable(sgrid, i)))
    dual_expected = 1.0 / sgrid.d_omega
    dual_reg_expected = 1.0 / sgrid.d_omega**2
    exact = 1e-9  # relative round-off allowed in the delta identities

    # singular-integration block: momentum-space pairing vs growing boxes.
    # With H = p the full integral over [-L, L] x [p_lo, p_hi] is 2L times
    # the momentum-space pairing, so the full value per unit q must match it
    rho_diag = make_state(sgrid, coeff_profile)
    obs_diag = make_observable(sgrid, obs_profile)
    restricted = pair_singular_symbols(to_classical_density(rho_diag), obs_diag).real
    volumes, full_values, densities = [], [], []
    for length in lengths:
        box = Grid.rectangle((-length, length, 97), box_p_axis)
        tmap = MomentumMap.translation(box)
        product = singular_symbol(rho_diag, tmap, box) * symb_singular(obs_diag, tmap, box)
        volumes.append(2.0 * length * (p_hi - p_lo))
        full_values.append(float(integrate(product).real))
        densities.append(full_values[-1] / (2.0 * length))
    growth_slope = float(np.polyfit(np.log(volumes), np.log(full_values), 1)[0])
    density_error = float(np.max(np.abs(np.array(densities) - restricted)) / abs(restricted))

    checks = [
        _below("three_way_agreement", spread, 1e-4, key="relative_spread"),
        _assertion(
            "duality_singular_delta",
            abs(dual_same - dual_expected) <= exact * dual_expected and dual_diff == 0.0,
            key="duality_singular",
            value=dual_same,
            expected=dual_expected,
            off_node=dual_diff,
        ),
        _assertion(
            "duality_regular_delta",
            abs(dual_reg - dual_reg_expected) <= exact * dual_reg_expected,
            key="duality_regular",
            value=dual_reg,
            expected=dual_reg_expected,
        ),
        _assertion(
            "duality_cross_zero", cross_a == 0.0 and cross_b == 0.0, sing_reg=cross_a, reg_sing=cross_b
        ),
        _near("box_growth_linear", growth_slope, 1.0, 0.1, key="box_growth_slope"),
        _below(
            "restricted_pairing_is_conjugate_density", density_error, 1e-3, key="restricted_density_error"
        ),
    ]
    fields = {
        "hbar": hbar,
        "value_spectral": v_spectral.real,
        "value_trace": v_trace.real,
        "value_phase_space": v_phase.real,
        "restricted_pairing": restricted,
    }
    header = ["box_volume", "full_phase_space_integral", "conjugate_density"]
    return fields, checks, {"box_growth": _table(header, volumes, full_values, densities)}


def _run_decoherence_lorentzian(opts: dict, seed: int) -> tuple[dict, list, dict]:
    hbars = opts["hbar"]
    kernel = opts["kernel"]
    if kernel["family"] != "lorentzian":
        raise ValueError(
            "option 'kernel.family': the inverse-pole-distance assertions need a 'lorentzian' kernel; "
            f"got family {kernel['family']!r} (use decoherence-polefree for the others)"
        )
    diagonal, regular = _coherence_from_options(kernel)
    gamma = kernel["gamma"]
    sgrid = _option("spectral_grid", SpectralGrid, **opts["spectral_grid"])
    prof_obs = _gaussian_block(opts["observable_profile"], "observable_profile")
    rho = make_state(sgrid, diagonal, regular)
    obs = make_observable(sgrid, lambda w: 1.0, kernels.separable_kernel(prof_obs))
    limit = limit_pairing(rho, obs)

    checks = []
    per_hbar = []
    curves = {}
    for hbar in hbars:
        t_dec_expected = hbar / gamma
        times = _option("times", _time_grid, opts["times"], t_scale=t_dec_expected)
        # the residual on a uniform omega grid recurs with period
        # 2 pi hbar / d_omega, so the tail probe must sit before half of it
        t_tail = 40.0 * t_dec_expected
        half_recurrence = sgrid.recurrence_time(hbar) / 2.0
        # one trajectory covers the curve and both probes; the sorted set
        # keeps its time grid increasing whatever the configured curve
        # range (np.unique would import numpy.ma on its first call)
        wanted = np.concatenate([times, [10.0 * t_dec_expected, t_tail]])
        grid_times = np.array(sorted(set(wanted.tolist())))
        # its times scale with hbar / gamma, so the kernel is named too
        names = ("hbar", "kernel", "spectral_grid", "times")
        values = _option(names, residual_trajectory, rho, obs, grid_times, hbar).values
        values = values[np.searchsorted(grid_times, wanted)]
        traj = Trajectory(times, values[: len(times)], limit)
        late, very_late = np.abs(values[len(times) :]) / abs(limit)
        fit = fit_decay(traj)
        rate_expected = gamma / hbar
        tag = f"hbar_{hbar:g}"
        per_hbar.append(
            {
                "hbar": hbar,
                "model": fit.model,
                "rate": fit.rate,
                "r_squared": fit.fit_quality,
                "t_dec": fit.t_dec,
                "expected_rate": rate_expected,
                "relative_residual_at_10_tdec": late,
                "relative_residual_at_40_tdec": very_late,
                "tail_probe_time": t_tail,
                "half_recurrence_time": half_recurrence,
            }
        )
        checks += [
            _assertion(f"{tag}_exponential_selected", fit.model == "exponential", model=fit.model),
            _above(f"{tag}_fit_quality", fit.fit_quality, 0.99),
            _near(f"{tag}_inverse_pole_distance", fit.rate, rate_expected, 0.05, relative=True),
            _below(f"{tag}_weak_limit_reached", late, 1e-3),
            _below(f"{tag}_weak_limit_tail", very_late, 1e-6, t=t_tail, t_max=half_recurrence),
        ]
        curves[f"residual_{tag}"] = _table(["t", "abs_residual"], traj.times, np.abs(traj.values))
    fields = {"kernel": kernel, "gamma": gamma, "limit_value": limit, "results": per_hbar}
    return fields, checks, curves


def _run_decoherence_polefree(opts: dict, seed: int) -> tuple[dict, list, dict]:
    hbar = opts["hbar"]
    sgrid = _option("spectral_grid", SpectralGrid, **opts["spectral_grid"])
    kernel = opts["kernel"]
    if kernel["family"] == "lorentzian":
        raise ValueError(
            "option 'kernel.family': this scenario checks the absence of exponential decay; "
            "run the lorentzian family through decoherence-lorentzian"
        )
    diagonal, regular = _coherence_from_options(kernel)
    rho = make_state(sgrid, diagonal, regular)
    obs = make_observable(sgrid, lambda w: 1.0, regular)
    times = _option("times", _time_grid, opts["times"])
    # past half the recurrence time 2 pi hbar / d_omega the residual is aliased
    half_recurrence = sgrid.recurrence_time(hbar) / 2.0
    traj = _option(("hbar", "spectral_grid", "times"), residual_trajectory, rho, obs, times, hbar)
    fit = fit_decay(traj)

    # the exponential fit must lose outright for a pole-free kernel
    checks = [
        _assertion("non_exponential_model", fit.model in ("power_law", "none"), model=fit.model),
        _below("exponential_fit_poor", fit.r2_exponential, 0.9, key="r_squared_exponential"),
        _assertion("infinite_decoherence_time", np.isinf(fit.t_dec), key="t_dec", value=fit.t_dec),
        _assertion(
            "within_recurrence_window",
            times[-1] < half_recurrence,
            t=float(times[-1]),
            t_max=half_recurrence,
        ),
    ]
    fields = {
        "hbar": hbar,
        "kernel": kernel,
        "model": fit.model,
        "power_law_exponent": fit.rate,
        "r_squared_selected": fit.fit_quality,
        "half_recurrence_time": half_recurrence,
    }
    return fields, checks, {"residual": _table(["t", "abs_residual"], traj.times, np.abs(traj.values))}


def _run_limit_positivity(opts: dict, seed: int) -> tuple[dict, list, dict]:
    hbar = opts["hbar"]
    sgrid = _option("spectral_grid", SpectralGrid, **opts["spectral_grid"])
    n_states = opts["n_states"]
    if n_states < 1:
        raise ValueError(f"option 'n_states' must be >= 1, got {_shown(n_states)}")
    if n_states > MAX_STATES:
        raise ValueError(f"option 'n_states' must be <= MAX_STATES = {MAX_STATES}, got {_shown(n_states)}")
    axis = _option("wigner_axis", Axis, **opts["wigner_axis"])

    minima = []
    all_passed = True
    rng = np.random.default_rng(seed)
    for _ in range(n_states):
        state = random_admissible_state(sgrid, rng)
        result = verify_final_positivity(state)
        minima.append(result.min_value)
        all_passed = all_passed and result.passed

    grid = Grid.rectangle(axis, axis)
    limit = ("hbar", "wigner_axis")  # they set the phase-step limit and the state's samples
    psi = _option(limit, oscillator_state, axis, 1, hbar)
    excited = _option(limit, wigner_of_pure_state, psi, hbar, grid)
    wigner_min = float(excited.values.real.min())

    worst = float(min(minima))
    checks = [
        _assertion("all_final_densities_nonnegative", all_passed, n_states=n_states, worst_minimum=worst),
        _assertion(
            "pre_limit_symbol_negative", wigner_min < 0, key="wigner_contrast_minimum", value=wigner_min
        ),
    ]
    curve = _table(["state_index", "min_value"], range(n_states), minima)
    fields = {"hbar": hbar, "n_states": n_states, "worst_minimum": worst}
    return fields, checks, {"final_density_minima": curve}


_RUNNERS = {
    "moyal-convergence": _run_moyal_convergence,
    "wigner-negativity": _run_wigner_negativity,
    "pairing-equivalence": _run_pairing_equivalence,
    "decoherence-lorentzian": _run_decoherence_lorentzian,
    "decoherence-polefree": _run_decoherence_polefree,
    "limit-positivity": _run_limit_positivity,
}


def run_named_scenario(name: str, overrides: dict, seed: int) -> ScenarioResult:
    """Run one scenario with defaults merged under the given overrides, and assemble its report.

    The runner returns its fields, its check records and its curves. The
    report is ``scenario``, ``seed``, the fields, ``entry["value"]`` under
    the key of each check that names one, ``assertions`` (each check's
    entry by name, in the runner's order) and ``passed`` (every entry
    passed). Only the scenarios that draw (``pairing-equivalence`` and
    ``limit-positivity``) build a generator from ``seed``, so the others
    never import ``numpy.random``.
    """
    if name not in _RUNNERS:
        raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    if seed < 0:
        raise ValueError(f"option 'seed' must be >= 0, got {_shown(seed)}")
    fields, checks, curves = _RUNNERS[name](_merge(_DEFAULTS[name], overrides), seed)
    report = {"scenario": name, "seed": seed, **fields}
    report.update((key, entry["value"]) for _, entry, key in checks if key is not None)
    report["assertions"] = {check: entry for check, entry, _ in checks}
    report["passed"] = all(entry["passed"] for _, entry, _ in checks)
    return ScenarioResult(report, curves)
