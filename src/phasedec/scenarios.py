"""Named experiment scenarios behind the command-line runner.

Each scenario runs one self-contained experiment, returns a scalar report
with named pass/fail assertions, and emits plot-ready curves. Scenario
parameters all have defaults; a config file only overrides what it names.
"""

from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .decoherence import (
    Trajectory,
    fit_decay,
    limit_pairing,
    residual_trajectory,
    verify_final_positivity,
)
from .moyal import classical_limit_check, moyal_bracket, star_product
from .phase_space import Axis, Grid, PhaseFunction, integrate, interior_max_abs
from .spectral import (
    MomentumMap,
    SpectralGrid,
    _plane_wave_matrix,
    _synthesized_kernel,
    _synthesized_wavefunction,
    make_observable,
    regular_basis_observable,
    singular_basis_observable,
    symb_singular,
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
    curves: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)


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
        "kernel": {"family": "lorentzian", "gamma": 0.1, "center": 2.0, "width": 0.35},
        "observable_profile": {"center": 2.0, "width": 0.5},
        "times": {"start_factor": 0.8, "stop_factor": 8.0, "count": 80, "spacing": "log"},
    },
    "decoherence-polefree": {
        "hbar": 1.0,
        "spectral_grid": {"omega_max": 10.0, "omega_count": 1001},
        "kernel": {"family": "polefree", "decay": 1.2, "cutoff": 7.5},
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


_KERNEL_FAMILY_DEFAULTS = {
    "lorentzian": {"gamma": 0.1, "center": 2.0, "width": 0.35},
    "gaussian": {"nu_width": 0.25, "center": 2.0, "width": 0.5},
    "polefree": {"decay": 1.2, "cutoff": 7.5},
    "custom-polynomial": {"coefficients": [1.0], "decay": 1.2},
}


def _kernel_option(value) -> dict:
    """A ``kernel`` block over its named family's defaults, not the scenario's kernel."""
    if not isinstance(value, dict):
        raise ValueError("option 'kernel' must be a mapping")
    params = dict(value)
    family = params.pop("family", None)
    if not isinstance(family, str) or family not in _KERNEL_FAMILY_DEFAULTS:
        raise ValueError(
            f"unknown kernel family {family!r} in option 'kernel.family'; choose from "
            f"{', '.join(sorted(_KERNEL_FAMILY_DEFAULTS))}"
        )
    return {"family": family, **_merge(_KERNEL_FAMILY_DEFAULTS[family], params, "kernel.")}


def _coherence_from_options(kernel: dict):
    """Diagonal callable and regular kernel term of a typed ``kernel`` block.

    Returns (diagonal_fn, regular_kernel), the kernel a ``kernels``
    factory result. The diagonal is the squared profile, so every family
    yields an admissible state.
    """
    family = kernel["family"]
    if family == "lorentzian":
        profile = kernels.gaussian_profile(kernel["center"], kernel["width"])
        regular = kernels.lorentzian_kernel(kernel["gamma"], profile)
    elif family == "gaussian":
        profile = kernels.gaussian_profile(kernel["center"], kernel["width"])
        regular = kernels.gaussian_coherence_kernel(kernel["nu_width"], profile)
    elif family == "polefree":
        profile = kernels.spectral_edge_profile(decay=kernel["decay"], cutoff=kernel["cutoff"])
        regular = kernels.separable_kernel(profile)
    else:  # custom-polynomial
        profile = kernels.polynomial_profile(kernel["coefficients"], decay=kernel["decay"])
        regular = kernels.separable_kernel(profile)

    def diagonal(w):
        return np.abs(profile(w)) ** 2

    if family != "custom-polynomial":
        return diagonal, regular

    def bounded_diagonal(w):
        # an FFT pairing of two regular terms sums up to 4n products of two sums
        # of this diagonal; of the four profiles only a polynomial is unbounded
        with np.errstate(over="ignore", invalid="ignore"):
            out = diagonal(w)
            mass = float(np.sum(out))
        if not math.isfinite(4.0 * out.size * mass * mass):
            raise ValueError(
                f"option 'kernel.coefficients': the squared profile sums to {mass:.3g} on "
                f"the {out.size}-node omega grid, too large for a pairing to stay finite"
            )
        return out

    return bounded_diagonal, regular


def _axis_option(opts: dict, name: str) -> Axis:
    """``Axis`` of the (lo, hi, count) option ``name``; a refused triple names the option."""
    try:
        return Axis(**opts[name])
    except ValueError as exc:
        raise ValueError(f"option {name!r}: {exc}") from None


def _assertion(name: str, passed: bool, **details) -> tuple[str, dict]:
    entry = {"passed": bool(passed)}
    entry.update(details)
    return name, entry


def _finish(report: dict, assertions: list[tuple[str, dict]]) -> dict:
    report["assertions"] = dict(assertions)
    report["passed"] = all(entry["passed"] for _, entry in assertions)
    return report


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


def _run_moyal_convergence(opts: dict, rng) -> ScenarioResult:
    hbars = sorted(opts["hbar"], reverse=True)
    grid = Grid.square(*_axis_option(opts, "grid"))
    f = PhaseFunction.sample(grid, lambda q, p: q**3, "q^3")
    h = PhaseFunction.sample(grid, lambda q, p: p**3, "p^3")
    rep = classical_limit_check(f, h, hbars, order=opts["truncation_order"])

    hq = opts["quadratic_hbar"]
    ham = PhaseFunction.sample(grid, lambda q, p: 0.5 * (q**2 + p**2), "H")
    coord_q = PhaseFunction.sample(grid, lambda q, p: q + 0 * p, "q")
    mom_p = PhaseFunction.sample(grid, lambda q, p: p + 0 * q, "p")
    bracket_err = interior_max_abs(moyal_bracket(ham, coord_q, hq) + mom_p)
    star_err = interior_max_abs(
        star_product(ham, ham, hq) - ham * ham + PhaseFunction.sample(grid, lambda q, p: hq**2 / 4 + 0 * q)
    )

    assertions = [
        _assertion(
            "product_slope_first_order",
            rep.product_slope is not None and abs(rep.product_slope - 1.0) <= 0.15,
            value=rep.product_slope,
            target=1.0,
            tolerance=0.15,
        ),
        _assertion(
            "bracket_slope_second_order",
            rep.bracket_slope is not None and abs(rep.bracket_slope - 2.0) <= 0.2,
            value=rep.bracket_slope,
            target=2.0,
            tolerance=0.2,
        ),
        _assertion("quadratic_bracket_exact", bracket_err < 1e-8, value=bracket_err, bound=1e-8),
        _assertion("quadratic_star_exact", star_err < 1e-8, value=star_err, bound=1e-8),
    ]
    report = _finish(
        {
            "scenario": "moyal-convergence",
            "hbar": hbars,
            "product_slope": rep.product_slope,
            "bracket_slope": rep.bracket_slope,
            "product_errors": list(rep.product_errors),
            "bracket_errors": list(rep.bracket_errors),
            "quadratic_bracket_error": bracket_err,
            "quadratic_star_error": star_err,
        },
        assertions,
    )
    curve = (
        ["hbar", "product_error", "bracket_error"],
        [[hb, pe, be] for hb, pe, be in zip(hbars, rep.product_errors, rep.bracket_errors)],
    )
    return ScenarioResult(report, {"convergence": curve})


def _run_wigner_negativity(opts: dict, rng) -> ScenarioResult:
    hbar = opts["hbar"]
    axis = _axis_option(opts, "axis")
    grid = Grid.rectangle(axis, axis)

    ground = wigner_of_pure_state(gaussian_state(axis, sigma=np.sqrt(hbar)), hbar, grid)
    excited = wigner_of_pure_state(oscillator_state(axis, 1, hbar), hbar, grid)
    min_ground = float(ground.values.real.min())
    min_excited = float(excited.values.real.min())
    mass_ground = float(integrate(ground).real)
    mass_excited = float(integrate(excited).real)
    marginal = q_marginal(excited)
    min_marginal = float(marginal.min())
    # dip of the first excited quasi-density at the origin is -1/(pi*hbar)
    target = -1.0 / (np.pi * hbar)

    assertions = [
        _assertion(
            "excited_minimum_depth",
            abs(min_excited - target) <= 0.02 * abs(target),
            value=min_excited,
            target=target,
            tolerance=0.02,
        ),
        _assertion("excited_is_negative", min_excited < 0, value=min_excited),
        _assertion("ground_nonnegative", min_ground >= -1e-6, value=min_ground, bound=-1e-6),
        _assertion(
            "ground_unit_mass", abs(mass_ground - 1.0) <= 1e-5, value=mass_ground, tolerance=1e-5
        ),
        _assertion(
            "excited_unit_mass", abs(mass_excited - 1.0) <= 1e-5, value=mass_excited, tolerance=1e-5
        ),
        _assertion(
            "marginal_nonnegative", min_marginal >= -1e-6, value=min_marginal, bound=-1e-6
        ),
    ]
    report = _finish(
        {
            "scenario": "wigner-negativity",
            "hbar": hbar,
            "min_ground": min_ground,
            "min_excited": min_excited,
            "target_minimum": target,
            "mass_ground": mass_ground,
            "mass_excited": mass_excited,
            "min_marginal": min_marginal,
        },
        assertions,
    )
    q = grid.coordinate(0)
    mid = grid.shape[1] // 2
    curve = (
        ["q", "W_ground_p0", "W_excited_p0"],
        [
            [float(q[i]), float(ground.values[i, mid].real), float(excited.values[i, mid].real)]
            for i in range(len(q))
        ],
    )
    return ScenarioResult(report, {"wigner_slice": curve})


def _run_pairing_equivalence(opts: dict, rng) -> ScenarioResult:
    hbar = opts["hbar"]
    q_axis = _axis_option(opts, "q_axis")
    p_axis = _axis_option(opts, "p_axis")
    for i, length in enumerate(opts["box_lengths"]):
        if length <= 0:
            raise ValueError(f"option 'box_lengths[{i}]' must be positive, got {length}")
    sgrid = SpectralGrid(**opts["spectral_grid"])
    coeff_profile = kernels.gaussian_profile(**opts["state_profile"])
    obs_profile = kernels.gaussian_profile(**opts["observable_profile"])

    coeffs = coeff_profile(sgrid.omega).astype(complex)
    coeffs = coeffs / np.sqrt(np.sum(np.abs(coeffs) ** 2) * sgrid.d_omega)
    rho = pure_state(sgrid, coeffs)
    obs = make_observable(sgrid, None, kernels.separable_kernel(obs_profile))

    v_spectral = pair(rho, obs)
    # one plane-wave matrix serves psi and the observable's factors; both
    # kernels stay rank one, so no q x q array is formed
    table = _plane_wave_matrix(sgrid, q_axis, hbar)
    psi = _synthesized_wavefunction(sgrid, coeffs, q_axis, table)
    k_rho = OperatorKernel(q_axis, u=psi.normalize().values[None])
    k_obs = _synthesized_kernel(sgrid, obs.regular, q_axis, table)
    del table
    v_trace = trace_pair(k_rho, k_obs)

    pgrid = Grid.rectangle(q_axis, p_axis)
    w_rho = wigner_of_pure_state(psi, hbar, pgrid)
    a_obs = wigner_of_kernel(k_obs, hbar, pgrid)
    v_phase = pair_regular_symbols(w_rho, a_obs)

    values = np.array([v_spectral, v_trace, v_phase])
    spread = float(np.max(np.abs(values - values.mean())) / abs(values.mean()))

    # duality block: discrete basis pairings across random node pairs
    idx = rng.integers(0, sgrid.omega_count, size=4)
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

    # singular-integration block: momentum-space pairing vs growing boxes.
    # With H = p the full integral over [-L, L] x [p_lo, p_hi] is 2L times
    # the momentum-space pairing, so the full value per unit q must match it
    rho_diag = make_state(sgrid, coeff_profile)
    obs_diag = make_observable(sgrid, obs_profile)
    restricted = pair_singular_symbols(to_classical_density(rho_diag), obs_diag).real
    volumes, full_values, densities = [], [], []
    p_lo, p_hi = 0.0, sgrid.omega_max
    for length in opts["box_lengths"]:
        box = Grid.rectangle((-length, length, 97), (p_lo, p_hi, opts["box_momentum_count"]))
        tmap = MomentumMap.translation(box)
        product = singular_symbol(rho_diag, tmap, box) * symb_singular(obs_diag, tmap, box)
        volumes.append(2.0 * length * (p_hi - p_lo))
        full_values.append(float(integrate(product).real))
        densities.append(full_values[-1] / (2.0 * length))
    growth_slope = float(np.polyfit(np.log(volumes), np.log(full_values), 1)[0])
    density_error = float(np.max(np.abs(np.array(densities) - restricted)) / abs(restricted))

    assertions = [
        _assertion(
            "three_way_agreement", spread <= 1e-4, value=spread, bound=1e-4
        ),
        _assertion(
            "duality_singular_delta",
            abs(dual_same - dual_expected) <= 1e-9 * dual_expected and dual_diff == 0.0,
            value=dual_same,
            expected=dual_expected,
            off_node=dual_diff,
        ),
        _assertion(
            "duality_regular_delta",
            abs(dual_reg - dual_reg_expected) <= 1e-9 * dual_reg_expected,
            value=dual_reg,
            expected=dual_reg_expected,
        ),
        _assertion(
            "duality_cross_zero", cross_a == 0.0 and cross_b == 0.0, sing_reg=cross_a, reg_sing=cross_b
        ),
        _assertion(
            "box_growth_linear",
            abs(growth_slope - 1.0) <= 0.1,
            value=growth_slope,
            target=1.0,
            tolerance=0.1,
        ),
        _assertion(
            "restricted_pairing_is_conjugate_density",
            density_error <= 1e-3,
            value=density_error,
            bound=1e-3,
        ),
    ]
    report = _finish(
        {
            "scenario": "pairing-equivalence",
            "hbar": hbar,
            "value_spectral": v_spectral.real,
            "value_trace": v_trace.real,
            "value_phase_space": v_phase.real,
            "relative_spread": spread,
            "duality_singular": dual_same,
            "duality_regular": dual_reg,
            "box_growth_slope": growth_slope,
            "restricted_pairing": restricted,
            "restricted_density_error": density_error,
        },
        assertions,
    )
    curve = (
        ["box_volume", "full_phase_space_integral", "conjugate_density"],
        [[v, f, d] for v, f, d in zip(volumes, full_values, densities)],
    )
    return ScenarioResult(report, {"box_growth": curve})


def _run_decoherence_lorentzian(opts: dict, rng) -> ScenarioResult:
    hbars = opts["hbar"]
    kernel = opts["kernel"]
    if kernel["family"] != "lorentzian":
        raise ValueError(
            "the inverse-pole-distance assertions need a 'lorentzian' kernel; "
            f"got family {kernel['family']!r} (use decoherence-polefree for the others)"
        )
    diagonal, regular = _coherence_from_options(kernel)
    gamma = kernel["gamma"]
    sgrid = SpectralGrid(**opts["spectral_grid"])
    prof_obs = kernels.gaussian_profile(**opts["observable_profile"])
    rho = make_state(sgrid, diagonal, regular)
    obs = make_observable(sgrid, lambda w: 1.0 + 0.0 * w, kernels.separable_kernel(prof_obs))
    limit = limit_pairing(rho, obs)

    assertions = []
    per_hbar = []
    curves = {}
    for hbar in hbars:
        t_dec_expected = hbar / gamma
        times = _time_grid(opts["times"], t_scale=t_dec_expected)
        # the residual on a uniform omega grid recurs with period
        # 2 pi hbar / d_omega, so the tail probe must sit before half of it
        t_tail = 40.0 * t_dec_expected
        half_recurrence = sgrid.recurrence_time(hbar) / 2.0
        # one trajectory covers the curve and both probes; the sorted set
        # keeps its time grid increasing whatever the configured curve
        # range (np.unique would import numpy.ma on its first call)
        wanted = np.concatenate([times, [10.0 * t_dec_expected, t_tail]])
        grid_times = np.array(sorted(set(wanted.tolist())))
        values = residual_trajectory(rho, obs, grid_times, hbar).values
        values = values[np.searchsorted(grid_times, wanted)]
        traj = Trajectory(times, values[: len(times)], limit)
        late, very_late = np.abs(values[len(times) :])
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
                "relative_residual_at_10_tdec": late / abs(limit),
                "relative_residual_at_40_tdec": very_late / abs(limit),
                "tail_probe_time": t_tail,
                "half_recurrence_time": half_recurrence,
            }
        )
        assertions.extend(
            [
                _assertion(
                    f"{tag}_exponential_selected", fit.model == "exponential", model=fit.model
                ),
                _assertion(
                    f"{tag}_fit_quality", fit.fit_quality > 0.99, value=fit.fit_quality, bound=0.99
                ),
                _assertion(
                    f"{tag}_inverse_pole_distance",
                    abs(fit.rate - rate_expected) <= 0.05 * rate_expected,
                    value=fit.rate,
                    target=rate_expected,
                    tolerance=0.05,
                ),
                _assertion(
                    f"{tag}_weak_limit_reached",
                    late <= 1e-3 * abs(limit),
                    value=late / abs(limit),
                    bound=1e-3,
                ),
                _assertion(
                    f"{tag}_weak_limit_tail",
                    very_late <= 1e-6 * abs(limit) and t_tail < half_recurrence,
                    value=very_late / abs(limit),
                    bound=1e-6,
                    t=t_tail,
                    t_max=half_recurrence,
                ),
            ]
        )
        curves[f"residual_{tag}"] = (
            ["t", "abs_residual"],
            [[float(t), float(abs(v))] for t, v in zip(traj.times, traj.values)],
        )
    report = _finish(
        {
            "scenario": "decoherence-lorentzian",
            "kernel": kernel,
            "gamma": gamma,
            "limit_value": limit,
            "results": per_hbar,
        },
        assertions,
    )
    return ScenarioResult(report, curves)


def _run_decoherence_polefree(opts: dict, rng) -> ScenarioResult:
    hbar = opts["hbar"]
    sgrid = SpectralGrid(**opts["spectral_grid"])
    kernel = opts["kernel"]
    if kernel["family"] == "lorentzian":
        raise ValueError(
            "this scenario checks the absence of exponential decay; "
            "run the lorentzian family through decoherence-lorentzian"
        )
    diagonal, regular = _coherence_from_options(kernel)
    rho = make_state(sgrid, diagonal, regular)
    obs = make_observable(sgrid, lambda w: 1.0 + 0.0 * w, regular)
    times = _time_grid(opts["times"])
    # past half the recurrence time 2 pi hbar / d_omega the residual is aliased
    half_recurrence = sgrid.recurrence_time(hbar) / 2.0
    traj = residual_trajectory(rho, obs, times, hbar)
    fit = fit_decay(traj)

    # the exponential fit must lose outright for a pole-free kernel
    r2_exp = fit.r2_exponential
    assertions = [
        _assertion(
            "non_exponential_model",
            fit.model in ("power_law", "none"),
            model=fit.model,
        ),
        _assertion("exponential_fit_poor", r2_exp < 0.9, value=r2_exp, bound=0.9),
        _assertion("infinite_decoherence_time", np.isinf(fit.t_dec), value=fit.t_dec),
        _assertion(
            "within_recurrence_window",
            times[-1] < half_recurrence,
            t=float(times[-1]),
            t_max=half_recurrence,
        ),
    ]
    report = _finish(
        {
            "scenario": "decoherence-polefree",
            "hbar": hbar,
            "kernel": kernel,
            "model": fit.model,
            "power_law_exponent": fit.rate,
            "r_squared_selected": fit.fit_quality,
            "r_squared_exponential": r2_exp,
            "t_dec": fit.t_dec,
            "half_recurrence_time": half_recurrence,
        },
        assertions,
    )
    curve = (
        ["t", "abs_residual"],
        [[float(t), float(abs(v))] for t, v in zip(traj.times, traj.values)],
    )
    return ScenarioResult(report, {"residual": curve})


def _run_limit_positivity(opts: dict, rng) -> ScenarioResult:
    hbar = opts["hbar"]
    sgrid = SpectralGrid(**opts["spectral_grid"])
    n_states = opts["n_states"]
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    axis = _axis_option(opts, "wigner_axis")

    minima = []
    all_passed = True
    for _ in range(n_states):
        state = random_admissible_state(sgrid, rng)
        result = verify_final_positivity(state)
        minima.append(result.min_value)
        all_passed = all_passed and result.passed

    grid = Grid.rectangle(axis, axis)
    excited = wigner_of_pure_state(oscillator_state(axis, 1, hbar), hbar, grid)
    wigner_min = float(excited.values.real.min())

    assertions = [
        _assertion(
            "all_final_densities_nonnegative",
            all_passed,
            n_states=n_states,
            worst_minimum=float(min(minima)),
        ),
        _assertion(
            "pre_limit_symbol_negative",
            wigner_min < 0,
            value=wigner_min,
        ),
    ]
    report = _finish(
        {
            "scenario": "limit-positivity",
            "hbar": hbar,
            "n_states": n_states,
            "worst_minimum": float(min(minima)),
            "wigner_contrast_minimum": wigner_min,
        },
        assertions,
    )
    curve = (["state_index", "min_value"], [[i, float(m)] for i, m in enumerate(minima)])
    return ScenarioResult(report, {"final_density_minima": curve})


_RUNNERS = {
    "moyal-convergence": _run_moyal_convergence,
    "wigner-negativity": _run_wigner_negativity,
    "pairing-equivalence": _run_pairing_equivalence,
    "decoherence-lorentzian": _run_decoherence_lorentzian,
    "decoherence-polefree": _run_decoherence_polefree,
    "limit-positivity": _run_limit_positivity,
}


def run_named_scenario(name: str, overrides: dict, seed: int) -> ScenarioResult:
    """Run one scenario with defaults merged under the given overrides."""
    if name not in _RUNNERS:
        raise ValueError(f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}")
    opts = _merge(_DEFAULTS[name], overrides)
    rng = np.random.default_rng(seed)
    result = _RUNNERS[name](opts, rng)
    result.report["seed"] = seed
    return result
