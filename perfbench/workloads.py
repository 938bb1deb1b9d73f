"""Workload inputs, the ops that feed them to phasedec, and each op's check.

A workload is a fixed cycle of ops. The seed picks every input value
(per-op RNG seeds, hbar, grid lengths, polynomial coefficients, sample
times) but never a size, so every seed does the same amount of work.
Generated inputs are validated against the numerical-validity limits of
the code under test before anything runs.

Ops reach phasedec through module attributes (``cli.run_scenario``,
``moyal.star_product``, ...) looked up at call time, so a traced run sees
the wrapped functions. Checks use the names bound below at import, before
any wrapping, so a check's own calls never show up as program spans.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np

from phasedec import cli, decoherence, kernels, moyal, spectral, states
from phasedec.decoherence import evolve_pairing as reference_evolve_pairing
from phasedec.decoherence import limit_pairing as reference_limit_pairing
from phasedec.phase_space import Grid, PhaseFunction
from phasedec.scenarios import scenario_defaults
from phasedec.spectral import SpectralGrid

import reference

WORKLOADS = ("wigner", "algebra", "decoherence", "trajectory")

#: phase step max|p|*dy/hbar must stay below this share of the pi/4 guard
WIGNER_MARGIN = 0.8
#: ground-state tail exp(-L^2/hbar) at the Wigner box edge L must be below this
WIGNER_BOX_TAIL = 1e-10
#: a coherence width must span at least this many omega cells
MIN_GAMMA_CELLS = 10.0
#: relative tolerance of the polynomial ops against their closed forms
ALGEBRA_RTOL = 1e-9
#: relative tolerance of trajectory samples against evolve - limit
TRAJECTORY_RTOL = 1e-9
#: fitted Lorentzian rate must be within this share of gamma/hbar
RATE_RTOL = 0.05

# hbar and length choices; every combination passes the validity checks
WIGNER_HBARS = (0.8, 1.0, 1.25)
WIGNER_HALF_LENGTHS = (5.5, 6.0, 6.5)
STAR_HBARS = (0.25, 0.5, 1.0)
TRAJECTORY_HBARS = (0.5, 1.0, 2.0)
TRAJECTORY_GAMMAS = (0.1, 0.125, 0.15)

_FULL = {
    "wigner_counts": (193, 385),
    "limit_positivity": {},
    "moyal_convergence": {},
    "star_count": 21,
    "lorentzian_count": 1601,
    "polefree_count": 2801,
    "trajectory_count": 801,
    "trajectory_times": 6000,
}
_TINY = {
    "wigner_counts": (193, 257),
    "limit_positivity": {
        "spectral_grid": {"omega_count": 65},
        "n_states": 4,
        "wigner_axis": {"lo": -4.0, "hi": 4.0, "count": 65},
    },
    "moyal_convergence": {"grid": {"count": 81}},
    "star_count": 11,
    "lorentzian_count": 801,
    "polefree_count": 1001,
    "trajectory_count": 401,
    "trajectory_times": 1000,
}


def check_wigner_grid(p_max: float, dy: float, hbar: float):
    step = p_max * dy / hbar
    if step >= WIGNER_MARGIN * math.pi / 4.0:
        raise ValueError(f"Wigner phase step {step:.3f} is not below {WIGNER_MARGIN} * pi/4")


def check_wigner_box(half_length: float, hbar: float):
    if math.exp(-(half_length**2) / hbar) > WIGNER_BOX_TAIL:
        raise ValueError(f"Wigner box [-{half_length}, {half_length}] truncates the state at hbar={hbar}")


def check_time_window(t_max: float, hbar: float, d_omega: float):
    half_recurrence = math.pi * hbar / d_omega
    if t_max >= half_recurrence:
        raise ValueError(f"time {t_max:.4g} reaches T_rec/2 = {half_recurrence:.4g}")


def check_coherence_width(gamma: float, d_omega: float):
    if gamma < MIN_GAMMA_CELLS * d_omega:
        raise ValueError(f"gamma {gamma:.4g} is below {MIN_GAMMA_CELLS} * d_omega")


def _merged(defaults: dict, overrides: dict) -> dict:
    out = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict) and key != "kernel":
            out[key] = _merged(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _axis_step(axis: dict) -> float:
    return (float(axis["hi"]) - float(axis["lo"])) / (int(axis["count"]) - 1)


def _validate_scenario(scenario: str, options: dict):
    opts = _merged(scenario_defaults(scenario), options)
    hbars = opts["hbar"] if isinstance(opts["hbar"], list) else [opts["hbar"]]
    if scenario == "wigner-negativity":
        axis = opts["axis"]
        p_max = max(abs(float(axis["lo"])), abs(float(axis["hi"])))
        check_wigner_grid(p_max, _axis_step(axis), hbars[0])
        check_wigner_box(p_max, hbars[0])
    elif scenario == "limit-positivity":
        axis = opts["wigner_axis"]
        p_max = max(abs(float(axis["lo"])), abs(float(axis["hi"])))
        check_wigner_grid(p_max, _axis_step(axis), hbars[0])
    elif scenario == "pairing-equivalence":
        p_axis = opts["p_axis"]
        p_max = max(abs(float(p_axis["lo"])), abs(float(p_axis["hi"])))
        check_wigner_grid(p_max, _axis_step(opts["q_axis"]), hbars[0])
    elif scenario in ("decoherence-lorentzian", "decoherence-polefree"):
        grid = opts["spectral_grid"]
        d_omega = float(grid["omega_max"]) / (int(grid["omega_count"]) - 1)
        times = opts["times"]
        for hbar in hbars:
            if "stop_factor" in times:
                gamma = float(opts["kernel"]["gamma"])
                check_coherence_width(gamma, d_omega)
                t_max = float(times["stop_factor"]) * hbar / gamma
            else:
                t_max = float(times["stop"])
            check_time_window(t_max, hbar, d_omega)


class ScenarioOp:
    """One CLI scenario run; passes on exit 0, ``passed: true`` and repeatable bytes."""

    def __init__(self, kind, scenario, options, seed, out_dir: Path, wrong_reference=False):
        _validate_scenario(scenario, options)
        self.kind = kind
        self.config = cli.ScenarioConfig(scenario, seed, out_dir, options)
        # report.json of the first run of this exact config, kept across the
        # run's worker processes; every later run must reproduce its bytes
        self.baseline_path = out_dir.with_name(f"{out_dir.name}.report.json")
        self.wrong_baseline = b"deliberately wrong reference" if wrong_reference else None

    def run(self):
        return cli.run_scenario(self.config)

    def check(self, exit_code) -> tuple[bool, str]:
        if exit_code != 0:
            return False, f"run_scenario returned {exit_code}"
        data = (self.config.output_dir / "report.json").read_bytes()
        if json.loads(data).get("passed") is not True:
            return False, "report.json does not have passed: true"
        baseline = self.wrong_baseline
        if baseline is None and self.baseline_path.is_file():
            baseline = self.baseline_path.read_bytes()
        if baseline is None:
            self.baseline_path.write_bytes(data)
        elif data != baseline:
            return False, "report.json differs from the first run of the same config"
        return True, ""


class PolynomialOp:
    """star_product or moyal_bracket of sampled polynomials against a closed form."""

    def __init__(self, kind, rng, count, order, bracket, wrong_reference=False):
        self.kind = kind
        self.order = order
        self.bracket = bracket
        self.hbar = float(rng.choice(STAR_HBARS))
        half = float(rng.uniform(1.5, 2.5))
        self.grid = Grid.square(-half, half, count, n_dof=2)
        # the series terminates within the truncation order, and degree <= 4
        # per axis is differentiated exactly by phasedec's 4th-order stencils
        f_degree, g_degree = (2, 4) if bracket else (order, order)
        self.f_coeffs = reference.random_polynomial(rng, 4, f_degree)
        self.g_coeffs = reference.random_polynomial(rng, 4, g_degree)
        coords = [self.grid.coordinate(a) for a in range(4)]
        self.f = PhaseFunction(self.grid, reference.evaluate(self.f_coeffs, coords), "f")
        self.g = PhaseFunction(self.grid, reference.evaluate(self.g_coeffs, coords), "g")
        self.wrong_reference = wrong_reference
        self._expected = None

    def run(self):
        if self.bracket:
            return moyal.moyal_bracket(self.f, self.g, self.hbar, self.order)
        return moyal.star_product(self.f, self.g, self.hbar, self.order)

    def expected(self) -> np.ndarray:
        if self._expected is None:
            if self.bracket:
                # the Moyal bracket of a quadratic with anything is the Poisson bracket
                coeffs = reference.poisson_bracket(self.f_coeffs, self.g_coeffs)
            else:
                coeffs = reference.star_product(self.f_coeffs, self.g_coeffs, self.hbar, self.order)
            coords = [self.grid.coordinate(a) for a in range(4)]
            self._expected = reference.evaluate(coeffs, coords)
            if self.wrong_reference:
                self._expected = self._expected * (1.0 + 1e-6)
        return self._expected

    def check(self, out) -> tuple[bool, str]:
        expected = self.expected()
        scale = max(float(np.max(np.abs(expected))), 1.0)
        error = float(np.max(np.abs(out.values - expected)))
        if not error <= ALGEBRA_RTOL * scale:
            return False, f"max error {error:.3g} exceeds {ALGEBRA_RTOL} * {scale:.3g}"
        return True, ""


class TrajectoryOp:
    """Build one Lorentzian pair, query a dense residual trajectory, fit its decay."""

    def __init__(self, kind, rng, omega_count, n_times, wrong_reference=False):
        self.kind = kind
        self.hbar = float(rng.choice(TRAJECTORY_HBARS))
        self.gamma = float(rng.choice(TRAJECTORY_GAMMAS))
        self.omega_count = omega_count
        d_omega = 4.0 / (omega_count - 1)
        t_dec = self.hbar / self.gamma
        self.times = np.linspace(0.8 * t_dec, 8.0 * t_dec, n_times)
        check_coherence_width(self.gamma, d_omega)
        check_time_window(float(self.times[-1]), self.hbar, d_omega)
        self.samples = np.sort(rng.choice(n_times, size=3, replace=False))
        self.expected_rate = self.gamma / self.hbar * (1.25 if wrong_reference else 1.0)
        self.sample_shift = 1e-6 if wrong_reference else 0.0

    def run(self):
        grid = SpectralGrid(4.0, self.omega_count)
        profile = kernels.gaussian_profile(2.0, 0.35)
        rho = states.make_state(
            grid, lambda w: np.abs(profile(w)) ** 2, kernels.lorentzian_kernel(self.gamma, profile)
        )
        obs = spectral.make_observable(
            grid, lambda w: 1.0 + 0.0 * w, kernels.separable_kernel(kernels.gaussian_profile(2.0, 0.5))
        )
        traj = decoherence.residual_trajectory(rho, obs, self.times, self.hbar)
        return rho, obs, traj, decoherence.fit_decay(traj)

    def check(self, out) -> tuple[bool, str]:
        rho, obs, traj, fit = out
        if fit.model != "exponential":
            return False, f"fit_decay selected {fit.model!r}"
        if not abs(fit.rate - self.expected_rate) <= RATE_RTOL * self.expected_rate:
            return False, f"rate {fit.rate:.6g} is not within 5% of {self.expected_rate:.6g}"
        limit = reference_limit_pairing(rho, obs)
        for index in self.samples:
            direct = reference_evolve_pairing(rho, obs, float(self.times[index]), self.hbar) - limit
            direct *= 1.0 + self.sample_shift
            if not abs(traj.values[index] - direct) <= TRAJECTORY_RTOL * abs(direct):
                return False, f"sample {index} differs from evolve_pairing - limit_pairing"
        return True, ""


def build(workload: str, seed: int, size: str, out_dir: Path, wrong_reference=False) -> list:
    """The workload's cycle of ops, generated from ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    sizes = _FULL if size == "full" else _TINY
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])

    def op_seed():
        return int(rng.integers(0, 2**31 - 1))

    def scenario(kind, name, options):
        return ScenarioOp(kind, name, options, op_seed(), out_dir / kind, wrong_reference)

    if workload == "wigner":
        ops = []
        for count in sizes["wigner_counts"]:
            half = float(rng.choice(WIGNER_HALF_LENGTHS))
            options = {
                "hbar": float(rng.choice(WIGNER_HBARS)),
                "axis": {"lo": -half, "hi": half, "count": count},
            }
            ops.append(scenario(f"wigner-negativity-{count}", "wigner-negativity", options))
        ops.append(scenario("pairing-equivalence", "pairing-equivalence", {}))
        ops.append(scenario("limit-positivity", "limit-positivity", sizes["limit_positivity"]))
        return ops
    if workload == "algebra":
        count = sizes["star_count"]
        return [
            scenario("moyal-convergence", "moyal-convergence", sizes["moyal_convergence"]),
            PolynomialOp("star-order-2", rng, count, 2, False, wrong_reference),
            PolynomialOp("star-order-4", rng, count, 4, False, wrong_reference),
            PolynomialOp("bracket-order-4", rng, count, 4, True, wrong_reference),
        ]
    if workload == "decoherence":
        lorentzian = {"spectral_grid": {"omega_count": sizes["lorentzian_count"]}}
        polefree = {"spectral_grid": {"omega_count": sizes["polefree_count"]}}
        return [
            scenario("decoherence-lorentzian", "decoherence-lorentzian", lorentzian),
            scenario("decoherence-polefree", "decoherence-polefree", polefree),
        ]
    return [
        TrajectoryOp(
            f"trajectory-{i}", rng, sizes["trajectory_count"], sizes["trajectory_times"], wrong_reference
        )
        for i in range(3)
    ]
