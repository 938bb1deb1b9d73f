"""Scenario assertions can fail: configs that break a check, and the exact set each one fails.

Each row runs one scenario in process with one override (seed 0), or
with one library function mutated for the exact identities, which no
config can break. The defaults pass every assertion (``test_acceptance``),
so a row shows that the assertions it names can fail, and that no other
assertion fails with them. A coverage test ties every assertion kind of
the default reports to the row that fails it, or to the reason no row
does. The helpers that build the threshold checks are tested on their
own below.
"""

import json
import math
import re
from pathlib import Path

import pytest

from phasedec import scenarios
from phasedec.scenarios import _above, _below, _near, run_named_scenario
from phasedec.spectral import CoherenceTerms, Observable
from phasedec.states import State

GOLDEN = Path(__file__).parent / "golden"

LORENTZIAN_CHECKS = (
    "exponential_selected",
    "fit_quality",
    "inverse_pole_distance",
    "weak_limit_reached",
    "weak_limit_tail",
)


def _per_hbar(*checks):
    return {f"hbar_{hbar}_{check}" for hbar in ("0.5", "1") for check in checks}


FAILING = [
    pytest.param(
        "moyal-convergence",
        {"truncation_order": 0},
        {"product_slope_first_order", "bracket_slope_second_order"},
        id="moyal-order-0",
    ),
    pytest.param(
        "moyal-convergence",
        {"truncation_order": 2, "grid": {"count": 65}},
        {"bracket_slope_second_order"},
        id="moyal-order-2-coarse-grid",
    ),
    pytest.param(
        "decoherence-lorentzian",
        {"kernel": {"family": "lorentzian", "gamma": 1e-9}},
        _per_hbar(*LORENTZIAN_CHECKS),
        id="lorentzian-unresolved-gamma",
        # gamma far below d_omega puts every probe past half the recurrence time
        marks=pytest.mark.past_recurrence,
    ),
    pytest.param(
        "decoherence-lorentzian",
        {"kernel": {"family": "lorentzian", "width": 0.05}},
        _per_hbar("fit_quality", "inverse_pole_distance"),
        id="lorentzian-narrow-profile",
    ),
    pytest.param(
        "decoherence-lorentzian",
        {"kernel": {"family": "lorentzian", "gamma": 0.02}},
        _per_hbar("weak_limit_tail"),
        id="lorentzian-tail-probe-past-half-recurrence",
        # the 40 t_dec tail probe lands past T_rec / 2: its window fails, not its bound
        marks=pytest.mark.past_recurrence,
    ),
    pytest.param(
        "wigner-negativity",
        {"axis": {"lo": -2.0, "hi": 2.0}},
        {"ground_nonnegative", "ground_unit_mass", "excited_unit_mass", "marginal_nonnegative"},
        id="wigner-truncated-box",
    ),
    pytest.param(
        "decoherence-polefree",
        {"times": {"stop": 20.0}},
        {"exponential_fit_poor"},
        id="polefree-short-window",
    ),
    pytest.param(
        "pairing-equivalence",
        {"box_momentum_count": 9},
        {"restricted_pairing_is_conjugate_density"},
        id="pairing-coarse-box-momenta",
    ),
    pytest.param(
        "pairing-equivalence",
        {"q_axis": {"lo": -6.0, "hi": 6.0, "count": 97}},
        {"three_way_agreement"},
        id="pairing-truncated-q-axis",
    ),
    pytest.param(
        "decoherence-polefree",
        {"times": {"stop": 400.0}},
        {"within_recurrence_window"},
        id="polefree-past-recurrence",
        # T_rec / 2 = pi hbar / d_omega is 314 at the defaults
        marks=pytest.mark.past_recurrence,
    ),
    pytest.param(
        "wigner-negativity",
        {"axis": {"lo": 1.0}},
        {"excited_minimum_depth", "ground_nonnegative", "ground_unit_mass", "excited_unit_mass"},
        id="wigner-axis-off-the-origin",
    ),
]


def _off(obs: Observable) -> Observable:
    """``obs`` times 1 + 1e-6: a basis delta one part in a million off."""
    regular = CoherenceTerms(obs.grid, obs.regular.a * (1 + 1e-6), obs.regular.b, obs.regular.c)
    return Observable(obs.grid, obs.singular * (1 + 1e-6), regular)


def _leaky(rho: State) -> State:
    """``rho`` with a unit diagonal added: a regular functional that sees singular kernels."""
    return State(rho.grid, rho.diagonal + 1.0, rho.regular)


MUTATED = [
    pytest.param("pairing-equivalence", "singular_basis_observable", _off, {"duality_singular_delta"},
                 id="singular-basis-observable-off"),
    pytest.param("pairing-equivalence", "regular_basis_observable", _off, {"duality_regular_delta"},
                 id="regular-basis-observable-off"),
    pytest.param("pairing-equivalence", "regular_basis_functional", _leaky, {"duality_cross_zero"},
                 id="regular-basis-functional-leaks"),
    pytest.param("moyal-convergence", "moyal_bracket", lambda f: f + 1e-6, {"quadratic_bracket_exact"},
                 id="moyal-bracket-off"),
    pytest.param("moyal-convergence", "star_product", lambda f: f + 1e-6, {"quadratic_star_exact"},
                 id="star-product-off"),
]

#: the row that shows each assertion kind can fail; every row is the witness of some kind
WITNESS = {
    "product_slope_first_order": "moyal-order-0",
    "bracket_slope_second_order": "moyal-order-2-coarse-grid",
    "quadratic_bracket_exact": "moyal-bracket-off",
    "quadratic_star_exact": "star-product-off",
    "exponential_selected": "lorentzian-unresolved-gamma",
    "weak_limit_reached": "lorentzian-unresolved-gamma",
    "fit_quality": "lorentzian-narrow-profile",
    "inverse_pole_distance": "lorentzian-narrow-profile",
    "weak_limit_tail": "lorentzian-tail-probe-past-half-recurrence",
    "ground_nonnegative": "wigner-truncated-box",
    "ground_unit_mass": "wigner-truncated-box",
    "excited_unit_mass": "wigner-truncated-box",
    "marginal_nonnegative": "wigner-truncated-box",
    "excited_minimum_depth": "wigner-axis-off-the-origin",
    "exponential_fit_poor": "polefree-short-window",
    "within_recurrence_window": "polefree-past-recurrence",
    "restricted_pairing_is_conjugate_density": "pairing-coarse-box-momenta",
    "three_way_agreement": "pairing-truncated-q-axis",
    "duality_singular_delta": "singular-basis-observable-off",
    "duality_regular_delta": "regular-basis-observable-off",
    "duality_cross_zero": "regular-basis-functional-leaks",
}

#: assertion kinds that no row fails, and why
NO_ROW = {
    "excited_is_negative": "a non-Gaussian pure state has a negative Wigner value (Hudson's theorem); "
    "the first excited state stays negative on an axis off the origin, [1, 6]",
    "pre_limit_symbol_negative": "the same first-excited-state dip as excited_is_negative, on a "
    "129-node axis; hbar 100 and wigner_axis +-1 keep it negative",
    "box_growth_linear": "with H = p the box integral is exactly 2L times the momentum pairing, and "
    "the trapezoid rule is exact in q; box_lengths [0.05, 0.1] and [4.0, 4.1] pass, and a single "
    "or repeated length is refused before the fit",
    "non_exponential_model": "the scenario refuses the Lorentzian family, and no pole-free family "
    "tried (gaussian nu_width 0.25 and 1.0, a short time window) selects the exponential model",
    "infinite_decoherence_time": "t_dec is finite only when the exponential model is selected, "
    "which no pole-free config tried does (see non_exponential_model)",
    "all_final_densities_nonnegative": "make_state clips the diagonal to >= 0 and "
    "to_classical_density divides by a positive mass, so every decohered density is >= 0 by "
    "construction; ROADMAP item 5 replaces it with a computed check",
}


def _failed(report: dict) -> set[str]:
    return {name for name, entry in report["assertions"].items() if not entry["passed"]}


def _kind(name: str) -> str:
    """An assertion name without its ``hbar_<value>_`` prefix."""
    return re.sub(r"^hbar_[^_]+_", "", name)


@pytest.mark.parametrize("scenario, overrides, failing", FAILING)
def test_config_fails_exactly_the_named_assertions(scenario, overrides, failing):
    report = run_named_scenario(scenario, overrides, seed=0).report
    assert _failed(report) == failing
    assert report["passed"] is False


@pytest.mark.parametrize("scenario, function, mutate, failing", MUTATED)
def test_a_broken_identity_fails_exactly_its_assertion(monkeypatch, scenario, function, mutate, failing):
    original = getattr(scenarios, function)
    monkeypatch.setattr(scenarios, function, lambda *args, **kwargs: mutate(original(*args, **kwargs)))
    report = run_named_scenario(scenario, {}, seed=0).report
    assert _failed(report) == failing
    assert report["passed"] is False


def test_every_assertion_kind_has_a_failing_row_or_a_reason():
    kinds = set()
    for report in GOLDEN.glob("*/report.json"):
        kinds |= {_kind(name) for name in json.loads(report.read_text(encoding="utf-8"))["assertions"]}
    assert len(kinds) == 27
    assert not set(WITNESS) & set(NO_ROW) and kinds == set(WITNESS) | set(NO_ROW)
    rows = {row.id: row.values[-1] for row in FAILING + MUTATED}
    # a removed row leaves a kind without its witness; an added one must witness a kind
    assert set(rows) == set(WITNESS.values())
    for kind, row in WITNESS.items():
        assert kind in {_kind(name) for name in rows[row]}, f"row {row} does not fail {kind}"


def test_a_value_at_its_bound_fails():
    assert _below("b", 1e-3, 1e-3) == ("b", {"passed": False, "value": 1e-3, "bound": 1e-3}, None)
    assert _above("a", -1e-6, -1e-6) == ("a", {"passed": False, "value": -1e-6, "bound": -1e-6}, None)
    assert _below("b", 0.5e-3, 1e-3)[1]["passed"] and _above("a", 0.0, -1e-6)[1]["passed"]


def test_a_probe_time_outside_its_window_fails_a_bound():
    inside = _below("tail", 0.0, 1e-6, t=1.0, t_max=2.0)
    assert inside == ("tail", {"passed": True, "value": 0.0, "bound": 1e-6, "t": 1.0, "t_max": 2.0}, None)
    assert not _below("tail", 0.0, 1e-6, t=2.0, t_max=2.0)[1]["passed"]


def test_near_fails_a_missing_value():
    name, entry, key = _near("slope", None, 1.0, 0.15)
    assert entry == {"passed": False, "value": None, "target": 1.0, "tolerance": 0.15}


@pytest.mark.parametrize(
    "value, relative, passed",
    [
        (-4.25, False, True),  # |v - t| = 0.25 = tolerance: a tolerance is inclusive
        (-4.5, False, False),
        (-5.0, True, True),  # 0.25 * |t| = 1.0
        (-5.5, True, False),
        (-3.0, True, True),
        (-2.5, True, False),
    ],
)
def test_near_reads_its_tolerance_as_absolute_or_relative_to_the_target(value, relative, passed):
    name, entry, key = _near("depth", value, -4.0, 0.25, relative=relative)
    assert entry == {"passed": passed, "value": value, "target": -4.0, "tolerance": 0.25}


def test_a_non_finite_value_fails():
    assert not _near("x", math.nan, 1.0, 0.1)[1]["passed"]
    assert not _below("x", math.nan, 1.0)[1]["passed"]
    assert not _above("x", math.nan, 1.0)[1]["passed"]
