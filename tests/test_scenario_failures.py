"""Scenario assertions can fail: configs that break a check, and the exact set each one fails.

Each row runs one scenario in process with one override (seed 0). The
defaults pass every assertion (``test_acceptance``), so a row shows that
the assertions it names can fail, and that no other assertion fails with
them. The helpers that build the threshold checks are tested on their own
below.
"""

import math

import pytest

from phasedec.scenarios import _above, _below, _near, run_named_scenario

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
]


@pytest.mark.parametrize("scenario, overrides, failing", FAILING)
def test_config_fails_exactly_the_named_assertions(scenario, overrides, failing):
    report = run_named_scenario(scenario, overrides, seed=0).report
    assert {name for name, entry in report["assertions"].items() if not entry["passed"]} == failing
    assert report["passed"] is False


def test_a_value_at_its_bound_fails():
    assert _below("b", 1e-3, 1e-3) == ("b", {"passed": False, "value": 1e-3, "bound": 1e-3})
    assert _above("a", -1e-6, -1e-6) == ("a", {"passed": False, "value": -1e-6, "bound": -1e-6})
    assert _below("b", 0.5e-3, 1e-3)[1]["passed"] and _above("a", 0.0, -1e-6)[1]["passed"]


def test_a_probe_time_outside_its_window_fails_a_bound():
    inside = _below("tail", 0.0, 1e-6, t=1.0, t_max=2.0)
    assert inside == ("tail", {"passed": True, "value": 0.0, "bound": 1e-6, "t": 1.0, "t_max": 2.0})
    assert not _below("tail", 0.0, 1e-6, t=2.0, t_max=2.0)[1]["passed"]


def test_near_fails_a_missing_value():
    name, entry = _near("slope", None, 1.0, 0.15)
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
    name, entry = _near("depth", value, -4.0, 0.25, relative=relative)
    assert entry == {"passed": passed, "value": value, "target": -4.0, "tolerance": 0.25}


def test_a_non_finite_value_fails():
    assert not _near("x", math.nan, 1.0, 0.1)[1]["passed"]
    assert not _below("x", math.nan, 1.0)[1]["passed"]
    assert not _above("x", math.nan, 1.0)[1]["passed"]
