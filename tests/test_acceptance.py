"""Acceptance suite: every headline criterion at its stated tolerance.

Each criterion runs through exactly one scenario invocation (the same
code path as the CLI) and prints one pass/fail line. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they go.
"""

import logging

import pytest

from phasedec import kernels
from phasedec.decoherence import evolve_pairing, limit_pairing
from phasedec.scenarios import _coherence_from_options, run_named_scenario, scenario_defaults
from phasedec.spectral import SpectralGrid, make_observable
from phasedec.states import make_state


def announce(label: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def moyal_report():
    return run_named_scenario("moyal-convergence", {}, seed=0).report


@pytest.fixture(scope="module")
def wigner_report():
    return run_named_scenario("wigner-negativity", {}, seed=0).report


@pytest.fixture(scope="module")
def pairing_report():
    return run_named_scenario("pairing-equivalence", {}, seed=0).report


@pytest.fixture(scope="module")
def lorentzian_report():
    return run_named_scenario("decoherence-lorentzian", {}, seed=0).report


@pytest.fixture(scope="module")
def polefree_report():
    return run_named_scenario("decoherence-polefree", {}, seed=0).report


@pytest.fixture(scope="module")
def positivity_report():
    return run_named_scenario("limit-positivity", {}, seed=0).report


def test_criterion_1_classical_limit_slopes(moyal_report):
    # q^3 (x) p^3 on [-2,2]^2, 161^2, hbar in {0.4, 0.2, 0.1}
    ps = moyal_report["product_slope"]
    bs = moyal_report["bracket_slope"]
    announce(
        "criterion 1: product slope 1.0 +/- 0.15",
        abs(ps - 1.0) <= 0.15,
        f"slope = {ps:.4f}",
    )
    announce(
        "criterion 1: bracket slope 2.0 +/- 0.2",
        abs(bs - 2.0) <= 0.2,
        f"slope = {bs:.4f}",
    )


def test_criterion_2_quadratic_exactness(moyal_report):
    be = moyal_report["quadratic_bracket_error"]
    se = moyal_report["quadratic_star_error"]
    announce("criterion 2: bracket of quadratics exact to 1e-8", be < 1e-8, f"err = {be:.2e}")
    announce("criterion 2: squared Hamiltonian exact to 1e-8", se < 1e-8, f"err = {se:.2e}")


def test_criterion_3_wigner_negativity(wigner_report):
    m1 = wigner_report["min_excited"]
    target = wigner_report["target_minimum"]
    announce(
        "criterion 3: excited minimum -1/pi within 2%",
        abs(m1 - target) <= 0.02 * abs(target),
        f"min = {m1:.6f}, target = {target:.6f}",
    )
    m0 = wigner_report["min_ground"]
    announce("criterion 3: ground minimum >= -1e-6", m0 >= -1e-6, f"min = {m0:.2e}")
    mass = wigner_report["mass_ground"]
    announce(
        "criterion 3: ground unit mass within 1e-5",
        abs(mass - 1.0) <= 1e-5,
        f"mass = {mass:.8f}",
    )


def test_criterion_4_pairing_equivalence(pairing_report):
    spread = pairing_report["relative_spread"]
    announce(
        "criterion 4: three pairing routes agree within 1e-4 relative",
        spread <= 1e-4,
        f"spread = {spread:.2e}",
    )


def test_criterion_5_decoherence_law(lorentzian_report, polefree_report):
    gamma = lorentzian_report["gamma"]
    for entry in lorentzian_report["results"]:
        hbar = entry["hbar"]
        ok = (
            entry["model"] == "exponential"
            and entry["r_squared"] > 0.99
            and abs(entry["rate"] - gamma / hbar) <= 0.05 * gamma / hbar
        )
        announce(
            f"criterion 5: hbar={hbar} exponential with rate gamma/hbar +/- 5%, R^2 > 0.99",
            ok,
            f"model = {entry['model']}, rate = {entry['rate']:.5f}, R^2 = {entry['r_squared']:.5f}",
        )
    announce(
        "criterion 5: pole-free kernel is not exponential (exp R^2 < 0.9)",
        polefree_report["model"] in ("power_law", "none")
        and polefree_report["r_squared_exponential"] < 0.9,
        f"model = {polefree_report['model']}, exp R^2 = {polefree_report['r_squared_exponential']:.3f}",
    )


def test_criterion_6_weak_limit(lorentzian_report):
    for entry in lorentzian_report["results"]:
        rel = entry["relative_residual_at_10_tdec"]
        announce(
            f"criterion 6: hbar={entry['hbar']} residual below 1e-3 of limit at 10 t_dec",
            rel < 1e-3,
            f"relative residual = {rel:.2e}",
        )


def test_weak_limit_tail_probe_inside_recurrence_window(lorentzian_report):
    # the evolved residual recurs with period 2 pi hbar / d_omega; a tail
    # probe past half of it would pass by aliasing, not by decay
    for entry in lorentzian_report["results"]:
        t, t_max = entry["tail_probe_time"], entry["half_recurrence_time"]
        assert t < t_max
        assert entry["relative_residual_at_40_tdec"] <= 1e-6
        tail = lorentzian_report["assertions"][f"hbar_{entry['hbar']:g}_weak_limit_tail"]
        assert tail["passed"] and tail["t"] == t and tail["t_max"] == t_max


@pytest.mark.past_recurrence
def test_weak_limit_tail_fails_past_half_recurrence(caplog):
    # gamma = 12 d_omega puts the probe at 40 t_dec between T_rec/2 and T_rec:
    # its residual is tiny only by aliasing, and the assertion must say so
    with caplog.at_level(logging.WARNING, logger="phasedec"):
        report = run_named_scenario(
            "decoherence-lorentzian", {"kernel": {"family": "lorentzian", "gamma": 0.06}}, seed=0
        ).report
    for entry in report["results"]:
        assert entry["tail_probe_time"] > entry["half_recurrence_time"]
        assert entry["relative_residual_at_40_tdec"] <= 1e-6
        assert not report["assertions"][f"hbar_{entry['hbar']:g}_weak_limit_tail"]["passed"]
    assert not report["passed"]
    warned = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == len(report["results"])
    assert all("recurrence" in r.getMessage() for r in warned)


@pytest.mark.parametrize("name", ["decoherence-lorentzian", "decoherence-polefree"])
def test_default_decoherence_runs_stay_inside_half_recurrence(name, caplog):
    with caplog.at_level(logging.WARNING, logger="phasedec"):
        assert run_named_scenario(name, {}, seed=0).report["passed"]
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_probe_at_10_tdec_matches_direct_evolution(lorentzian_report):
    # the probes come from the residual trajectory; the direct sum is the oracle
    opts = scenario_defaults("decoherence-lorentzian")
    sgrid = SpectralGrid(**opts["spectral_grid"])
    diagonal, regular, _ = _coherence_from_options(opts["kernel"])
    profile = opts["observable_profile"]
    rho = make_state(sgrid, diagonal, regular)
    obs = make_observable(
        sgrid,
        lambda w: 1.0 + 0.0 * w,
        kernels.separable_kernel(kernels.gaussian_profile(profile["center"], profile["width"])),
    )
    limit = limit_pairing(rho, obs)
    gamma = opts["kernel"]["gamma"]
    for entry in lorentzian_report["results"]:
        direct = abs(evolve_pairing(rho, obs, 10.0 * entry["hbar"] / gamma, entry["hbar"]) - limit)
        probe = entry["relative_residual_at_10_tdec"] * abs(limit)
        assert abs(probe - direct) <= 1e-9 * direct


def test_criterion_7_final_positivity(positivity_report):
    announce(
        "criterion 7: 20 randomized admissible states keep nonnegative final densities",
        positivity_report["assertions"]["all_final_densities_nonnegative"]["passed"],
        f"worst minimum = {positivity_report['worst_minimum']:.2e}",
    )
    wm = positivity_report["wigner_contrast_minimum"]
    announce(
        "criterion 7: a pre-limit quasi-density in the suite is negative",
        wm < 0,
        f"Wigner minimum = {wm:.4f}",
    )


def test_criterion_8_singular_integration_prescription(pairing_report):
    slope = pairing_report["box_growth_slope"]
    announce(
        "criterion 8: full-volume singular pairing grows linearly (slope 1.0 +/- 0.1)",
        abs(slope - 1.0) <= 0.1,
        f"slope = {slope:.4f}",
    )
    error = pairing_report["restricted_density_error"]
    announce(
        "criterion 8: full-volume pairing per unit q equals the momentum-space pairing to 1e-3",
        error <= 1e-3,
        f"relative error = {error:.2e}",
    )


def test_criterion_9_basis_duality(pairing_report):
    entries = pairing_report["assertions"]
    ok = (
        entries["duality_singular_delta"]["passed"]
        and entries["duality_regular_delta"]["passed"]
        and entries["duality_cross_zero"]["passed"]
    )
    announce(
        "criterion 9: discrete duality gives exact scaled Kronecker deltas, cross pairings zero",
        ok,
        f"singular = {pairing_report['duality_singular']:.6g}, regular = {pairing_report['duality_regular']:.6g}",
    )


def test_all_scenario_assertions_pass(
    moyal_report,
    wigner_report,
    pairing_report,
    lorentzian_report,
    polefree_report,
    positivity_report,
):
    # belt and suspenders: no scenario carries a failing internal assertion
    for report in (
        moyal_report,
        wigner_report,
        pairing_report,
        lorentzian_report,
        polefree_report,
        positivity_report,
    ):
        assert report["passed"], report["scenario"]
