"""Scenario-runner CLI tests: exit codes, outputs, determinism."""

import csv
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import phasedec
from phasedec.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCES,
    EXIT_VALIDATION,
    main,
)
from phasedec.scenarios import SCENARIO_NAMES, _merge, scenario_defaults


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# a meta-path finder that fails any scipy import outright; a RuntimeError,
# not an ImportError, so no optional-import fallback can swallow it
_REFUSE_SCIPY = """\
import sys
class _RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise RuntimeError(f"scipy import attempted: {name}")
sys.meta_path.insert(0, _RefuseScipy())
"""


def _modules_loaded_after(code):
    """Names in sys.modules after a fresh interpreter runs ``code`` with scipy refused."""
    env = {**os.environ, "PYTHONPATH": str(Path(phasedec.__file__).resolve().parents[1])}
    code = _REFUSE_SCIPY + code + "\nimport sys; print('\\n'.join(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_scipy_guard_fails_a_scipy_import():
    with pytest.raises(subprocess.CalledProcessError) as failed:
        _modules_loaded_after("import scipy.fft")
    assert "scipy import attempted: scipy" in failed.value.stderr


def test_package_import_leaves_scipy_signal_unloaded():
    # scipy.interpolate and scipy.fft alone used to take about half a second
    # of every run's start-up; the package and its CLI need numpy only
    loaded = _modules_loaded_after("import phasedec, phasedec.cli")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_default_scenarios_leave_scipy_and_numpy_ma_unloaded():
    # no default scenario reaches a deferred scipy import, and np.unique
    # (which imports numpy.ma on its first call) stays out of the first op
    code = (
        "from phasedec.scenarios import SCENARIO_NAMES, run_named_scenario\n"
        "for name in SCENARIO_NAMES:\n"
        "    assert run_named_scenario(name, {}, 0).report['passed'], name\n"
    )
    loaded = _modules_loaded_after(code)
    assert [m for m in loaded if m.split(".")[0] == "scipy" or m == "numpy.ma"] == []


def test_phase_space_symbols_run_without_scipy():
    # the singular symbols of an observable and a state on the harmonic map
    code = (
        "import numpy as np\n"
        "from phasedec.phase_space import Grid\n"
        "from phasedec.spectral import MomentumMap, SpectralGrid, make_observable, symb_singular\n"
        "from phasedec.states import make_state, singular_symbol\n"
        "sgrid, pgrid = SpectralGrid(9.0, 301), Grid.square(-3.0, 3.0, 65)\n"
        "mm = MomentumMap.harmonic(pgrid)\n"
        "energy = symb_singular(make_observable(sgrid, lambda w: w), mm, pgrid)\n"
        "h = mm.hamiltonian.values\n"
        "assert np.max(np.abs(energy.values - h)) < 1e-12\n"
        "rho = singular_symbol(make_state(sgrid, lambda w: 1.0 + 0.0 * w), mm, pgrid)\n"
        "assert np.max(np.abs(rho.values - 1.0 / (301 * sgrid.d_omega))) < 1e-12\n"
    )
    assert [m for m in _modules_loaded_after(code) if m.split(".")[0] == "scipy"] == []


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out.split()
    assert set(out) == set(SCENARIO_NAMES)


def test_print_defaults_is_json_with_all_scenarios(capsys):
    assert main(["print-defaults"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == set(SCENARIO_NAMES)
    assert payload["decoherence-lorentzian"]["kernel"]["gamma"] == 0.1


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == EXIT_IO


def test_malformed_json_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{scenario: nope", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_non_object_config_is_config_error(tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_unknown_scenario_is_validation_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "does-not-exist"})
    assert main(["run", "--config", cfg]) == EXIT_VALIDATION


def test_unknown_option_is_validation_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"scenario": "moyal-convergence", "grdi": {"count": 65}}
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION


def test_bad_parameter_value_is_validation_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "moyal-convergence", "hbar": -1.0})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION


def test_oversized_grid_is_resource_error(tmp_path, capsys):
    # the 10^7 x 10^7 mesh needs 800 TB, far past any machine's memory, so
    # the allocation is refused at once instead of filling memory
    cfg = write_config(
        tmp_path / "cfg.json", {"scenario": "moyal-convergence", "grid": {"count": 10**7}}
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCES
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores directory write bits")
def test_unwritable_output_is_io_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "moyal-convergence"})
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        code = main(["run", "--config", cfg, "--out", str(locked / "sub")])
    finally:
        locked.chmod(stat.S_IRWXU)
    assert code == EXIT_IO


def test_failing_assertion_exit_code_and_report(tmp_path, capsys):
    # truncating the series below the first bracket correction leaves no
    # measurable deviation, so the slope assertion must fail with code 3
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "moyal-convergence", "truncation_order": 2, "grid": {"count": 65}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False
    assert report["assertions"]["bracket_slope_second_order"]["passed"] is False
    assert "[FAIL]" in capsys.readouterr().out


def test_run_writes_report_and_curves(tmp_path, capsys):
    # the fast scenario exercises the full output contract
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "moyal-convergence", "grid": {"count": 65}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert "assertions" in report and report["scenario"] == "moyal-convergence"
    meta = json.loads((out / "run_meta.json").read_text())
    assert "generated_at" in meta
    with (out / "convergence.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["hbar", "product_error", "bracket_error"]
    assert len(rows) == 4
    stdout = capsys.readouterr().out
    assert "[pass]" in stdout


@pytest.mark.parametrize(
    "payload",
    [
        {"scenario": "limit-positivity", "n_states": 3, "seed": 7,
         "spectral_grid": {"omega_count": 41}, "wigner_axis": {"count": 97}},
        {"scenario": "pairing-equivalence", "seed": 7},
    ],
    ids=["limit-positivity", "pairing-equivalence"],
)
def test_reports_are_byte_identical_across_runs(tmp_path, payload):
    cfg = write_config(tmp_path / "cfg.json", payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    for name in out1.glob("*.csv"):
        assert name.read_bytes() == (out2 / name.name).read_bytes()


def test_seed_changes_sampled_states_but_not_verdict(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "limit-positivity", "n_states": 3,
         "spectral_grid": {"omega_count": 41}, "wigner_axis": {"count": 97}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "1"]) == EXIT_OK
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "2"]) == EXIT_OK
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["seed"] == 1 and r2["seed"] == 2
    assert r1["passed"] and r2["passed"]
    assert r1["worst_minimum"] != r2["worst_minimum"]


def test_kernel_family_selection(tmp_path):
    # a polynomial spectrum also has a half-line edge, so the pole-free
    # scenario classifies it as non-exponential too; 1001 nodes put
    # T_rec / 2 at 314, past the last time 200
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree",
         "kernel": {"family": "custom-polynomial", "coefficients": [1.0], "decay": 1.2},
         "spectral_grid": {"omega_count": 1001, "omega_max": 10.0}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["kernel"]["family"] == "custom-polynomial"
    assert report["model"] in ("power_law", "none")


@pytest.mark.past_recurrence
def test_polefree_times_past_half_recurrence_fail(tmp_path):
    # 201 nodes put T_rec / 2 at 62.8 while the default times run to 200
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree", "spectral_grid": {"omega_count": 201}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_ASSERTION
    report = json.loads((out / "report.json").read_text())
    window = report["assertions"]["within_recurrence_window"]
    assert not window["passed"]
    assert window["t"] == 200.0
    assert window["t_max"] == report["half_recurrence_time"] == pytest.approx(62.83, abs=0.01)


def test_kernel_family_mismatch_is_validation_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-lorentzian", "kernel": {"family": "polefree"}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_unknown_kernel_family_is_validation_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree", "kernel": {"family": "cauchy"}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_non_string_kernel_family_is_validation_error(tmp_path, capsys):
    # a list used to reach a dict lookup and end in "unhashable type: 'list'"
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-lorentzian", "kernel": {"family": ["lorentzian"]}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown kernel family" in err and "'kernel.family'" in err


def test_unknown_kernel_parameter_is_validation_error(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-lorentzian",
         "kernel": {"family": "lorentzian", "gamm": 0.2}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_infinite_t_dec_serializes_as_strict_json(tmp_path):
    # pole-free decay has no finite decoherence time; the report must stay
    # parseable by strict (non-Python) JSON readers
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree",
         "spectral_grid": {"omega_count": 301, "omega_max": 10.0},
         "times": {"start": 1.0, "stop": 60.0, "count": 60, "spacing": "log"}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    text = (out / "report.json").read_text()
    assert "Infinity" not in text and "NaN" not in text

    def reject(_):
        raise AssertionError("non-RFC constant leaked into report.json")

    report = json.loads(text, parse_constant=reject)
    assert report["t_dec"] == "inf"


def test_hbar_override(tmp_path):
    # default 193-point axis keeps the oscillatory phase guard happy at hbar = 0.5
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "wigner-negativity"})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--hbar", "0.5"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["hbar"] == 0.5
    assert report["target_minimum"] == pytest.approx(-2.0 / 3.141592653589793, rel=1e-12)


@pytest.mark.parametrize(
    "scenario, override, flag",
    [
        ("wigner-negativity", {}, "nan"),
        ("moyal-convergence", {"hbar": [0.4, float("nan"), 0.1]}, None),
        ("decoherence-lorentzian", {}, "inf"),
        ("moyal-convergence", {"quadratic_hbar": float("nan")}, None),
    ],
    ids=["nan-wigner", "nan-moyal", "inf-lorentzian", "nan-quadratic"],
)
def test_non_finite_hbar_is_validation_error(tmp_path, capsys, scenario, override, flag):
    # caught up front, before a NaN or inf hbar turns into an unrelated
    # message (non-finite samples, a failed SVD, a reversed time grid)
    cfg = write_config(tmp_path / "cfg.json", {"scenario": scenario, **override})
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "o")]
    if flag is not None:
        argv += ["--hbar", flag]
    assert main(argv) == EXIT_VALIDATION
    assert "hbar" in capsys.readouterr().err


def test_unknown_time_spacing_is_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree", "times": {"spacing": "logarithmic"}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "spacing" in capsys.readouterr().err


def test_linear_time_spacing(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree", "spectral_grid": {"omega_count": 201},
         "times": {"start": 2.0, "stop": 50.0, "count": 25, "spacing": "linear"}},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) in (EXIT_OK, EXIT_ASSERTION)
    with (out / "residual.csv").open(newline="") as handle:
        times = [float(row["t"]) for row in csv.DictReader(handle)]
    assert times == pytest.approx(list(range(2, 51, 2)), rel=1e-12)


def test_verbose_flag_logs_progress_to_stderr(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree", "spectral_grid": {"omega_count": 201},
         "times": {"stop": 50.0}},
    )
    quiet, loud = tmp_path / "quiet", tmp_path / "loud"
    assert main(["run", "--config", cfg, "--out", str(quiet)]) == EXIT_OK
    quiet_err = capsys.readouterr().err
    assert main(["run", "--config", cfg, "--out", str(loud), "-v"]) == EXIT_OK
    loud_out, loud_err = capsys.readouterr()
    assert "renormalizing state diagonal" not in quiet_err
    assert "INFO phasedec.states: renormalizing state diagonal" in loud_err
    assert "renormalizing" not in loud_out
    assert (quiet / "report.json").read_bytes() == (loud / "report.json").read_bytes()


@pytest.mark.parametrize(
    "scenario",
    ["wigner-negativity", "pairing-equivalence", "decoherence-polefree", "limit-positivity"],
)
def test_hbar_list_in_single_hbar_scenario_is_validation_error(tmp_path, capsys, scenario):
    # these scenarios run one hbar; a longer list used to run only its first value
    cfg = write_config(tmp_path / "cfg.json", {"scenario": scenario, "hbar": [1.0, 0.5]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "'hbar'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_quadratic_hbar_list_is_validation_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json", {"scenario": "moyal-convergence", "quadratic_hbar": [0.5, 0.25]}
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "'quadratic_hbar'" in capsys.readouterr().err


def test_one_element_hbar_list_runs_that_hbar(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "wigner-negativity", "hbar": [0.5]})
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["hbar"] == 0.5


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"scenario": "wigner-negativity", "axis": {"count": 1e400}}', "axis.count"),
        ('{"scenario": "wigner-negativity", "axis": {"count": 193.7}}', "axis.count"),
        ('{"scenario": "limit-positivity", "n_states": true}', "n_states"),
        ('{"scenario": "decoherence-polefree", "times": {"count": "100"}}', "times.count"),
        ('{"scenario": "moyal-convergence", "seed": 1e400}', "seed"),
        ('{"scenario": "moyal-convergence", "seed": 2.7}', "seed"),
        ('{"scenario": "moyal-convergence", "seed": true}', "seed"),
    ],
    ids=["overflowing", "fractional", "bool", "string", "seed-overflowing", "seed-fractional",
         "seed-bool"],
)
def test_non_integer_count_is_validation_error(tmp_path, capsys, text, path):
    # 1e400 parses to inf, whose int() overflowed into a traceback with exit 1;
    # 193.7 ran at 193 without a word, and a seed of 2.7 or true ran seed 2 or 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "integer" in err
    assert "Traceback" not in err


def test_integral_float_count_is_accepted(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "wigner-negativity", "axis": {"count": 129.0}, "seed": 3.0},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    seed = json.loads((out / "report.json").read_text())["seed"]
    assert seed == 3 and type(seed) is int
    with (out / "wigner_slice.csv").open(newline="") as handle:
        assert len(list(csv.reader(handle))) == 1 + 129


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"scenario": "wigner-negativity", "axis": {"hi": 1e400}}', "axis.hi"),
        ('{"scenario": "pairing-equivalence", "state_profile": {"width": Infinity}}',
         "state_profile.width"),
        ('{"scenario": "decoherence-polefree", "times": {"start": NaN}}', "times.start"),
        ('{"scenario": "wigner-negativity", "axis": {"hi": "6"}}', "axis.hi"),
        ('{"scenario": "decoherence-lorentzian", "times": {"stop_factor": true}}',
         "times.stop_factor"),
        ('{"scenario": "pairing-equivalence", "q_axis": {"lo": -1' + "0" * 400 + '}}',
         "q_axis.lo"),
        ('{"scenario": "decoherence-lorentzian", "kernel": {"family": "lorentzian", '
         '"gamma": Infinity}}', "kernel.gamma"),
        ('{"scenario": "pairing-equivalence", "box_lengths": [4.0, Infinity]}', "box_lengths[1]"),
        ('{"scenario": "pairing-equivalence", "box_lengths": 8.0}', "box_lengths"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "custom-polynomial", '
         '"coefficients": [1.0, NaN]}}', "kernel.coefficients[1]"),
    ],
    ids=["overflowing", "infinite", "nan", "string", "bool", "huge-integer", "kernel",
         "list-infinite-entry", "list-scalar", "kernel-list-nan-entry"],
)
def test_non_finite_float_option_is_validation_error(tmp_path, capsys, text, path):
    # 1e400 used to end in a numpy RuntimeWarning and "wavefunction samples must be
    # finite", an infinite width ran and failed its assertions, and "6" ran as 6.0;
    # an infinite box length printed a RuntimeWarning and a box_lengths scalar ended
    # in "'float' object is not iterable", neither naming the option
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "finite number" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"scenario": "pairing-equivalence", "box_lengths": []}', "box_lengths"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "custom-polynomial", '
         '"coefficients": []}}', "kernel.coefficients"),
    ],
    ids=["box-lengths", "kernel-coefficients"],
)
def test_empty_list_option_is_validation_error(tmp_path, capsys, text, path):
    # an empty box_lengths ended in numpy's "expected non-empty vector for x" and
    # empty coefficients in "diagonal has zero mass", neither naming the option
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "non-empty list" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, path, message",
    [
        ('{"scenario": "wigner-negativity", "axis": {"hi": -7}}', "axis", "max > min"),
        ('{"scenario": "limit-positivity", "wigner_axis": {"count": 5}}', "wigner_axis",
         "count must be >="),
        ('{"scenario": "pairing-equivalence", "p_axis": {"lo": 4.5}}', "p_axis", "max > min"),
        ('{"scenario": "moyal-convergence", "grid": {"lo": 2.0}}', "grid", "max > min"),
        ('{"scenario": "pairing-equivalence", "box_lengths": [-4.0]}', "box_lengths[0]",
         "must be positive"),
        ('{"scenario": "pairing-equivalence", "box_lengths": [4.0, 0]}', "box_lengths[1]",
         "must be positive"),
    ],
    ids=["axis-range", "wigner-axis-count", "p-axis-range", "grid-range", "negative-box",
         "zero-box"],
)
def test_invalid_axis_option_names_its_path(tmp_path, capsys, text, path, message):
    # Axis refused these triples with "got [-6.0, -7.0]" or "got [4.0, -4.0]" and
    # no option name, since each number on its own is a valid float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{path}'" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("omega_max", [1e-300, 1e300], ids=["underflow", "overflow"])
def test_spectral_step_out_of_float_range_is_validation_error(tmp_path, capsys, omega_max):
    # the delta functionals divide by d_omega**2 and pairings multiply by it: a step
    # whose square underflowed ended in a ZeroDivisionError traceback, and one
    # whose square overflowed in an OverflowError traceback, both with exit 1
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "pairing-equivalence", "spectral_grid": {"omega_max": omega_max}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "omega_max" in err and "d_omega" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("scale", [1e300, 1e76])
def test_overflowing_polynomial_profile_names_coefficients(tmp_path, scale):
    # 1e300 printed numpy's overflow RuntimeWarning, then "diagonal samples must be
    # finite"; 1e76 overflowed later, in the FFT pairing, with three warnings and
    # "trajectory values must be finite": neither named the option. A fresh
    # interpreter shows the warnings as a user would see them.
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree",
         "kernel": {"family": "custom-polynomial", "coefficients": [scale, scale]}},
    )
    env = {**os.environ, "PYTHONPATH": str(Path(phasedec.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "phasedec.cli", "run", "--config", cfg, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_VALIDATION
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "'kernel.coefficients'" in lines[0]
    assert not (tmp_path / "o").exists()


def test_integer_for_float_option_is_accepted(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json", {"scenario": "wigner-negativity", "axis": {"lo": -6, "hi": 6}}
    )
    default = write_config(tmp_path / "default.json", {"scenario": "wigner-negativity"})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "int")]) == EXIT_OK
    assert main(["run", "--config", default, "--out", str(tmp_path / "float")]) == EXIT_OK
    report = (tmp_path / "int" / "report.json").read_bytes()
    assert report == (tmp_path / "float" / "report.json").read_bytes()


def _types(value):
    if isinstance(value, dict):
        return {key: _types(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_types(v) for v in value]
    return type(value)


def test_printed_defaults_merge_back_unchanged(capsys):
    # print-defaults output, fed back as a scenario's overrides, passes every
    # option check and changes neither a value nor a type
    assert main(["print-defaults"]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    for name in SCENARIO_NAMES:
        defaults = scenario_defaults(name)
        merged = _merge(defaults, printed[name])
        assert merged == defaults
        assert _types(merged) == _types(defaults)
