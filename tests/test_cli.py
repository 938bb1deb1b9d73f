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
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCES,
    EXIT_VALIDATION,
    main,
)
from phasedec import scenarios
from phasedec.scenarios import MAX_STATES, SCENARIO_NAMES, _merge, scenario_defaults


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


def test_scenarios_that_draw_nothing_leave_numpy_random_unloaded():
    # only pairing-equivalence and limit-positivity draw from the seed; the
    # other four defaults run without importing numpy.random
    code = (
        "from phasedec.scenarios import run_named_scenario\n"
        "for name in ('moyal-convergence', 'wigner-negativity', 'decoherence-lorentzian',\n"
        "             'decoherence-polefree'):\n"
        "    assert run_named_scenario(name, {}, 0).report['passed'], name\n"
    )
    assert "numpy.random" not in _modules_loaded_after(code)


def test_negative_seed_is_validation_error(tmp_path, capsys):
    # refused for every scenario, also those that never build a generator
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "moyal-convergence", "seed": -1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "option 'seed' must be >= 0, got -1" in capsys.readouterr().err


def test_phase_space_symbols_run_without_scipy():
    # the singular symbols of an observable and a state on the harmonic map
    code = (
        "import numpy as np\n"
        "from phasedec.phase_space import Grid, PhaseFunction\n"
        "from phasedec.spectral import MomentumMap, SpectralGrid, make_observable, symb_singular\n"
        "from phasedec.states import make_state, singular_symbol\n"
        "sgrid, pgrid = SpectralGrid(9.0, 301), Grid.square(-3.0, 3.0, 65)\n"
        "mm = MomentumMap(PhaseFunction.sample(pgrid, lambda q, p: 0.5 * (q**2 + p**2)))\n"
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


@pytest.mark.parametrize("verbose", [False, True], ids=["quiet", "verbose"])
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, verbose):
    # an exception no other code claims is a fault of the program: exit 6 and one
    # stderr line naming its type, not a traceback under exit 1 (a parse error's code)
    def fault(*args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("phasedec.cli.run_named_scenario", fault)
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "moyal-convergence"})
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "out")] + ["-v"] * verbose
    assert main(argv) == EXIT_INTERNAL == 6
    err = capsys.readouterr().err
    assert err.startswith("error: internal error: ZeroDivisionError: division by zero\n")
    if verbose:
        assert "Traceback (most recent call last)" in err and err.rstrip().endswith("division by zero")
    else:
        assert err.count("\n") == 1


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
    # memory telemetry: the peak resident set and the scenario's minor page faults
    assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 1.0
    assert isinstance(meta["minor_page_faults"], int) and meta["minor_page_faults"] >= 0
    assert not {"peak_rss_mb", "minor_page_faults"} & set(report)
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
        ('{"scenario": "pairing-equivalence", "box_lengths": [4.0]}', "box_lengths",
         "at least two distinct lengths"),
        ('{"scenario": "pairing-equivalence", "box_lengths": [4.0, 4.0]}', "box_lengths",
         "at least two distinct lengths"),
        ('{"scenario": "pairing-equivalence", "spectral_grid": {"omega_count": 5}}',
         "spectral_grid", "omega count must be >= 16"),
        ('{"scenario": "decoherence-polefree", "spectral_grid": {"omega_max": -1}}',
         "spectral_grid", "omega_max must be positive"),
        ('{"scenario": "decoherence-lorentzian", "times": {"count": 5}}', "times",
         "at least 12 points"),
        ('{"scenario": "decoherence-polefree", "times": {"spacing": "cubic"}}', "times",
         "'log' or 'linear'"),
        ('{"scenario": "decoherence-polefree", "times": {"start": 300}}', "times",
         "0 < start < stop"),
        ('{"scenario": "pairing-equivalence", "box_momentum_count": 3}', "box_momentum_count",
         "axis count must be >= 8, got 3"),
        ('{"scenario": "moyal-convergence", "truncation_order": 9}', "truncation_order",
         "must be in 0..6"),
        ('{"scenario": "limit-positivity", "n_states": 0}', "n_states", "must be >= 1"),
        ('{"scenario": "limit-positivity", "n_states": 1e300}', "n_states",
         f"must be <= MAX_STATES = {MAX_STATES}, got 100000... (301 digits)"),
        (f'{{"scenario": "limit-positivity", "n_states": {MAX_STATES + 1}}}', "n_states",
         f"must be <= MAX_STATES = {MAX_STATES}, got {MAX_STATES + 1}"),
        ('{"scenario": "decoherence-lorentzian", "kernel": {"gamma": 0.2}}', "kernel.family",
         "is missing"),
        ('{"scenario": "moyal-convergence", "hbar": [0.4, 0.2]}', "hbar", "at least 3 hbar"),
        ('{"scenario": "decoherence-lorentzian", "kernel": {"family": "lorentzian", "gamma": -1}}',
         "kernel.gamma", "gamma must be positive"),
        ('{"scenario": "decoherence-lorentzian", "kernel": {"family": "lorentzian", "gamma": 1e-300}}',
         "kernel.gamma", "squares to 0.0, not a normal float"),
        ('{"scenario": "wigner-negativity", "hbar": 0.01}', "hbar", "'axis': phase step"),
        ('{"scenario": "pairing-equivalence", "p_axis": {"hi": 40.0}}', "hbar",
         "'q_axis', 'p_axis': phase step"),
        ('{"scenario": "pairing-equivalence", "hbar": 0.05}', "hbar", "'q_axis', 'p_axis': phase step"),
        ('{"scenario": "limit-positivity", "hbar": 0.001}', "hbar", "'wigner_axis': phase step"),
        ('{"scenario": "pairing-equivalence", "hbar": 1e-300}', "hbar", "= 5.62e+299 exceeds pi/4"),
        ('{"scenario": "limit-positivity", "hbar": 1e-300}', "hbar",
         "'wigner_axis': cannot normalize the zero wavefunction"),
        ('{"scenario": "wigner-negativity", "axis": {"lo": -1e-200, "hi": 1e-200}}', "hbar",
         "'axis': cannot normalize the zero wavefunction"),
        ('{"scenario": "decoherence-polefree", '
         '"kernel": {"family": "polefree", "decay": 1.2, "cutoff": 1e-300}}',
         "kernel.cutoff", "squares to zero on every omega node"),
        ('{"scenario": "decoherence-polefree", '
         '"kernel": {"family": "gaussian", "nu_width": 1e-300, "center": 2.0, "width": 0.5}}',
         "kernel.nu_width", "needs a finite exponent"),
        ('{"scenario": "decoherence-polefree", '
         '"kernel": {"family": "polefree", "decay": 1e-300, "cutoff": 7.5}}',
         "kernel.decay", "squares to zero on every omega node"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "custom-polynomial", '
         '"coefficients": [1, 0], "decay": 1e-300}}', "kernel.decay", "squares to zero on every omega node"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "custom-polynomial", '
         '"coefficients": [0]}}', "kernel.coefficients", "squares to zero on every omega node"),
        ('{"scenario": "decoherence-lorentzian", "kernel": {"family": "polefree"}}', "kernel.family",
         "need a 'lorentzian' kernel"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "lorentzian"}}', "kernel.family",
         "run the lorentzian family through decoherence-lorentzian"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "polefree", "decay": -1}}',
         "kernel.decay", "decay must be positive"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "gaussian", "nu_width": -1}}',
         "kernel.nu_width", "nu_width must be positive"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "custom-polynomial", "decay": 0}}',
         "kernel.decay", "decay must be positive"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "polefree", "cutoff": -1}}',
         "kernel.cutoff", "cutoff must be positive"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "polefree", "cutoff": 0}}',
         "kernel.cutoff", "cutoff must be positive"),
        ('{"scenario": "decoherence-polefree", "kernel": {"family": "gaussian", "nu_width": 1e200}}',
         "kernel.nu_width", "needs a finite exponent"),
        pytest.param(
            '{"scenario": "decoherence-polefree", "hbar": 0.001, "times": {"stop": 1e308}}',
            "times", "'hbar', 'spectral_grid', 'times': phase step",
            marks=pytest.mark.past_recurrence,
        ),
        pytest.param(
            '{"scenario": "decoherence-lorentzian", "hbar": [0.1], "times": {"stop_factor": 1e308}}',
            "kernel", "'hbar', 'kernel', 'spectral_grid', 'times': phase step",
            marks=pytest.mark.past_recurrence,
        ),
    ],
    ids=["axis-range", "wigner-axis-count", "p-axis-range", "grid-range", "negative-box",
         "zero-box", "single-box", "repeated-box", "omega-count", "omega-max", "times-count",
         "times-spacing", "times-start", "box-momentum-count", "truncation-order", "n-states",
         "n-states-1e300", "n-states-above-max",
         "kernel-without-family", "two-hbar-values", "kernel-gamma", "kernel-gamma-underflow",
         "wigner-phase-step", "pairing-p-range-phase-step", "pairing-hbar-phase-step",
         "positivity-phase-step", "pairing-tiny-hbar-phase-step", "positivity-tiny-hbar-zero-state",
         "negativity-tiny-axis-zero-state", "polefree-cutoff-overflow", "polefree-nu-width-underflow",
         "polefree-decay-empties-state", "polynomial-decay-empties-state", "polynomial-zero-on-every-node",
         "lorentzian-other-family", "polefree-lorentzian-family", "polefree-decay-not-positive",
         "gaussian-nu-width-not-positive", "polynomial-decay-not-positive", "polefree-negative-cutoff",
         "polefree-zero-cutoff", "gaussian-nu-width-overflow", "polefree-phase-overflow",
         "lorentzian-phase-overflow"],
)
def test_invalid_axis_option_names_its_path(tmp_path, capsys, text, path, message):
    # Axis refused these triples with "got [-6.0, -7.0]" or "got [4.0, -4.0]" and
    # no option name, since each number on its own is a valid float. The spectral
    # grid, the time grid, the box momentum count, the truncation order, n_states,
    # the hbar sweep and the kernel parameters were refused without their option
    # too, and a kernel block without a family read "unknown kernel family None".
    # The Wigner phase-step limit max|p| dy / hbar < pi/4 spans hbar and the axes
    # it reads dy and p from, so its refusal names all of them. The residual
    # phase d_omega max|t| / hbar spans hbar, the spectral grid and the times,
    # and the Lorentzian times scale with hbar / gamma; its overflow named none.
    # A gamma whose square underflowed printed numpy's 0/0 warning and then
    # "term offset symbols c must be finite", naming no option. One box length,
    # or one repeated, printed numpy's RankWarning and failed on a meaningless
    # growth slope; the wigner-negativity states' zero-wavefunction refusal
    # named no option. A polefree cutoff whose power overflowed, or a Gaussian
    # nu_width whose square underflowed, printed numpy warnings and then
    # "diagonal has zero mass" or "term offset symbols c must be finite"; a
    # decay that emptied the state printed the first of these, naming nothing,
    # and so did a polynomial profile whose decay or coefficients empty it. The
    # family refusals of the two decoherence scenarios named no option either,
    # nor did a decay or nu_width that its kernels factory refused, named only
    # 'kernel'. A polefree cutoff of -1 ran as a cutoff of 1 ((w / cutoff)^6),
    # and one of 0 ended in "term profiles a must be finite" with no option; a
    # nu_width of 1e200, whose square overflows a Python float, was a traceback.
    # An n_states of 1e300 was read as an integer and drew states until killed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{path}'" in err and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"scenario": "limit-positivity", "n_states": 1e300}', "n_states"),
        ('{"scenario": "limit-positivity", "n_states": -1e300}', "n_states"),
        ('{"scenario": "moyal-convergence", "grid": {"count": -1e300}}', "grid"),
        ('{"scenario": "pairing-equivalence", "box_momentum_count": -1e300}', "box_momentum_count"),
        ('{"scenario": "moyal-convergence", "truncation_order": 1e300}', "truncation_order"),
        ('{"scenario": "moyal-convergence", "seed": -1e300}', "seed"),
        ('{"scenario": "decoherence-lorentzian", "spectral_grid": {"omega_count": 1e300}}', "spectral_grid"),
    ],
    ids=["n-states-above-max", "n-states-below-1", "grid-count", "box-momentum-count",
         "truncation-order", "seed", "omega-count"],
)
def test_huge_integer_refusal_is_one_short_line(tmp_path, capsys, text, path):
    # each printed the whole 301-digit integer that 1e300 reads as; the value
    # is now its leading digits and its digit count, and the path stays
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "... (301 digits)" in err
    assert len(err.splitlines()) == 1 and len(err) <= 200, err


@pytest.mark.parametrize("n_states", [MAX_STATES + 1, 10**300], ids=["above-max", "1e300"])
def test_too_many_states_are_refused_before_any_is_drawn(monkeypatch, n_states):
    # about 0.26 ms a state: MAX_STATES take about 3 s, and 1e300 never ended
    def refuse(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(scenarios, "random_admissible_state", refuse)
    with pytest.raises(ValueError, match=f"'n_states' must be <= MAX_STATES = {MAX_STATES}"):
        scenarios.run_named_scenario("limit-positivity", {"n_states": n_states}, seed=0)
    with pytest.raises(AssertionError, match="a state was drawn"):
        scenarios.run_named_scenario("limit-positivity", {"n_states": MAX_STATES}, seed=0)


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


def test_overflowing_plane_wave_phase_names_hbar(tmp_path, capsys):
    # d_omega max|q| / hbar overflows at hbar 1e-310: the plane-wave table warned
    # three times, then "wavefunction samples must be finite" named no option
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "pairing-equivalence", "hbar": 1e-310})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "'hbar'" in lines[0] and "overflow" in lines[0]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "override, path",
    [({"quadratic_hbar": 1e200}, "quadratic_hbar"), ({"hbar": [1e200, 1e100, 1e50]}, "hbar")],
    ids=["quadratic-hbar", "hbar-sweep"],
)
def test_overflowing_star_weight_names_hbar(tmp_path, capsys, override, path):
    # (i hbar/2)^2 / 2! overflows at hbar 1e200: hq**2 / 4 ended in an OverflowError
    # traceback with exit 1, and so did the complex power of the series weight
    cfg = write_config(tmp_path / "cfg.json", {"scenario": "moyal-convergence", **override})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and f"'{path}'" in lines[0] and "overflows" in lines[0]
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


@pytest.mark.parametrize("scale", [1e100, 1e150])
def test_profile_too_large_for_the_pairing_names_its_option(tmp_path, scale):
    # sqrt(w) exp(-w / decay) on nodes up to 1e100 squares to a sum near 1e102, and the
    # FFT pairing's d_omega^2 factor then overflows: 1e100 printed five numpy
    # RuntimeWarnings and then "trajectory values must be finite", naming 'hbar',
    # 'spectral_grid' and 'times'; 1e150 under PYTHONWARNINGS=error was a traceback
    # with exit 1. A fresh interpreter shows the warnings as a user would see them.
    cfg = write_config(
        tmp_path / "cfg.json",
        {"scenario": "decoherence-polefree", "spectral_grid": {"omega_max": scale},
         "kernel": {"family": "polefree", "decay": scale, "cutoff": scale},
         "times": {"start": 1e-10 / scale, "stop": 1.0 / scale}},
    )
    env = {**os.environ, "PYTHONPATH": str(Path(phasedec.__file__).resolve().parents[1])}
    for warnings in ("default", "error"):
        done = subprocess.run(
            [sys.executable, "-m", "phasedec.cli", "run", "--config", cfg, "--out", str(tmp_path / "o")],
            env={**env, "PYTHONWARNINGS": warnings}, capture_output=True, text=True,
        )
        assert done.returncode == EXIT_VALIDATION
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and "'kernel.decay'" in lines[0] and "pairing" in lines[0]
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, path",
    [
        ({"scenario": "decoherence-lorentzian", "kernel": {"family": "lorentzian", "width": 1e-300}},
         "kernel.width"),
        ({"scenario": "decoherence-polefree", "kernel": {"family": "gaussian", "center": 1e300}},
         "kernel.center"),
        ({"scenario": "pairing-equivalence", "state_profile": {"width": 1e-300}}, "state_profile.width"),
        ({"scenario": "decoherence-lorentzian", "observable_profile": {"center": 1e300}},
         "observable_profile.center"),
        ({"scenario": "decoherence-lorentzian", "kernel": {"family": "lorentzian", "center": 1e3}},
         "kernel.center"),
        ({"scenario": "pairing-equivalence", "state_profile": {"center": 1e3}}, "state_profile.center"),
        ({"scenario": "pairing-equivalence", "observable_profile": {"center": 1e3}},
         "observable_profile.center"),
        ({"scenario": "decoherence-lorentzian", "observable_profile": {"center": 1e3}},
         "observable_profile.center"),
        ({"scenario": "decoherence-lorentzian",
          "kernel": {"family": "lorentzian", "center": 2.0025, "width": 5e-5}}, "kernel.width"),
    ],
    ids=["kernel-width", "kernel-center", "state-profile-width", "observable-profile-center",
         "kernel-center-empties-state", "state-profile-center-empties-state",
         "pairing-observable-center-empties-profile", "lorentzian-observable-center-empties-profile",
         "kernel-width-between-nodes"],
)
def test_gaussian_profile_out_of_float_range_names_its_option(tmp_path, config, path):
    # a width whose square underflows gave 0/0 at the node on the center, and a far
    # center overflowed (w - center)^2: numpy RuntimeWarnings, then an error naming no
    # option or an assertion failure. A center outside the omega nodes' range, or a
    # width far below the node spacing, let every sample underflow to 0: "diagonal has
    # zero mass", numpy warnings and "term profiles a must be finite", or an exit 3
    # with no word. A fresh interpreter shows the warnings.
    cfg = write_config(tmp_path / "cfg.json", config)
    env = {**os.environ, "PYTHONPATH": str(Path(phasedec.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "phasedec.cli", "run", "--config", cfg, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_VALIDATION
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and f"'{path}'" in lines[0]
    assert not (tmp_path / "o").exists()


def test_decay_fit_on_times_near_float_max_prints_no_numpy_warning(tmp_path):
    # np.polyfit squared times up to 1e300: an overflow RuntimeWarning and a RankWarning
    # before the recurrence-window assertion failed. A fresh interpreter shows them.
    cfg = write_config(
        tmp_path / "cfg.json", {"scenario": "decoherence-polefree", "times": {"stop": 1e300}}
    )
    env = {**os.environ, "PYTHONPATH": str(Path(phasedec.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "phasedec.cli", "run", "--config", cfg, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_ASSERTION
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "half the recurrence time" in lines[0]
    assert "Warning" not in done.stderr


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
