"""Golden default outputs: each scenario's defaults at seed 0 reproduce the files in ``golden/``.

``golden/<scenario>/`` holds the ``report.json`` and curve CSVs that
``phasedec run`` wrote for the default config. Each default runs in
process here; strings, bools, ints, keys and assertion names must match
exactly, and every float within ``REL`` relative or ``ABS`` absolute, so
a change that moves an output by more than round-off shows up even where
every assertion still passes.
"""

import csv
import json
from pathlib import Path

import pytest

from phasedec.cli import _strict_json
from phasedec.scenarios import SCENARIO_NAMES, run_named_scenario

GOLDEN = Path(__file__).parent / "golden"
REL = 1e-9
ABS = 1e-13


def _check(actual, golden, where: str):
    if isinstance(golden, float) and isinstance(actual, float):
        close = actual == golden or abs(actual - golden) <= max(REL * abs(golden), ABS)
        assert close, f"{where}: {actual!r} != golden {golden!r}"
    elif isinstance(golden, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(golden), f"{where}: keys differ"
        for key in golden:
            _check(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list) and len(actual) == len(golden), f"{where}: lengths differ"
        for i, (a, g) in enumerate(zip(actual, golden)):
            _check(a, g, f"{where}[{i}]")
    else:
        assert type(actual) is type(golden) and actual == golden, f"{where}: {actual!r} != golden {golden!r}"


def _cell(text: str):
    """A CSV cell as the int, float or string it was written from."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_default_outputs_match_golden_files(scenario):
    result = run_named_scenario(scenario, {}, seed=0)
    folder = GOLDEN / scenario
    report = json.loads(json.dumps(_strict_json(result.report)))
    _check(report, json.loads((folder / "report.json").read_text(encoding="utf-8")), "report")
    assert sorted(p.stem for p in folder.glob("*.csv")) == sorted(result.curves)
    for name, (header, rows) in result.curves.items():
        with (folder / f"{name}.csv").open(newline="", encoding="utf-8") as handle:
            golden_header, *golden_rows = csv.reader(handle)
        assert list(header) == golden_header, f"{name}.csv header"
        _check([list(row) for row in rows], [[_cell(c) for c in row] for row in golden_rows], f"{name}.csv")
