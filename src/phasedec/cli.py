"""Config-driven scenario runner: ``phasedec run | list-scenarios | print-defaults``.

Configs are JSON; every parameter has a default so a config only names
what it changes. ``run`` writes report.json (deterministic: sorted keys,
no timestamps), one RFC-4180 CSV per curve, and run_meta.json for the
wall-clock and memory metadata that must not perturb report bytes.

Exit codes: 0 all assertions pass, 1 config parse error, 2 validation
error, 3 assertion failure, 4 I/O error, 5 not enough memory for the run,
6 internal error: any other exception, a fault of the program rather than
of the config, reported as one stderr line naming its type (``-v`` adds
the traceback).

``run -v`` prints the package's INFO log lines (what the run is doing,
such as state renormalization) on stderr; without it only warnings show.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .scenarios import SCENARIO_NAMES, _integer_option, run_named_scenario, scenario_defaults

__all__ = ["ScenarioConfig", "run_scenario", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3
EXIT_IO = 4
EXIT_RESOURCES = 5
EXIT_INTERNAL = 6


class ConfigError(ValueError):
    """Config file is structurally unusable (bad JSON / wrong top-level type)."""


@dataclass
class ScenarioConfig:
    """A named scenario plus overrides for its defaulted options."""

    scenario: str
    seed: int = 0
    output_dir: Path = Path("phasedec-out")
    options: dict | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; known: {', '.join(SCENARIO_NAMES)}"
            )
        self.seed = _integer_option(self.seed, "seed")
        self.output_dir = Path(self.output_dir)
        self.options = dict(self.options or {})


def load_config(path: Path) -> ScenarioConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    if "scenario" not in payload:
        raise ValueError("config must name a scenario")
    scenario = payload.pop("scenario")
    seed = payload.pop("seed", 0)
    output_dir = payload.pop("output_dir", "phasedec-out")
    return ScenarioConfig(scenario=scenario, seed=seed, output_dir=Path(output_dir), options=payload)


def _strict_json(value):
    """Replace non-finite floats so report.json stays RFC-parseable."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf", "-inf", "nan"
    return value


def _write_outputs(config: ScenarioConfig, report: dict, curves: dict, run_meta: dict):
    out = config.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_text(
            json.dumps(_strict_json(report), sort_keys=True, indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )
        meta = {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scenario": config.scenario,
            **run_meta,
        }
        (out / "run_meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        for name, (header, rows) in curves.items():
            with (out / f"{name}.csv").open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out}: {exc}") from exc


def run_scenario(config: ScenarioConfig) -> int:
    """Execute one scenario, write its reports, and return the exit code."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    started = time.perf_counter()
    result = run_named_scenario(config.scenario, config.options, config.seed)
    elapsed = time.perf_counter() - started
    usage = resource.getrusage(resource.RUSAGE_SELF)
    run_meta = {
        "elapsed_seconds": elapsed,
        # the process's peak so far (ru_maxrss is in KiB on Linux), and the
        # minor page faults taken during the scenario alone
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "minor_page_faults": usage.ru_minflt - faults,
    }
    _write_outputs(config, result.report, result.curves, run_meta)
    for name, entry in result.report["assertions"].items():
        status = "pass" if entry["passed"] else "FAIL"
        print(f"[{status}] {config.scenario}: {name}")
    if result.report["passed"]:
        print(f"{config.scenario}: all assertions passed ({elapsed:.1f}s)")
        return EXIT_OK
    print(f"{config.scenario}: assertion failure(s); see {config.output_dir}/report.json")
    return EXIT_ASSERTION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasedec",
        description="Run phase-space decoherence scenarios and write JSON/CSV reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="Run one scenario from a JSON config")
    run_cmd.add_argument("--config", type=Path, required=True, help="Path to a JSON config")
    run_cmd.add_argument("--out", type=Path, default=None, help="Output directory override")
    run_cmd.add_argument("--hbar", type=float, default=None, help="Override hbar with one value")
    run_cmd.add_argument("--seed", type=int, default=None, help="Override the RNG seed")
    run_cmd.add_argument(
        "-v", "--verbose", action="store_true", help="Log what the run does (INFO) on stderr"
    )

    sub.add_parser("list-scenarios", help="List the runnable scenario names")
    sub.add_parser("print-defaults", help="Dump every scenario's default options as JSON")
    return parser


@contextlib.contextmanager
def _package_logging(verbose: bool):
    """Show the phasedec logger on stderr: INFO and up with ``verbose``, else WARNING."""
    logger = logging.getLogger("phasedec")
    saved_level = logger.level
    handler = None
    if verbose:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
    logger.setLevel(logging.INFO if verbose else logging.WARNING)
    try:
        yield
    finally:
        if handler is not None:
            logger.removeHandler(handler)
        logger.setLevel(saved_level)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for name in SCENARIO_NAMES:
            print(name)
        return EXIT_OK
    if args.command == "print-defaults":
        print(json.dumps(scenario_defaults(), sort_keys=True, indent=2))
        return EXIT_OK

    # the handler stays installed while the errors are reported, so -v can log a traceback
    with _package_logging(args.verbose):
        try:
            config = load_config(args.config)
            if args.out is not None:
                config.output_dir = args.out
            if args.seed is not None:
                config.seed = args.seed
            if args.hbar is not None:
                config.options["hbar"] = args.hbar
            return run_scenario(config)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, TypeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except MemoryError as exc:
            print(f"error: not enough memory for this config: {exc}", file=sys.stderr)
            return EXIT_RESOURCES
        except Exception as exc:
            print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            logging.getLogger("phasedec").info("traceback of the internal error", exc_info=True)
            return EXIT_INTERNAL

if __name__ == "__main__":
    sys.exit(main())
