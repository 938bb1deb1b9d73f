"""Executable lines of ``src/phasedec`` that no default run reaches.

Runs ``list-scenarios``, ``print-defaults`` and the six scenarios at their
defaults through ``phasedec.cli.main`` in one process, with their outputs
in a temporary directory, under a ``sys.settrace`` line collector. Then it
prints, per module, how many executable lines none of them ran and which,
and the totals. A line is executable when a compiled code object of the
module lists it in its line table (``co_lines``), as the interpreter
counts lines; that is not ``tools/code_lines.py``'s count. The package is
imported under the collector, so its module-level lines count as reached.

Run from anywhere: ``python3 tools/unreached_lines.py [src_dir]``.
"""

import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

SCENARIOS = ("moyal-convergence", "wigner-negativity", "pairing-equivalence",
             "decoherence-lorentzian", "decoherence-polefree", "limit-positivity")


def executable_lines(source: str, filename: str) -> set[int]:
    """Every line that some code object compiled from ``source`` lists in its line table."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # the module's RESUME is line 0
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def reached_lines(package: Path, run) -> dict[str, set[int]]:
    """The lines of each module file under ``package`` that ``run()`` executes, by file path."""
    prefix = str(package.resolve()) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)  # the def line, where the call resumes
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def unreached_lines(package: Path, run) -> dict[str, tuple[list[int], int]]:
    """Per module file name: the sorted executable lines ``run()`` leaves unreached, and the executable count."""
    hits = reached_lines(package, run)
    unreached = {}
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path.read_text(encoding="utf-8"), str(path.resolve()))
        unreached[path.name] = sorted(lines - hits.get(str(path.resolve()), set())), len(lines)
    return unreached


def ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def run_defaults(out: Path):
    """A callable that runs the two listings and the six defaults through ``phasedec.cli.main``."""

    def run():
        from phasedec.cli import main  # imported under the collector

        with contextlib.redirect_stdout(io.StringIO()):
            status = [main(["list-scenarios"]), main(["print-defaults"])]
            for name in SCENARIOS:
                config = out / f"{name}.json"
                config.write_text(f'{{"scenario": "{name}"}}', encoding="utf-8")
                status.append(main(["run", "--config", str(config), "--out", str(out / name)]))
        if any(status):
            raise SystemExit(f"a default run exited with {status}")

    return run


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = (Path(args[0]) if args else Path(__file__).parents[1] / "src").resolve()
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as out:
        unreached = unreached_lines(src / "phasedec", run_defaults(Path(out)))
    total = executable = 0
    for name, (lines, count) in unreached.items():
        total, executable = total + len(lines), executable + count
        print(f"{len(lines):5d} of {count:4d}  {name}" + (f": {ranges(lines)}" if lines else ""))
    print(f"{total:5d} of {executable:4d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
