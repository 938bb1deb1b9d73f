"""The unreached-line counter: the executable lines of a package that a run never executes."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "unreached_lines", Path(__file__).resolve().parents[1] / "tools" / "unreached_lines.py"
)
unreached_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(unreached_lines)

TOY = '''"""Module docstring."""


def sign(x):
    """Function docstring."""
    if x < 0:
        return -1
    return 1


def never():
    return 0
'''


def _toy_package(tmp_path):
    package = (tmp_path / "toy").resolve()
    package.mkdir()
    (package / "toy.py").write_text(TOY, encoding="utf-8")
    return package


def _importer(package, *calls):
    """A run that imports the toy module under the collector and calls ``sign`` on each of ``calls``."""

    def run():
        spec = importlib.util.spec_from_file_location("toy", package / "toy.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for x in calls:
            module.sign(x)

    return run


def test_executable_lines_skip_docstrings_and_blanks():
    # the module docstring is stored by a line-1 instruction; the function
    # docstring is a constant of its code object, with no instruction
    assert unreached_lines.executable_lines(TOY, "toy.py") == {1, 4, 6, 7, 8, 11, 12}


def test_lists_the_lines_no_run_reaches(tmp_path):
    # import reaches the module's lines and both def lines; sign(2) skips the
    # negative branch, and never() is never called
    package = _toy_package(tmp_path)
    assert unreached_lines.unreached_lines(package, _importer(package, 2)) == {"toy.py": ([7, 12], 7)}
    assert unreached_lines.unreached_lines(package, _importer(package, 2, -2)) == {"toy.py": ([12], 7)}


def test_a_module_never_imported_is_unreached_throughout(tmp_path):
    package = _toy_package(tmp_path)
    assert unreached_lines.unreached_lines(package, lambda: None) == {"toy.py": ([1, 4, 6, 7, 8, 11, 12], 7)}


def test_ranges_join_consecutive_lines():
    assert unreached_lines.ranges([1, 2, 3, 7, 9, 10]) == "1-3, 7, 9-10"
    assert unreached_lines.ranges([]) == ""
