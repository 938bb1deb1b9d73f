"""The code-line counter: blank, comment and docstring lines do not count."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts with its code

# a comment line


class Box:
    """Class docstring."""

    def area(self):
        """Function docstring."""
        text = """a string over
two lines"""
        return math.pi * (
            len(text)
        )
'''


def test_counts_only_code_lines():
    # import, class, def, the two-line string, and the three-line return
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["2", "a.py", "1", "b.py", "3", "total"]
