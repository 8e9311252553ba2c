"""The code-line counter in tools/ skips blank lines, comments and
docstrings, and counts every line a statement spans."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # counted


class A:
    """Class docstring."""

    # a comment line

    def f(self, x):
        """Function
        docstring."""
        return math.fsum(
            [x, 1.0]
        )


TEXT = """not a docstring,
two lines"""
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    # import, class, def, the three lines of the return, TEXT's two lines
    assert code_lines.code_lines(path) == 8


def test_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "m.py").write_text(SOURCE)
    (tmp_path / "n.py").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    out = capsys.readouterr().out.split("\n")
    assert [line.split() for line in out if line] == [
        ["8", "m.py"], ["1", "n.py"], ["9", "total"],
    ]
