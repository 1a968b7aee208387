"""``tools/code_lines.py`` counts code lines: no docstrings, comments or blanks."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "tools"))
from code_lines import code_lines, main  # noqa: E402

FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line

# a comment line


def f(x):
    """Function docstring."""
    total = (x +
             math.pi)
    return total
'''


def test_counts_a_small_fixture():
    # code: the import, def, the two lines of the sum and the return
    assert code_lines(FIXTURE) == 5


def test_a_string_that_is_not_a_docstring_counts():
    assert code_lines('x = 1\ny = """a\nb"""\n') == 3


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert main(["code_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["5", "a.py"], ["1", "b.py"], ["6", "total"]]
