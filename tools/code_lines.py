"""Count the code lines of the package: no docstrings, comments or blanks.

Usage::

    python tools/code_lines.py [DIR]

Prints one ``lines  module`` row per ``*.py`` file of ``DIR`` (default
``src/steingrad``), then the total.  A line is code when ``tokenize`` finds
a token on it other than a comment, a line break or an indent change, and
it is not inside a docstring: the first statement of a module, class or
function when that statement is a string, found with ``ast``.  A statement
that spans two lines counts two, and so does every line of a multi-line
string that is not a docstring.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python ``source`` text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv):
    folder = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "steingrad"
    total = 0
    for path in sorted(folder.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
