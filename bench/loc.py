"""Size of the package source, the ROADMAP's design metric.

Usage, from the root of a source checkout:

    python3 bench/loc.py [SRC]

SRC defaults to this checkout's `src/waveforce`. The script prints two
counts for each of SRC's `*.py` files and then their totals: every line
(the `wc -l` count), and the code lines, those that are neither blank,
nor only a comment, nor part of a docstring (the string that opens a
module, class or function body).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree):
    """The line numbers that docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, code lines) of one Python file."""
    text = Path(path).read_text()
    lines = text.splitlines()
    docs = _docstring_lines(ast.parse(text))
    code = sum(1 for n, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and n not in docs)
    return len(lines), code


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "waveforce"
    total = code = 0
    for path in sorted(src.glob("*.py")):
        n, c = count(path)
        print(f"{path.name:<16} {n:>5} lines {c:>5} code lines")
        total, code = total + n, code + c
    print(f"{total} lines (wc -l)")
    print(f"{code} code lines (not blank, comments or docstrings)")


if __name__ == "__main__":
    main()
