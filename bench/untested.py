"""Statements of the package that no Tier-1 test runs.

Usage, from the root of a source checkout:

    python3 bench/untested.py

The script runs the Tier-1 suite (`pytest -q tests`) in this process under
`sys.settrace`, records every line of `src/waveforce` that a test runs,
and prints `file:line: statement` for each statement none of them ran,
then the count. A statement counts as run when a line event fires on any
line of its head: the whole of a simple statement, or a compound one up
to its body (the `if` test, the `for` target and iterable, and so on), its
decorators included. Docstrings run no code and module-level imports run
whenever their module is loaded, so neither is listed. Code that runs
only in a process of its own, such as `python -m waveforce`, which some
tests start, is not traced, and shows up here. The suite's outcome is
printed as pytest prints it; the listing reads the same whether or not a
test fails. The exit status is 1 when the listing holds any statement
but a process-only entry line, `sys.exit(main())`, and 0 otherwise, so
"no dead code in src/" is a command that fails. Tracing makes the suite
about a fifth slower.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from loc import _docstring_lines  # bench/loc.py, beside this script

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "waveforce"

#: the entry line of `python -m waveforce` and `python -m waveforce.cli`,
#: which runs only in a process of its own
_PROCESS_ONLY = "sys.exit(main())"


def _heads(path):
    """(first line, lines of its head) of each statement of one file that
    the listing covers, in line order."""
    tree = ast.parse(path.read_text())
    docs = _docstring_lines(tree)
    imports = {s for s in tree.body if isinstance(s, (ast.Import, ast.ImportFrom))}
    heads = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in imports or node.lineno in docs:
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        heads.append((node.lineno, set(range(first, max(last, node.lineno) + 1))))
    return sorted(heads, key=lambda head: head[0])


def main():
    ran = {}  # file name -> the line numbers a test ran

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(str(SRC)):
            return None
        ran.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--tb=no", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    untested = []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        seen = ran.get(str(path), set())
        for lineno, head in _heads(path):
            if not head & seen:
                untested.append(lines[lineno - 1].strip())
                print(f"{path.relative_to(ROOT)}:{lineno}: {untested[-1]}")
    stray = sum(text != _PROCESS_ONLY for text in untested)
    print(f"{len(untested)} statements untested, {stray} of them not a process-only "
          f"{_PROCESS_ONLY} (pytest exit status {int(status)})")
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
