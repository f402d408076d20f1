"""CSV reading and writing with reproducible formatting.

Numbers are written as the shortest decimal string that round-trips the
64-bit float exactly (Python's repr), '.' as decimal separator, LF line
endings. Identical data therefore always produces byte-identical files.
_write is the one writer of every file the package makes, the command
line's manifest and timings file included: it writes the whole file in
one call and makes the file's missing directory first.

Three layouts:
  series - one value per line, no header (flux measurements, profiles)
  matrix - comma-separated rows, no header (fields, system matrices)
  rows   - one header line, then comma-separated records (tables, metrics)
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DimensionMismatch
from .model import _checked_array


def fmt(x) -> str:
    """Shortest exact decimal representation of a 64-bit float."""
    return repr(float(x))


def _write(path, text):
    """Write a whole file in one call, LF line endings, after making its
    missing directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_series(path, values):
    """One value per line, order preserved, no header."""
    # tolist() gives Python floats, whose repr is fmt's
    _write(path, "".join(f"{v!r}\n" for v in _checked_array(values, "series").tolist()))


def _rows(path, width=None):
    """The numbers of each non-blank line of a data file, `width` of them
    per line when given, else DimensionMismatch naming the file and line."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise DimensionMismatch(f"{path} line {lineno}: not a number in "
                                        f"{line.strip()!r}") from None
            if width is not None and len(rows[-1]) != width:
                raise DimensionMismatch(f"{path} line {lineno}: {len(rows[-1])} values, "
                                        f"expected {width}")
    return rows


def read_series(path) -> np.ndarray:
    """Read a one-value-per-line file; blank lines are ignored."""
    return _checked_array([v for v, in _rows(path, 1)], f"series file {path}")


def write_matrix(path, values):
    """Comma-separated rows, no header."""
    _write(path, "".join(",".join(map(repr, row)) + "\n"
                         for row in _checked_array(values, "matrix", ndim=2).tolist()))


def read_matrix(path) -> np.ndarray:
    """Read a headerless comma-separated numeric file; blank lines are ignored."""
    return _checked_array(_rows(path), f"matrix file {path}", ndim=2)


def write_rows(path, header, rows):
    """Header line, then one comma-separated record per row.

    Cells that are strings pass through verbatim; everything else is
    formatted as a float.
    """
    lines = [",".join(header)]
    lines += [",".join([c if isinstance(c, str) else fmt(c) for c in row]) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def read_rows(path):
    """Read a headered CSV; returns (header, list of string-cell rows)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]
