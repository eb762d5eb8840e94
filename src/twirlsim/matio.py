"""Dense complex matrix text format.

First line: "d d". Then d rows of d whitespace-separated entries, each
written as re+imj (no spaces inside an entry) with 17 significant digits,
which round-trips every finite double exactly; a row is one %-format string
with the bytes of formatting each entry alone. Example for the identity:

    2 2
    1+0j 0+0j
    0+0j 1+0j
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ParseError
from .linalg import as_complex_matrix


def format_float(x: float) -> str:
    """17-significant-digit decimal text; exact on read-back."""
    return format(float(x), ".17g")


def matrix_to_text(m) -> str:
    """The file text of m, one "%.17g%+.17gj ..." format per row: format_float's bytes for
    each part, with the + flag writing the imaginary part's sign (of -0 and NaN too)."""
    mat = as_complex_matrix(m)
    row_format = " ".join(["%.17g%+.17gj"] * mat.shape[1])
    # re and im interleaved; tolist() one row at a time keeps the peak low
    rows = [row_format % tuple(row.tolist()) for row in np.ascontiguousarray(mat).view(np.float64)]
    return "\n".join([f"{mat.shape[0]} {mat.shape[1]}", *rows]) + "\n"


def write_matrix(path, m) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(matrix_to_text(m))


def parse_matrix_text(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"header must be 'rows cols', found {len(header)} fields", 1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"header fields must be integers, got {lines[0]!r}", 1) from None
    if rows <= 0 or cols <= 0:
        raise ParseError(f"matrix dimensions must be positive, got {rows} x {cols}", 1)
    body = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != rows:
        raise ParseError(f"expected {rows} data rows, found {len(body)}")
    parsed = []
    for line_no, line in body:
        fields = line.split()
        if len(fields) != cols:
            raise ParseError(f"expected {cols} entries, found {len(fields)}", line_no)
        values = []
        for c, token in enumerate(fields):
            try:
                value = complex(token)
            except ValueError:
                raise ParseError(f"entry {token!r} is not a complex number",
                                 line_no, c + 1) from None
            if not cmath.isfinite(value):
                raise ParseError(f"entry {token!r} is not finite", line_no, c + 1)
            values.append(value)
        parsed.append(values)
    # built only now, so the header's size is never allocated before the body holds it
    return np.array(parsed, dtype=np.complex128)


def read_matrix(path) -> np.ndarray:
    with open(path, "r") as fh:
        return parse_matrix_text(fh.read())
