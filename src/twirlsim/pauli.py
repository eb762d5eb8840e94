"""Pauli-sum text format.

Each non-comment line is "<real coefficient> <word over IXYZ>", for example

    # transverse field
    1.0  ZZ
    0.5  XI

All words must have the same length n; the result is the dense 2^n x 2^n
Hermitian matrix of the sum.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import ParseError
from .linalg import HermitianOperator

PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_word_matrix(word: str) -> np.ndarray:
    return reduce(np.kron, (PAULI_MATRICES[c] for c in word))


def parse_pauli_sum(text, qubits: int | None = None) -> HermitianOperator:
    """Parse Pauli-sum text (a string or an iterable of lines).

    Raises ParseError with the line (and column, for bad characters) of the
    first offending token. Coefficients must parse as finite real numbers.
    When qubits is given, the word length must equal it; that is checked
    before any matrix is built.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = list(text)
    terms: list[tuple[float, str]] = []
    width: int | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(
                f"expected '<coefficient> <pauli word>', found {len(fields)} fields", lineno)
        coeff_text, word = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise ParseError(f"coefficient {coeff_text!r} is not a real number",
                             lineno) from None
        if not math.isfinite(coeff):
            raise ParseError(f"coefficient {coeff_text!r} is not finite", lineno)
        for offset, ch in enumerate(word):
            if ch not in PAULI_MATRICES:
                column = raw.index(word) + offset + 1
                raise ParseError(f"invalid Pauli letter {ch!r}", lineno, column)
        if width is None:
            width = len(word)
        elif len(word) != width:
            raise ParseError(
                f"pauli word length {len(word)} does not match earlier length {width}", lineno)
        terms.append((coeff, word))
    if not terms:
        raise ParseError("no terms found")
    if qubits is not None and width != qubits:
        raise ParseError(f"parsed dimension {2 ** width} does not match "
                         f"system dimension {2 ** qubits}")
    dim = 2 ** width
    total = np.zeros((dim, dim), dtype=np.complex128)
    for coeff, word in terms:
        total += coeff * pauli_word_matrix(word)
    return HermitianOperator(total)
