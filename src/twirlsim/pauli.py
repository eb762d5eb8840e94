"""Pauli-sum text format.

Each non-comment line is "<real coefficient> <word over IXYZ>", for example

    # transverse field
    1.0  ZZ
    0.5  XI

All words must have the same length n; the result is the dense 2^n x 2^n
Hermitian matrix of the sum, built by scattering: a word is the signed
permutation |b> -> i^#Y (-1)^popcount(b & z) |b ^ x>, where x marks its X and
Y letters and z its Y and Z letters. Terms x 2^n is capped at MAX_PAULI_WORK.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import ParseError
from .linalg import HermitianOperator

MAX_PAULI_WORK = 2 ** 24  # terms x 2^n scattered entries: 16384 terms at 10 qubits
PAULI_SIGNS = {c: np.array([1, -1 if c in "YZ" else 1]) for c in "IXYZ"}  # on |0>, |1>
PAULI_FLIPS = str.maketrans("IXYZ", "0110")  # X and Y flip the bit


def parse_pauli_sum(text, qubits: int | None = None) -> HermitianOperator:
    """Parse Pauli-sum text (a string or an iterable of lines).

    Raises ParseError with the line (and column, for bad characters) of the
    first offending token. Coefficients must parse as finite real numbers.
    When qubits is given, the word length must equal it. That check and the
    MAX_PAULI_WORK cap both run before anything is allocated.
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
            if ch not in PAULI_SIGNS:
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
    if len(terms) << width > MAX_PAULI_WORK:
        raise ParseError(f"terms x 2^qubits is {len(terms)} x 2^{width}, more than the cap "
                         f"of {MAX_PAULI_WORK}")
    basis = np.arange(2 ** width)
    total = np.zeros((basis.size, basis.size), dtype=np.complex128)
    for coeff, word in terms:
        signs = reduce(np.multiply.outer, [PAULI_SIGNS[c] for c in word]).ravel()
        flipped = basis ^ int(word.translate(PAULI_FLIPS), 2)
        total[flipped, basis] += coeff * 1j ** word.count("Y") * signs
    return HermitianOperator(total)
