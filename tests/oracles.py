"""Reference routes that only the tests call.

Most work on a d^2 x d^2 object that the package itself never needs: the
superoperator action, the joint-generator exponential for commuting jumps,
the output partial trace of a Choi matrix, and the Choi matrix of an exact
twirl assembled through its superoperator. compound_poisson_kicks draws one
compound Poisson shot on its own, the per-shot reference for the estimator's
batched draws. matrix_text_by_entry formats a matrix file one entry at a
time, the reference for matrix_to_text's row formats. pauli_matrix_by_kron
adds up a Pauli sum through each word's dense kron chain, the reference for
parse_pauli_sum's signed-permutation scatter.
"""

from functools import reduce

import numpy as np

from twirlsim import (
    choi_of_superoperator,
    dissipator_matrix,
    exact_channel,
    superoperator_of_schur,
    unvec,
    vec,
)
from twirlsim.distributions import BaseLaw, sample_law
from twirlsim.errors import ShapeError
from twirlsim.linalg import as_complex_matrix, as_operator, require_square
from twirlsim.matio import format_float
from twirlsim.sampling import MAX_SAMPLED_RATE
from twirlsim.twirling import _require_time


def apply_superoperator(s, rho) -> np.ndarray:
    rho = require_square(rho)
    d = rho.shape[0]
    s = as_complex_matrix(s)
    if s.shape != (d * d, d * d):
        raise ShapeError(f"superoperator shape {s.shape} does not match dimension {d}")
    return unvec(s @ vec(rho), d)


def commuting_generator_oracle(hams, rho, t: float) -> np.ndarray:
    """exp(t sum_k L_k) rho via the joint generator sum_k (-K_k^2 / 2)."""
    t = _require_time(t)
    rho = require_square(rho)
    ops = [as_operator(h) for h in hams]
    if not ops:
        return rho.copy()
    d = ops[0].dim
    gen = np.zeros((d * d, d * d), dtype=np.complex128)
    for op in ops:
        k = dissipator_matrix(op)
        gen -= 0.5 * (k @ k)
    w, v = np.linalg.eigh(gen)
    out = v @ (np.exp(t * w) * (v.conj().T @ vec(rho)))
    return unvec(out, d)


def partial_trace_output(choi, d: int) -> np.ndarray:
    """Trace out the second (output) tensor factor of an unnormalized Choi matrix."""
    j = as_complex_matrix(choi)
    if j.shape != (d * d, d * d):
        raise ShapeError(f"Choi shape {j.shape} does not match dimension {d}")
    return np.einsum("iaja->ij", j.reshape(d, d, d, d))


def choi_of(h, dist) -> np.ndarray:
    """Choi matrix of the exact twirl of h by dist, through its superoperator."""
    return choi_of_superoperator(superoperator_of_schur(exact_channel(h, dist)))


def compound_poisson_kicks(rate_time: float, base: BaseLaw,
                           rng: np.random.Generator) -> np.ndarray:
    """The individual jumps of one compound Poisson draw; the caller validates the law."""
    if rate_time > MAX_SAMPLED_RATE:
        raise ValueError(f"rate {rate_time} too large to sample (at most {MAX_SAMPLED_RATE:g})")
    n = int(rng.poisson(rate_time))
    return np.asarray(sample_law(base, rng, size=n), dtype=np.float64)


def format_complex(z: complex) -> str:
    """One matrix-file entry re+imj: each part by format_float, a + only if im has no sign."""
    z = complex(z)
    re = format_float(z.real)
    im = format_float(z.imag)
    sign = "" if im.startswith("-") else "+"
    return f"{re}{sign}{im}j"


def matrix_text_by_entry(m) -> str:
    mat = as_complex_matrix(m)
    rows, cols = mat.shape
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(format_complex(mat[r, c]) for c in range(cols)))
    return "\n".join(lines) + "\n"


PAULI_MATRICES = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_matrix_by_kron(terms, width: int) -> np.ndarray:
    """sum of coeff * (kron of the 2 x 2 letter matrices) over (coeff, word) terms, in order."""
    total = np.zeros((2 ** width, 2 ** width), dtype=np.complex128)
    for coeff, word in terms:
        total += coeff * reduce(np.kron, (PAULI_MATRICES[c] for c in word))
    return total
