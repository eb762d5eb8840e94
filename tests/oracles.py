"""Reference routes that only the tests call.

Most work on a d^2 x d^2 object that the package itself never needs: the
superoperator action, the joint-generator exponential for commuting jumps,
the output partial trace of a Choi matrix, and the Choi matrix of an exact
twirl assembled through its superoperator. compound_poisson_kicks draws one
compound Poisson shot on its own, the per-shot reference for the estimator's
batched draws. matrix_text_by_entry formats a matrix file one entry at a
time, the reference for matrix_to_text's row formats. pauli_matrix_by_kron
adds up a Pauli sum through each word's dense kron chain, the reference for
parse_pauli_sum's signed-permutation scatter. truncated_char_rule_by_every_node
takes one cosine per quadrature node as one matrix-vector product, the
reference for char_minus's truncated-Gaussian half rule, summed one node pair
at a time, and cptp_check_complex checks a multiplier in complex arithmetic
with its verdict read from the spectrum, the reference for cptp_check's real
path and for its factorisation verdict.
dissipator_matrix_by_kron, random_hermitian_by_norm and canonical_phases_by_column
are the dissipator's two kron calls, random_hermitian's norm(h, 2) and the
eigenvector phases applied one column at a time, the references for their
broadcast and direct-svd forms. apply_choi_by_einsum contracts rho with the
Choi blocks in one four-index einsum, the reference for apply_choi's
row-times-block products. multiplier_by_gaps evaluates a law's
characteristic function on the d x d gap matrix, the reference for the
Gram-product multipliers of the truncated Gaussian, Dirac and mixture laws.
"""

import math
from functools import reduce

import numpy as np

from twirlsim import (
    CPTPReport,
    choi_of_superoperator,
    dissipator_matrix,
    exact_channel,
    superoperator_of_schur,
    unvec,
    vec,
)
from twirlsim.channels import CP_EIG_TOL, TP_DIAG_TOL, _choi_blocks
from twirlsim.distributions import (
    TRUNCATED_CHAR_NODES,
    BaseLaw,
    _gl_nodes,
    char_minus,
    sample_law,
)
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


def apply_choi_by_einsum(choi, rho) -> np.ndarray:
    """out[a, b] = sum_ij rho[i, j] J[i d + a, j d + b] as one einsum over the (d, d, d, d) view."""
    rho = require_square(rho)
    return np.einsum("ij,iajb->ab", rho, _choi_blocks(choi, rho.shape[0]))


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


def truncated_char_rule_by_every_node(variance: float, width: float,
                                      freqs: np.ndarray) -> np.ndarray:
    """The truncated-Gaussian quadrature rule with one cosine per node and frequency."""
    nodes, weights = _gl_nodes(TRUNCATED_CHAR_NODES)
    s = nodes * width
    density_weights = weights * np.exp(-0.5 * s ** 2 / variance)
    sums = np.cos(np.multiply.outer(freqs, s)) @ density_weights
    return sums / sums[0]


def cptp_check_complex(mat) -> CPTPReport:
    """cptp_check with the defect, the Hermitian part and its spectrum in complex arithmetic.

    The verdict is read from the smallest eigenvalue, the reference for
    cptp_check's factorisation; the report holds the same Hermitian part, so
    its min_eigenvalue is that eigenvalue.
    """
    mat = require_square(mat)
    if not np.isfinite(mat).all():
        return CPTPReport(is_cp=False, is_tp=False, max_diag_deviation=math.nan)
    defect = float(np.abs(mat - mat.conj().T).max())
    herm = (mat + mat.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(herm).min())
    max_diag = float(np.abs(np.diag(mat) - 1.0).max())
    is_cp = min_eig >= CP_EIG_TOL and defect <= abs(CP_EIG_TOL)
    return CPTPReport(is_cp=is_cp, is_tp=max_diag <= TP_DIAG_TOL,
                      max_diag_deviation=max_diag, hermitian_part=herm)


def dissipator_matrix_by_kron(h) -> np.ndarray:
    """K = H (x) I - I (x) H^T through two np.kron calls."""
    op = as_operator(h)
    eye = np.eye(op.dim)
    return np.kron(op.matrix, eye) - np.kron(eye, op.matrix.T)


def random_hermitian_by_norm(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """random_hermitian with its spectral norm taken by np.linalg.norm(h, 2)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    norm = np.linalg.norm(h, 2)
    return h * (scale / norm) if norm > 0 else h


def canonical_phases_by_column(vectors: np.ndarray) -> np.ndarray:
    """Each column rotated in place so its largest-magnitude entry is real positive."""
    out = np.array(vectors, copy=True)
    pivot_rows = np.argmax(np.abs(out), axis=0)
    for col, row in enumerate(pivot_rows):
        pivot = out[row, col]
        mag = abs(pivot)
        if mag > 0.0:
            out[:, col] *= pivot.conjugate() / mag
    return out


def multiplier_by_gaps(dist, eigenvalues) -> np.ndarray:
    """char_minus(dist, gaps) at the gap matrix lambda_j - lambda_k, one call on all d^2 gaps."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    return char_minus(dist, lam[:, None] - lam[None, :])
