"""Dense complex linear algebra with fixed conventions.

Conventions used throughout the package:
  * vec stacks rows: vec(|i><j|) = e_{i*d + j}, so (A (x) B) vec(R) = vec(A R B^T).
  * eig_hermitian returns (eigenvalues, eigenvectors): eigenvalues in ascending
    order, eigenvector columns with a deterministic phase (largest-magnitude
    component made real and positive). HermitianOperator, the one Hermitian
    type, keeps both and builds functions of the matrix, exp(-iHs) among them.
"""

from __future__ import annotations

import numpy as np

from .errors import HermiticityError, ShapeError

HERMITICITY_RTOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def require_square(a) -> np.ndarray:
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dagger| of a square array, in its own arithmetic."""
    return float(np.abs(m - m.conj().T).max())


def _canonical_phases(vectors: np.ndarray) -> np.ndarray:
    # rotate each column so its largest-magnitude entry is real positive;
    # ties inside degenerate clusters then resolve the same way on every run.
    # Each phase takes the scalar abs of its pivot: numpy's abs over the whole
    # pivot array can differ from it in the last bit
    phases = np.ones(vectors.shape[1], dtype=np.complex128)
    for col, row in enumerate(np.argmax(np.abs(vectors), axis=0)):
        pivot = vectors[row, col]
        mag = abs(pivot)
        if mag > 0.0:
            phases[col] = pivot.conjugate() / mag
    return vectors * phases


def eig_hermitian(a) -> tuple[np.ndarray, np.ndarray]:
    """Ascending real eigenvalues and orthonormal eigenvector columns of a Hermitian matrix.

    Raises ShapeError for non-square input, and HermiticityError for a
    non-finite entry, when the symmetry defect exceeds HERMITICITY_RTOL
    relative to the largest entry, or when an eigenvalue overflows.
    """
    m = require_square(a)
    largest = float(np.abs(m).max())
    if not np.isfinite(largest):
        raise HermiticityError("matrix has a non-finite entry")
    scale = max(1.0, largest)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_RTOL * scale:
        raise HermiticityError(f"matrix is not Hermitian: defect {defect:.3e} "
                               f"exceeds {HERMITICITY_RTOL:.1e} * {scale:.3e}")
    w, v = np.linalg.eigh(m)
    if not np.isfinite(w).all():
        raise HermiticityError("an eigenvalue overflows")
    return w, _canonical_phases(v)


class HermitianOperator:
    """A Hermitian matrix together with its eigenvalues and eigenvectors.

    Treated as immutable after construction; the decomposition is computed
    once and reused for every channel and unitary built from it.
    """

    def __init__(self, matrix):
        self.matrix = as_complex_matrix(matrix)
        self.eigenvalues, self.eigenvectors = eig_hermitian(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def function_of(self, values) -> np.ndarray:
        """Assemble V diag(values) V^dagger for per-eigenvalue values.

        values has shape (..., d); a leading axis gives a stack of matrices.
        """
        v = self.eigenvectors
        return (v * np.asarray(values)[..., None, :]) @ v.conj().T

    def unitary_at(self, s) -> np.ndarray:
        """exp(-i H s) assembled from the cached decomposition.

        An array of times gives the stack of unitaries, one per time.
        """
        return self.function_of(np.exp(-1j * self.eigenvalues * np.asarray(s)[..., None]))

    def gaps(self) -> np.ndarray:
        """Matrix of eigenvalue differences lambda_j - lambda_k."""
        lam = self.eigenvalues
        return lam[:, None] - lam[None, :]


def as_operator(h) -> HermitianOperator:
    """h itself if it is a HermitianOperator, else one built from the matrix h."""
    return h if isinstance(h, HermitianOperator) else HermitianOperator(h)


def vec(b) -> np.ndarray:
    """Row-major stacking of a matrix into a vector."""
    return as_complex_matrix(b).reshape(-1)


def unvec(v, d: int) -> np.ndarray:
    """Inverse of vec for a d x d matrix."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] != d * d:
        raise ShapeError(f"expected a vector of length {d * d}, got shape {arr.shape}")
    return arr.reshape(d, d)


def trace_norm(a) -> float:
    """Sum of singular values (Schatten 1-norm) of a square matrix."""
    m = require_square(a)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to spectral norm `scale`."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    norm = np.linalg.svd(h, compute_uv=False).max()  # the spectral norm, as norm(h, 2) takes it
    return h * (scale / norm) if norm > 0 else h
