"""Quantum states and channels in superoperator and Choi form.

The Choi matrix is unnormalized: J(Phi) = sum_ij |i><j| (x) Phi(|i><j|),
so trace-preserving channels give tr J = d and partial trace over the
second (output) factor equal to the identity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .linalg import (
    as_complex_matrix,
    hermiticity_defect,
    require_square,
    trace_norm,
    vec,
)

DENSITY_ATOL = 1e-10
CP_EIG_TOL = -1e-9
TP_DIAG_TOL = 1e-10


class CPTPWarning(UserWarning):
    """A channel was applied whose multiplier fails the CPTP check."""


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------

def check_density_matrix(rho) -> None:
    """Raise ValueError unless rho is finite, Hermitian, unit trace and PSD within DENSITY_ATOL."""
    m = require_square(rho)
    if not np.isfinite(m).all():
        raise ValueError("density matrix has non-finite entries")
    defect = hermiticity_defect(m)
    if defect > DENSITY_ATOL:
        raise ValueError(f"density matrix not Hermitian: defect {defect:.3e}")
    tr = m.trace()
    if abs(tr - 1.0) > DENSITY_ATOL:
        raise ValueError(f"density matrix trace {tr} differs from 1 "
                         f"by more than {DENSITY_ATOL:.1e}")
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
    if min_eig < -DENSITY_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")


def basis_state(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[index, index] = 1.0
    return rho


def plus_state(n_qubits: int) -> np.ndarray:
    """|+...+><+...+| on n qubits."""
    d = 2 ** n_qubits
    return np.full((d, d), 1.0 / d, dtype=np.complex128)


def maximally_mixed(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128) / dim


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


# ---------------------------------------------------------------------------
# Schur multipliers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurMultiplier:
    """Entrywise multiplier in a fixed eigenbasis: the one channel type.

    eigenbasis holds the eigenvector columns; multiplier holds the d x d
    coefficient matrix applied entrywise to states rotated into that basis.
    Exact twirls hold the law's characteristic function at the eigenvalue
    gaps, sampled channels the empirical one.
    """

    eigenbasis: np.ndarray
    multiplier: np.ndarray

    def __post_init__(self):
        u = require_square(self.eigenbasis)
        m = require_square(self.multiplier)
        if u.shape != m.shape:
            raise ShapeError(f"eigenbasis {u.shape} and multiplier {m.shape} differ in shape")

    @property
    def dim(self) -> int:
        return self.multiplier.shape[0]

    def apply(self, rho) -> np.ndarray:
        """The channel's output on rho; see apply_schur."""
        return apply_schur(self, rho)

    @cached_property
    def choi(self) -> np.ndarray:
        """The d^2 x d^2 Choi matrix, built on first access."""
        return choi_of_schur(self)


@dataclass(frozen=True)
class CPTPReport:
    is_cp: bool
    is_tp: bool
    min_eigenvalue: float
    max_diag_deviation: float


def cptp_check(mat) -> CPTPReport:
    """Complete positivity and trace preservation of an entrywise multiplier.

    CP holds iff the multiplier matrix is PSD; TP holds iff its diagonal is
    all ones. The minimum eigenvalue is taken of the Hermitian part, and a
    symmetry defect beyond |CP_EIG_TOL| also disqualifies CP. A multiplier
    with a non-finite entry is neither, with NaN for both measures. A real
    multiplier, as every symmetric law gives, is checked in real arithmetic:
    the same defect and diagonal, and the same spectrum to rounding.
    """
    mat = require_square(mat)
    if not np.isfinite(mat).all():
        return CPTPReport(is_cp=False, is_tp=False, min_eigenvalue=math.nan,
                          max_diag_deviation=math.nan)
    if not mat.imag.any():
        mat = mat.real
    adj = mat.conj().T
    defect = float(np.abs(mat - adj).max())  # hermiticity_defect, sharing the adjoint
    min_eig = float(np.linalg.eigvalsh((mat + adj) / 2.0).min())
    max_diag = float(np.abs(np.diag(mat) - 1.0).max())
    is_cp = min_eig >= CP_EIG_TOL and defect <= abs(CP_EIG_TOL)
    return CPTPReport(is_cp=is_cp, is_tp=max_diag <= TP_DIAG_TOL,
                      min_eigenvalue=min_eig, max_diag_deviation=max_diag)


def apply_schur(m: SchurMultiplier, rho) -> np.ndarray:
    """Apply the entrywise multiplier channel: U (M * (U^dag rho U)) U^dag.

    A multiplier failing the CPTP check raises a CPTPWarning but the result
    is still returned, so deliberately broken channels remain inspectable.
    """
    rho = require_square(rho)
    if rho.shape != m.multiplier.shape:
        raise ShapeError(f"state shape {rho.shape} does not match multiplier {m.multiplier.shape}")
    report = cptp_check(m.multiplier)
    if not (report.is_cp and report.is_tp):
        warnings.warn(
            f"multiplier fails CPTP check (cp={report.is_cp}, tp={report.is_tp}); "
            "applying anyway", CPTPWarning, stacklevel=2)
    if (m.multiplier == 1.0).all():
        # identity channel: skip the basis rotations so the state is untouched
        return rho.copy()
    u = m.eigenbasis
    u_adj = u.conj().T
    return u @ (m.multiplier * (u_adj @ rho @ u)) @ u_adj


# ---------------------------------------------------------------------------
# superoperators and Choi matrices
# ---------------------------------------------------------------------------

def superoperator_of_schur(m: SchurMultiplier) -> np.ndarray:
    u = m.eigenbasis
    w = np.kron(u, u.conj())
    return (w * vec(m.multiplier)) @ w.conj().T


def choi_of_superoperator(s) -> np.ndarray:
    """Unnormalized Choi matrix by index reordering: J[i d + a, j d + b] = s[a d + b, i d + j]."""
    s = require_square(s)
    d2 = s.shape[0]
    d = int(round(d2 ** 0.5))
    if d * d != d2:
        raise ShapeError(f"superoperator dimension {d2} is not a perfect square")
    return s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d2, d2)


def choi_of_schur(m: SchurMultiplier) -> np.ndarray:
    """Choi matrix W M W^dag of a multiplier channel, with columns W[:, p] = conj(v_p) (x) v_p.

    Equals choi_of_superoperator(superoperator_of_schur(m)). W is an isometry,
    so the Choi trace distance between two multipliers in one eigenbasis is
    the trace norm of their d x d difference.
    """
    v = m.eigenbasis
    d = m.dim
    w = np.einsum("ip,ap->iap", v.conj(), v).reshape(d * d, d)
    return w @ m.multiplier @ w.conj().T


def _choi_blocks(choi, d: int) -> np.ndarray:
    """A d^2 x d^2 Choi matrix as its (d, d, d, d) view J[i, a, j, b] = <i a|J|j b>."""
    j = as_complex_matrix(choi)
    if j.shape != (d * d, d * d):
        raise ShapeError(f"Choi shape {j.shape} does not match dimension {d}")
    return j.reshape(d, d, d, d)


def apply_choi(choi, rho) -> np.ndarray:
    """Evaluate the channel encoded by an unnormalized Choi matrix on rho."""
    rho = require_square(rho)
    blocks = _choi_blocks(choi, rho.shape[0])
    return np.einsum("ij,iajb->ab", rho, blocks)


@dataclass(frozen=True)
class ChoiReport:
    is_psd: bool
    min_eigenvalue: float
    trace: complex
    tp_deviation: float


def check_choi(choi, d: int) -> ChoiReport:
    blocks = _choi_blocks(choi, d)
    j = blocks.reshape(d * d, d * d)
    min_eig = float(np.linalg.eigvalsh((j + j.conj().T) / 2.0).min())
    tp_dev = float(np.abs(np.einsum("iaja->ij", blocks) - np.eye(d)).max())
    return ChoiReport(is_psd=min_eig >= CP_EIG_TOL, min_eigenvalue=min_eig,
                      trace=complex(j.trace()), tp_deviation=tp_dev)


def choi_trace_distance(a, b) -> float:
    """Trace norm of the difference of two Choi matrices.

    This is a computable surrogate for the diamond distance: dividing it by d
    lower-bounds the diamond norm, which in turn is at most this value.
    """
    return trace_norm(as_complex_matrix(a) - as_complex_matrix(b))

