"""Twirling channels: averages of exp(-iHs) rho exp(iHs) over a law on s.

Every such average is a Schur (entrywise) multiplier channel in the
eigenbasis of H, with entry (j, k) equal to char_minus of the law at the
eigenvalue gap lambda_j - lambda_k. The Gaussian case with variance t equals
exp(tL) for the single-jump generator L(rho) = H rho H - (H^2 rho + rho H^2)/2,
which this module also exponentiates directly through a vectorized oracle
for cross-checking.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channels import SchurMultiplier
from .distributions import DistributionSpec, Gaussian, char_minus
from .errors import CommutationError
from .linalg import as_operator, kron, require_square, unvec, vec

COMMUTATION_TOL = 1e-10  # spectral norm of a commutator taken as zero
HS_QUADRATURE_NODES = 64


def schur_multiplier_for(h, dist: DistributionSpec) -> SchurMultiplier:
    """Multiplier of the twirl by dist in the eigenbasis of h."""
    op = as_operator(h)
    return SchurMultiplier(op.eigenvectors, char_minus(dist, op.gaps()))


def exact_channel(h, dist: DistributionSpec) -> SchurMultiplier:
    """The exact twirl of h by dist; the same multiplier as schur_multiplier_for."""
    return schur_multiplier_for(h, dist)


def _require_time(t: float) -> float:
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    return t


def gaussian_evolution(h, rho, t: float) -> np.ndarray:
    """exp(tL) rho for the single-jump generator, via the Gaussian twirl."""
    t = _require_time(t)
    return exact_channel(h, Gaussian(variance=t)).apply(rho)


def dissipator_matrix(h) -> np.ndarray:
    """K = H (x) I - I (x) H^T, so that vec(H rho H - {rho, H^2}/2) = -K^2/2 vec(rho)."""
    op = as_operator(h)
    eye = np.eye(op.dim)
    return kron(op.matrix, eye) - kron(eye, op.matrix.T)


def vectorized_oracle(h, rho, t: float) -> np.ndarray:
    """exp(-K^2 t / 2) applied to vec(rho), by eigendecomposition of K.

    Independent route to the same map as gaussian_evolution; kept separate so
    the two can be compared.
    """
    t = _require_time(t)
    rho = require_square(rho)
    op = as_operator(h)
    k = dissipator_matrix(op)
    w, v = np.linalg.eigh(k)
    factors = np.exp(-0.5 * t * w ** 2)
    out = v @ (factors * (v.conj().T @ vec(rho)))
    return unvec(out, op.dim)


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


def sequential_choi_commuting(hams, rho, t: float) -> np.ndarray:
    """Apply the Gaussian twirl for each Hamiltonian in turn.

    All pairs must commute (spectral norm of the commutator within
    COMMUTATION_TOL); otherwise CommutationError names the offending pair.
    For commuting jumps the result equals the joint-generator exponential.
    """
    ops = [as_operator(h) for h in hams]
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            comm = ops[a].matrix @ ops[b].matrix - ops[b].matrix @ ops[a].matrix
            norm = float(np.linalg.norm(comm, 2))
            if norm > COMMUTATION_TOL:
                raise CommutationError(a, b, norm)
    out = require_square(rho)
    for op in ops:
        out = gaussian_evolution(op, out, t)
    return out


def hs_quadrature_check(h, t: float) -> float:
    """Largest entrywise deviation of the Gauss-Hermite average of exp(-iHs)
    under the N(0, t) weight from exp(-H^2 t / 2).

    Checks the Gaussian-average identity that underlies the twirl: the two
    sides are assembled independently (node-by-node unitaries vs. a single
    spectral exponential).
    """
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"time must be > 0, got {t}")
    op = as_operator(h)
    x, w = hermgauss(HS_QUADRATURE_NODES)
    scale = math.sqrt(2.0 * t)
    acc = np.zeros((op.dim, op.dim), dtype=np.complex128)
    for xi, wi in zip(x, w):
        acc += wi * op.unitary_at(scale * xi)
    acc /= math.sqrt(math.pi)
    target = op.spectral.function_of(np.exp(-0.5 * t * op.eigenvalues ** 2))
    return float(np.abs(acc - target).max())

