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
from functools import cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channels import SchurMultiplier
# char_minus is unused here but stays bound: perfbench's tracer tests read twirling.char_minus
from .distributions import DistributionSpec, Gaussian, char_minus, multiplier  # noqa: F401
from .errors import CommutationError
from .linalg import as_operator, require_square, unvec, vec

COMMUTATION_TOL = 1e-10  # spectral norm of a commutator taken as zero
HS_QUADRATURE_NODES = 64
_hermite_rule = cache(hermgauss)  # nodes and weights, built once per node count


def schur_multiplier_for(h, dist: DistributionSpec) -> SchurMultiplier:
    """Multiplier of the twirl by dist in the eigenbasis of h."""
    op = as_operator(h)
    return SchurMultiplier(op.eigenvectors, multiplier(dist, op.eigenvalues))


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
    d = op.dim
    eye = np.eye(d)
    # np.kron's elementwise products, one broadcast multiply per term
    left = op.matrix[:, None, :, None] * eye[None, :, None, :]
    right = eye[:, None, :, None] * op.matrix.T[None, :, None, :]
    return (left - right).reshape(d * d, d * d)


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
    x, w = _hermite_rule(HS_QUADRATURE_NODES)
    scale = math.sqrt(2.0 * t)
    acc = np.zeros((op.dim, op.dim), dtype=np.complex128)
    # added in node order: at small d, numpy's sum over axis 0 can run the node axis
    # as its inner loop and add pairwise, which moves the last bits
    for term in w[:, None, None] * op.unitary_at(scale * x):
        acc += term
    acc /= math.sqrt(math.pi)
    target = op.function_of(np.exp(-0.5 * t * op.eigenvalues ** 2))
    return float(np.abs(acc - target).max())

