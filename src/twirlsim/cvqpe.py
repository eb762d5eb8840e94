"""Continuous-variable phase estimation readout statistics.

For an eigenstate with eigenvalue lambda0 and coupling time t, the
conjugate-basis measurement outcome is distributed as N(-lambda0, 1/(4t)):
longer coupling sharpens the peak. The eigenvalue estimate is minus the
sample mean; its standard error is the sample standard deviation over
sqrt(shots), so quadrupling t halves the standard error at fixed shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_operator
from .sampling import QPE_STREAMS, derived_rng


@dataclass(frozen=True)
class QpeRun:
    """One estimation run for a single eigenvalue."""

    t: float
    true_lambda: float
    samples: np.ndarray
    estimate: float
    stderr: float

    @property
    def raw_mean(self) -> float:
        """Mean of the raw outcomes (centered near -true_lambda)."""
        return -self.estimate


def outcome_sigma(t: float) -> float:
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"coupling time must be > 0, got {t}")
    return 0.5 / math.sqrt(t)


def sample_k(lambda0: float, t: float, rng: np.random.Generator, size: int | None = None):
    """Measurement outcomes k ~ N(-lambda0, 1/(4t))."""
    sigma = outcome_sigma(t)
    return rng.normal(-float(lambda0), sigma, size=size)


def estimate_lambda(h, eigen_index: int, t: float, shots: int, seed: int) -> QpeRun:
    """Estimate one eigenvalue of h from shots outcomes.

    shots must be at least 2 (the standard error needs an unbiased sample
    variance). The stream is derived from (seed, QPE_STREAMS + eigen_index),
    so per-index runs are independent and reproducible, and share no draw
    with a sampled channel under the same seed.
    """
    op = as_operator(h)
    if not 0 <= eigen_index < op.dim:
        raise ValueError(f"eigen index {eigen_index} out of range for dimension {op.dim}")
    shots = int(shots)
    if shots < 2:
        raise ValueError(f"need at least 2 shots for a standard error, got {shots}")
    lam = float(op.eigenvalues[eigen_index])
    rng = derived_rng(seed, QPE_STREAMS + eigen_index)
    samples = np.asarray(sample_k(lam, t, rng, size=shots))
    estimate = float(-samples.mean())
    stderr = float(samples.std(ddof=1) / math.sqrt(shots))
    return QpeRun(t=float(t), true_lambda=lam, samples=samples,
                  estimate=estimate, stderr=stderr)


def resolve_spectrum(h, t: float, shots: int, seed: int) -> list[QpeRun]:
    """Run estimate_lambda for every eigenvalue, ascending."""
    op = as_operator(h)
    return [estimate_lambda(op, j, t, shots, seed) for j in range(op.dim)]
