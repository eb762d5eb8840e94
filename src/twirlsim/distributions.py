"""Probability laws for random evolution times and their characteristic data.

Everything downstream consumes one convention: char_minus(D)(omega) is
E[exp(-i omega s)] for s drawn from D. For a Levy triplet, levy_psi is the
exponent in the same convention, so exp(psi) = char_minus of the time-one law
and exp(t * psi) is the multiplier of the time-t twirl. In particular a pure
drift gamma shifts samples toward +gamma, and the corresponding twirl at time
t is conjugation by exp(-i gamma t H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, singledispatch
from typing import Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DistributionError

TRUNCATED_CHAR_NODES = 64
TRUNCATED_CHAR_SIGMAS = 8.0  # the N(0, v) mass beyond 8 sigma is about 1e-15
TRUNCATED_CHAR_MAX_PHASE = 32.0  # |omega| * W up to which the 64-node rule does not alias
TRUNCATED_CHAR_TERMS = 30  # terms of the erfc series used beyond it
# cosine matrix entries evaluated at once: a 256 KB block stays in cache, and
# the memory it frees serves the next block and the next call, where 2 MB
# blocks went back to the OS and were faulted in again on every call
TRUNCATED_CHAR_BLOCK = 1 << 15


@cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


def _as_atoms(pairs) -> tuple[tuple[float, float], ...]:
    out = []
    for pair in pairs:
        s, w = pair
        out.append((float(s), float(w)))
    return tuple(out)


@dataclass(frozen=True)
class Gaussian:
    """Centered normal law with the given variance."""

    variance: float

    def __post_init__(self):
        if not self.variance >= 0.0:
            raise DistributionError(f"Gaussian variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class TruncatedGaussian:
    """Centered normal of the given variance conditioned on [-cutoff, cutoff]."""

    variance: float
    cutoff: float

    def __post_init__(self):
        if not self.variance >= 0.0:
            raise DistributionError(f"variance must be >= 0, got {self.variance}")
        if not self.cutoff > 0.0:
            raise DistributionError(f"cutoff must be > 0, got {self.cutoff}")


@dataclass(frozen=True)
class Dirac:
    """Point mass at location."""

    location: float


@dataclass(frozen=True)
class FiniteMixture:
    """Finitely many atoms (location, probability) with probabilities summing to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        if not self.atoms:
            raise DistributionError("mixture needs at least one atom")
        if any(p < 0.0 for _, p in self.atoms):
            raise DistributionError("mixture probabilities must be nonnegative")
        total = math.fsum(p for _, p in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise DistributionError(f"mixture probabilities sum to {total!r}, not 1")

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # locations and cumulative probabilities, built once as Generator.choice builds them
        locations = np.array([s for s, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        cdf = (probs / probs.sum()).cumsum()
        cdf /= cdf[-1]
        return locations, cdf


BaseLaw = Union[Dirac, FiniteMixture, Gaussian]


@dataclass(frozen=True)
class CompoundPoisson:
    """Sum of a Poisson(rate) number of i.i.d. draws from the base law.

    The base law must put no mass at zero: a zero-length jump is not a jump.
    """

    rate: float
    base: BaseLaw

    def __post_init__(self):
        if not self.rate >= 0.0:
            raise DistributionError(f"rate must be >= 0, got {self.rate}")
        b = self.base
        if isinstance(b, Dirac):
            if b.location == 0.0:
                raise DistributionError("compound Poisson base has an atom at 0")
        elif isinstance(b, FiniteMixture):
            if any(s == 0.0 and p > 0.0 for s, p in b.atoms):
                raise DistributionError("compound Poisson base has an atom at 0")
        elif isinstance(b, Gaussian):
            if b.variance == 0.0:
                raise DistributionError("compound Poisson base has an atom at 0")
        else:
            raise DistributionError(f"unsupported compound Poisson base {type(b).__name__}")


@dataclass(frozen=True)
class LevyTriplet:
    """Diffusion coefficient, drift, and a finite jump measure.

    atoms holds (location, weight) pairs of the jump measure; weights are
    arbitrary positive numbers, not probabilities. With compensated=True the
    small jumps (|location| <= 1) are compensated in the exponent.
    """

    sigma2: float
    gamma: float
    atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    compensated: bool = False

    def __post_init__(self):
        if not self.sigma2 >= 0.0:
            raise DistributionError(f"sigma2 must be >= 0, got {self.sigma2}")
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        if any(w <= 0.0 for _, w in self.atoms):
            raise DistributionError("jump weights must be positive")
        if any(s == 0.0 for s, _ in self.atoms):
            raise DistributionError("jump measure has an atom at 0")


DistributionSpec = Union[Gaussian, TruncatedGaussian, Dirac, FiniteMixture,
                         CompoundPoisson, LevyTriplet]


def levy_psi(triplet: LevyTriplet, omega):
    """Levy exponent psi(omega) with exp(psi) = char_minus of the time-one law.

    psi(omega) = -(sigma2/2) omega^2 - i gamma omega
                 + sum_j w_j (exp(-i omega s_j) - 1 [+ i omega s_j for
                   compensated small jumps]),
    as complex128 values of omega's shape, () for a scalar omega.
    """
    w = np.asarray(omega, dtype=np.float64)
    psi = -0.5 * triplet.sigma2 * w ** 2 - 1j * triplet.gamma * w
    psi = psi.astype(np.complex128)
    for s, weight in triplet.atoms:
        term = np.exp(-1j * w * s) - 1.0
        if triplet.compensated and abs(s) <= 1.0:
            term = term + 1j * w * s
        psi = psi + weight * term
    return psi


def scale_triplet(triplet: LevyTriplet, t: float) -> LevyTriplet:
    """Triplet of the time-t law: every component scales linearly.

    Jumps whose scaled weight is zero (all of them at t = 0) carry no mass
    and are dropped, so the time-zero law is the point mass at zero.
    """
    return LevyTriplet(
        sigma2=triplet.sigma2 * t,
        gamma=triplet.gamma * t,
        atoms=tuple((s, w * t) for s, w in triplet.atoms if w * t != 0.0),
        compensated=triplet.compensated,
    )


@singledispatch
def char_minus(dist, omega):
    """E[exp(-i omega s)] for s ~ dist: complex128 values of omega's shape, () for a scalar."""
    raise TypeError(f"no characteristic function for {type(dist).__name__}")


@char_minus.register
def _(dist: Gaussian, omega):
    w = np.asarray(omega, dtype=np.float64)
    return np.exp(-0.5 * dist.variance * w ** 2).astype(np.complex128)


@char_minus.register
def _(dist: Dirac, omega):
    w = np.asarray(omega, dtype=np.float64)
    return np.exp(-1j * dist.location * w)


@char_minus.register
def _(dist: FiniteMixture, omega):
    w = np.asarray(omega, dtype=np.float64)
    acc = np.zeros(w.shape, dtype=np.complex128)
    for s, p in dist.atoms:
        acc += p * np.exp(-1j * s * w)
    return acc


@char_minus.register
def _(dist: CompoundPoisson, omega):
    return np.exp(dist.rate * (char_minus(dist.base, omega) - 1.0))


def _truncated_char_blocks(size: int) -> list[slice]:
    """The rule's frequency blocks: TRUNCATED_CHAR_BLOCK / TRUNCATED_CHAR_NODES rows
    each, a one-row tail joined to the block before it."""
    rows = TRUNCATED_CHAR_BLOCK // TRUNCATED_CHAR_NODES
    stops = [*range(rows, size - 1, rows), size]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def _truncated_char_rule(variance: float, width: float, freqs: np.ndarray) -> np.ndarray:
    """Gauss-Legendre cosine transform of the density on [-W, W], over its value at freqs[0] = 0.

    The nodes are antisymmetric and cos is even, so each block takes one
    cosine per node pair and mirrors it into the negative nodes' columns. A
    block of TRUNCATED_CHAR_BLOCK / TRUNCATED_CHAR_NODES = 512 frequencies
    keeps the working set at about 256 KB for the mirrored cosines (half that
    for the phases and for the cosines), whatever the number of frequencies,
    besides 8 bytes a frequency for the sums. numpy takes a one-row block's product as a dot
    product, whose last bits can differ from the matrix-vector product of the
    other rows, so a single frequency left at the end joins the block before
    it: a value then does not depend on how the frequencies fall into blocks.
    """
    nodes, weights = _gl_nodes(TRUNCATED_CHAR_NODES)
    s = nodes * width
    density_weights = weights * np.exp(-0.5 * s ** 2 / variance)
    half = TRUNCATED_CHAR_NODES // 2
    sums = []
    for block in _truncated_char_blocks(freqs.size):
        cosines = np.cos(np.multiply.outer(freqs[block], s[half:]))
        sums.append(np.concatenate([cosines[:, ::-1], cosines], axis=1) @ density_weights)
    sums = np.concatenate(sums)
    return sums / sums[0]


def _truncated_char_series(variance: float, width: float, freqs: np.ndarray) -> np.ndarray:
    """exp(-b^2) Re erf(a + ib) / erf(a), a = W / sqrt(2v), b = omega sqrt(v/2), by the erfc series."""
    a = width / math.sqrt(2.0 * variance)
    b = freqs * math.sqrt(0.5 * variance)
    z = a + 1j * b
    term = total = np.ones_like(z)
    for k in range(1, TRUNCATED_CHAR_TERMS):
        term = term * (-(2 * k - 1) / (2.0 * z * z))
        total = total + term
    # erfc(z) ~ exp(-z^2) total / (z sqrt(pi)), and exp(-b^2 - z^2) = exp(-a^2 - 2iab)
    tail = np.exp(-a * a - 2j * a * b) * total / (z * math.sqrt(math.pi))
    return (np.exp(-b * b) - tail.real) / math.erf(a)


@char_minus.register
def _(dist: TruncatedGaussian, omega):
    # The law is taken on [-W, W] with W = min(cutoff, 8 sigma): a wider window
    # adds mass below double precision but spreads quadrature nodes past the
    # density, which then underflows. The law is symmetric, so the value is a
    # cosine transform, computed once per distinct |omega|. Below
    # |omega| W = TRUNCATED_CHAR_MAX_PHASE a 64-node Gauss-Legendre rule
    # resolves it, normalized by its own value at 0 so that char(0) = 1
    # exactly; above, where the rule aliases, the closed form through erfc is
    # used, and its asymptotic series has converged because
    # |a + ib|^2 >= 2ab = |omega| W.
    w = np.asarray(omega, dtype=np.float64)
    if dist.variance == 0.0:
        return np.ones(w.shape, dtype=np.complex128)
    width = min(dist.cutoff, TRUNCATED_CHAR_SIGMAS * math.sqrt(dist.variance))
    freqs, where = np.unique(np.append(0.0, np.abs(w)), return_inverse=True)
    near = freqs * width < TRUNCATED_CHAR_MAX_PHASE
    value = np.empty(freqs.size)
    value[near] = _truncated_char_rule(dist.variance, width, freqs[near])
    if not near.all():
        value[~near] = _truncated_char_series(dist.variance, width, freqs[~near])
    return value[where[1:]].reshape(w.shape).astype(np.complex128)


@char_minus.register
def _(dist: LevyTriplet, omega):
    return np.exp(levy_psi(dist, omega))


@singledispatch
def sample_law(dist, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw from laws that admit direct sampling (base laws of compound sums)."""
    raise TypeError(f"no sampler for {type(dist).__name__}")


@sample_law.register
def _(dist: Gaussian, rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(dist.variance), size=size)


@sample_law.register
def _(dist: Dirac, rng: np.random.Generator, size: int) -> np.ndarray:
    return np.full(size, dist.location)


@sample_law.register
def _(dist: FiniteMixture, rng: np.random.Generator, size: int) -> np.ndarray:
    # the draw of rng.choice(len(locations), size, p=probs), stream and bytes alike,
    # without validating and accumulating p again on every call
    locations, cdf = dist._table
    return locations[cdf.searchsorted(rng.random(size), side="right")]

