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


@cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


def _require_finite(what: str, value: float) -> None:
    if not math.isfinite(value):
        raise DistributionError(f"{what} must be finite, got {value}")


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
        _require_finite("Gaussian variance", self.variance)


@dataclass(frozen=True)
class TruncatedGaussian:
    """Centered normal of the given variance conditioned on [-cutoff, cutoff]."""

    variance: float
    cutoff: float

    def __post_init__(self):
        if not self.variance >= 0.0:
            raise DistributionError(f"variance must be >= 0, got {self.variance}")
        _require_finite("variance", self.variance)
        # cutoff = inf is the untruncated law
        if not self.cutoff > 0.0:
            raise DistributionError(f"cutoff must be > 0, got {self.cutoff}")

    @property
    def _window(self) -> float:
        # W = min(cutoff, 8 sigma): the law is taken on [-W, W] (see char_minus)
        return min(self.cutoff, TRUNCATED_CHAR_SIGMAS * math.sqrt(self.variance))

    @cached_property
    def _half_rule(self) -> tuple[np.ndarray, np.ndarray]:
        # the positive half of the 64 Gauss-Legendre nodes on [-W, W], and the
        # square roots of their density weights normalized to sum 1
        nodes, weights = _gl_nodes(TRUNCATED_CHAR_NODES)
        times = nodes[TRUNCATED_CHAR_NODES // 2:] * self._window
        density = weights[TRUNCATED_CHAR_NODES // 2:] * np.exp(-0.5 * times ** 2 / self.variance)
        return times, np.sqrt(density / density.sum())


class _Atomic:
    """A law of finitely many atoms, `atoms` as (location, probability) pairs."""

    @cached_property
    def _phase_atoms(self) -> tuple[np.ndarray, np.ndarray, float]:
        # locations, square roots of the probabilities and the largest |location|,
        # built once for multiplier
        locations = np.array([s for s, _ in self.atoms])
        return locations, np.sqrt([p for _, p in self.atoms]), float(np.abs(locations).max())


@dataclass(frozen=True)
class Dirac(_Atomic):
    """Point mass at location: the one-atom mixture ((location, 1.0),)."""

    location: float

    def __post_init__(self):
        _require_finite("Dirac location", self.location)

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return ((self.location, 1.0),)


@dataclass(frozen=True)
class FiniteMixture(_Atomic):
    """Finitely many atoms (location, probability) with probabilities summing to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        if not self.atoms:
            raise DistributionError("mixture needs at least one atom")
        for s, _ in self.atoms:
            _require_finite("mixture atom location", s)
        if any(not p >= 0.0 for _, p in self.atoms):
            raise DistributionError("mixture probabilities must be nonnegative")
        total = math.fsum(p for _, p in self.atoms)
        if not abs(total - 1.0) <= 1e-12:
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
        _require_finite("rate", self.rate)
        b = self.base
        if isinstance(b, _Atomic):
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
        _require_finite("sigma2", self.sigma2)
        _require_finite("gamma", self.gamma)
        object.__setattr__(self, "atoms", _as_atoms(self.atoms))
        if any(not w > 0.0 for _, w in self.atoms):
            raise DistributionError("jump weights must be positive")
        for s, w in self.atoms:
            _require_finite("jump location", s)
            _require_finite("jump weight", w)
        if any(s == 0.0 for s, _ in self.atoms):
            raise DistributionError("jump measure has an atom at 0")


DistributionSpec = Union[Gaussian, TruncatedGaussian, Dirac, FiniteMixture,
                         CompoundPoisson, LevyTriplet]


def levy_psi(triplet: LevyTriplet, omega):
    """Levy exponent psi(omega) with exp(psi) = char_minus of the time-one law.

    psi(omega) = -(sigma2/2) omega^2 - i gamma omega
                 + sum_j w_j (exp(-i omega s_j) - 1 [+ i omega s_j for
                   compensated small jumps]),
    as a new complex128 array of omega's shape, () for a scalar omega. Each
    jump's term is built in one reused buffer and added into psi in place.
    """
    w = np.asarray(omega, dtype=np.float64)
    # complex already (the drift term is), so asarray copies nothing for an array omega
    psi = np.asarray(-0.5 * triplet.sigma2 * w ** 2 - 1j * triplet.gamma * w)
    term = np.empty(w.shape, dtype=np.complex128)
    for s, weight in triplet.atoms:
        np.multiply(-1j, w, out=term)
        term *= s
        np.exp(term, out=term)
        term -= 1.0
        if triplet.compensated and abs(s) <= 1.0:
            term += 1j * w * s
        np.multiply(weight, term, out=term)
        psi += term
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
    """E[exp(-i omega s)] for s ~ dist: a new complex128 array of omega's shape, () for a scalar.

    omega is only read. Each rule works in arrays it allocates itself,
    writing each step into its own operand where the bytes stay those of
    the out-of-place expression, with every product's operands in the
    expression's order.
    """
    raise TypeError(f"no characteristic function for {type(dist).__name__}")


@char_minus.register
def _(dist: Gaussian, omega):
    # exp(-v/2 w^2): real arithmetic in one buffer, then one complex copy
    w = np.asarray(omega, dtype=np.float64)
    x = np.square(w, out=np.empty(w.shape))
    x *= -0.5 * dist.variance
    return np.exp(x, out=x).astype(np.complex128)


@char_minus.register
def _(dist: _Atomic, omega):
    # sum_n p_n exp(-i s_n w), each term built in one reused buffer
    w = np.asarray(omega, dtype=np.float64)
    acc = np.zeros(w.shape, dtype=np.complex128)
    term = np.empty(w.shape, dtype=np.complex128)
    for s, p in dist.atoms:
        np.multiply(-1j * s, w, out=term)
        np.exp(term, out=term)
        np.multiply(p, term, out=term)
        acc += term
    return acc


@char_minus.register
def _(dist: CompoundPoisson, omega):
    # exp(rate (phi - 1)), in the base law's own new array
    out = char_minus(dist.base, omega)
    np.subtract(out, 1.0, out=out)
    np.multiply(dist.rate, out, out=out)
    return np.exp(out, out=out)


@char_minus.register
def _(dist: TruncatedGaussian, omega):
    # The law is taken on [-W, W] with W = min(cutoff, 8 sigma): a wider window
    # adds mass below double precision but spreads quadrature nodes past the
    # density, which then underflows. The law is symmetric, so the value is a
    # cosine transform, computed once per distinct |omega|. Below
    # |omega| W = TRUNCATED_CHAR_MAX_PHASE a 64-node Gauss-Legendre rule
    # resolves it: the half rule that multiplier reads, one cosine per node
    # pair (the nodes are antisymmetric and cos is even), summed one pair at a
    # time, so the working set grows linearly with the frequencies and a value
    # does not depend on the others. It is normalized by its own value at 0 so
    # that char(0) = 1 exactly; above, where the rule aliases, the closed form
    # through erfc is used, and its asymptotic series has converged because
    # |a + ib|^2 >= 2ab = |omega| W.
    w = np.asarray(omega, dtype=np.float64)
    if dist.variance == 0.0:
        return np.ones(w.shape, dtype=np.complex128)
    width = dist._window
    freqs, where = np.unique(np.append(0.0, np.abs(w)), return_inverse=True)
    # freqs ascends from 0, so the frequencies on the rule are a prefix
    near = np.count_nonzero(freqs * width < TRUNCATED_CHAR_MAX_PHASE)
    value = np.zeros(freqs.size)
    term = np.empty(near)
    for time, root in zip(*dist._half_rule):
        np.multiply(freqs[:near], time, out=term)
        np.cos(term, out=term)
        term *= root * root
        value[:near] += term
    value[:near] /= value[0]
    if near < freqs.size:
        # exp(-b^2) Re erf(a + ib) / erf(a), a = W / sqrt(2v), b = omega sqrt(v/2)
        a = width / math.sqrt(2.0 * dist.variance)
        b = freqs[near:] * math.sqrt(0.5 * dist.variance)
        z = a + 1j * b
        term = total = np.ones_like(z)
        for k in range(1, TRUNCATED_CHAR_TERMS):
            term = term * (-(2 * k - 1) / (2.0 * z * z))
            total = total + term
        # erfc(z) ~ exp(-z^2) total / (z sqrt(pi)), and exp(-b^2 - z^2) = exp(-a^2 - 2iab)
        tail = np.exp(-a * a - 2j * a * b) * total / (z * math.sqrt(math.pi))
        value[near:] = (np.exp(-b * b) - tail.real) / math.erf(a)
    return value[where[1:]].reshape(w.shape).astype(np.complex128)


@char_minus.register
def _(dist: LevyTriplet, omega):
    psi = levy_psi(dist, omega)
    return np.exp(psi, out=psi)


def _at_gaps(dist, lam: np.ndarray) -> np.ndarray:
    return char_minus(dist, np.subtract.outer(lam, lam))


@singledispatch
def multiplier(dist, eigenvalues) -> np.ndarray:
    """The d x d twirl multiplier: char_minus(dist) at the gaps lambda_j - lambda_k.

    The default evaluates char_minus on the gap matrix. The truncated
    Gaussian (through its quadrature rule), Dirac and finite-mixture laws
    average finitely many phases, so their multipliers are Gram products of
    per-eigenvalue phases instead (_phase_gram), with d x (number of nodes or
    atoms) sines and cosines in place of d^2 transcendental calls.
    """
    return _at_gaps(dist, np.asarray(eigenvalues, dtype=np.float64))


def _phase_gram(lam: np.ndarray, lo, spread, times: np.ndarray, roots: np.ndarray,
                symmetric: bool) -> np.ndarray:
    """sum_n roots[n]^2 exp(-i lam_j times[n]) exp(i lam_k times[n]) as a complex d x d matrix.

    With c = cos(lam times^T), s = sin(lam times^T) and B = [c, s] diag(roots, roots),
    the real part is B B^T, one product of B with its own transpose, so it is
    exactly symmetric, and the imaginary part is X - X^T with
    X = c diag(roots^2) s^T, exactly antisymmetric. symmetric=True stands for
    the law that puts half of each weight at each of +-times[n], whose
    imaginary part is zero. The eigenvalues are centred on their midpoint
    first, a common phase that cancels, so no phase is larger than a gap
    times a time. Entries at a zero gap, the diagonal among them, are exactly 1.
    """
    m = times.size
    b = np.empty((lam.size, 2, m))
    phases = np.multiply.outer(lam - (lo + 0.5 * spread), times)
    np.cos(phases, out=b[:, 0])
    np.sin(phases, out=b[:, 1])
    b *= roots
    b = b.reshape(lam.size, 2 * m)
    gram = b @ b.T
    out = gram.astype(np.complex128)
    if not symmetric:
        # X overwrites B B^T, already copied into out. np.dot, not @: numpy's
        # matmul skips BLAS for a one-atom inner dimension
        np.dot(b[:, :m], b[:, m:].T, out=gram)
        np.subtract(gram, gram.T, out=out.imag)
    out[lam[:, None] == lam] = 1.0
    return out


@multiplier.register
def _(dist: TruncatedGaussian, eigenvalues):
    # the 64-node rule of char_minus below TRUNCATED_CHAR_MAX_PHASE, and
    # char_minus itself (its erfc series) at and above it
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if dist.variance == 0.0:
        return np.ones((lam.size, lam.size), dtype=np.complex128)
    width = dist._window
    lo = lam.min()
    spread = lam.max() - lo
    if not math.isfinite(spread * width):
        return _at_gaps(dist, lam)
    out = _phase_gram(lam, lo, spread, *dist._half_rule, symmetric=True)
    if spread * width >= TRUNCATED_CHAR_MAX_PHASE:
        gaps = np.abs(lam[:, None] - lam)
        far = gaps * width >= TRUNCATED_CHAR_MAX_PHASE
        out[far] = char_minus(dist, gaps[far])
    return out


@multiplier.register
def _(dist: _Atomic, eigenvalues):
    locations, roots, reach = dist._phase_atoms  # reach: the largest |location|
    lam = np.asarray(eigenvalues, dtype=np.float64)
    lo = lam.min()
    spread = lam.max() - lo
    if not math.isfinite(spread * reach):
        # a location times a gap overflows: the gap route, non-finite there
        return _at_gaps(dist, lam)
    return _phase_gram(lam, lo, spread, locations, roots, symmetric=False)


@singledispatch
def sample_law(dist, rng: np.random.Generator, size: int) -> np.ndarray:
    """size float64 draws from laws that admit direct sampling (base laws of compound sums)."""
    raise TypeError(f"no sampler for {type(dist).__name__}")


@sample_law.register
def _(dist: Gaussian, rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.normal(0.0, math.sqrt(dist.variance), size=size)


@sample_law.register
def _(dist: Dirac, rng: np.random.Generator, size: int) -> np.ndarray:
    return np.full(size, dist.location, dtype=np.float64)


@sample_law.register
def _(dist: FiniteMixture, rng: np.random.Generator, size: int) -> np.ndarray:
    # the draw of rng.choice(len(locations), size, p=probs), stream and bytes alike,
    # without validating and accumulating p again on every call
    locations, cdf = dist._table
    return locations[cdf.searchsorted(rng.random(size), side="right")]

