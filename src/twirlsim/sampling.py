"""Randomized channel estimation by sampling evolution times.

The Gaussian-twirl sampler draws a time s from a truncated centered normal
(variance t, window [-S, S]), applies exp(-iHs), and discards s. With
S = sqrt(2 t ln(4/eps)) the truncated law is within eps/2 of the full
Gaussian in total variation, so the sampled channel is within eps of
exp(tL) in diamond norm while each shot costs at most S of simulated time.

Every sampled channel, Gaussian or compound, is kept as an empirical Schur
multiplier in the eigenbasis of H: the mean over shots of the rank-one
multipliers phi phi^dag with phi_j = exp(-i lambda_j s).

Reproducibility: shots form fixed chunks of CHUNK_SHOTS. A Gaussian chunk
draws all its times from one counter-based stream derived from
(seed, chunk_index); a compound shot draws from a stream derived from
(seed, shot_index). Chunks are reduced in index order, and per-shot costs
are totaled with exact summation. Results are therefore bit-identical
across repeated runs. The other consumers of derived streams (phase
estimation, the bench table, self-verification) read index blocks that
start at QPE_STREAMS, BENCH_STREAMS and VERIFY_STREAMS, far above any shot
or chunk index, so no two consumers share a stream under one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import SchurMultiplier
from .distributions import BaseLaw, CompoundPoisson, sample_law
from .linalg import as_operator

CHUNK_SHOTS = 4096
MAX_SHOTS = 10 ** 7  # a sampled run holds a few float64 arrays of one entry per shot
MAX_SAMPLED_RATE = 1e6  # a sampled compound shot holds about `rate` kicks
MAX_SAMPLED_KICKS = 10 ** 9  # expected compound kicks over a whole run, shots * rate
# first derived_rng index of each consumer other than shots and chunks
QPE_STREAMS = 1 << 62
BENCH_STREAMS = 2 << 62
VERIFY_STREAMS = 3 << 62
_MAX_EPSILON = 4.0  # cutoff is real and positive only for epsilon below 4


def derived_rng(seed: int, index: int) -> np.random.Generator:
    """Independent reproducible stream number `index` under a 64-bit seed.

    Uses a counter-based generator: the key is the seed, the counter starts
    at a disjoint 2^192-sized block per index, so streams never overlap and
    can be created in any order.
    """
    key = int(seed) % (1 << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=int(index) << 192))


def cutoff(t: float, epsilon: float) -> float:
    """Truncation window S = sqrt(2 t ln(4/epsilon)).

    Accepts any epsilon in (0, 4), the range where S is real and positive;
    the sampler itself (ShotPlan) restricts epsilon to (0, 1).
    """
    t = float(t)
    epsilon = float(epsilon)
    if not t > 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if not 0.0 < epsilon < _MAX_EPSILON:
        raise ValueError(f"epsilon must be in (0, {_MAX_EPSILON}), got {epsilon}")
    return math.sqrt(2.0 * t * math.log(4.0 / epsilon))


def _window(t: float, s_cut: float) -> tuple[float, float]:
    """(t, S) as floats, both required to be > 0."""
    t = float(t)
    s_cut = float(s_cut)
    if not (t > 0.0 and s_cut > 0.0):
        raise ValueError(f"need t > 0 and S > 0, got t={t}, S={s_cut}")
    return t, s_cut


def tv_bound(t: float, s_cut: float) -> float:
    """Tail bound sqrt(2/pi) (sqrt(t)/S) exp(-S^2/2t) on the truncation error.

    This is the Mill's-ratio bound on the mass outside [-S, S]; the returned
    value is clipped to 1 since a total variation distance cannot exceed 1.
    """
    t, s_cut = _window(t, s_cut)
    value = math.sqrt(2.0 / math.pi) * (math.sqrt(t) / s_cut) * math.exp(-s_cut ** 2 / (2.0 * t))
    return min(value, 1.0)


def tv_exact(t: float, s_cut: float) -> float:
    """Exact truncation error: the N(0, t) mass outside [-S, S], erfc(S / sqrt(2t))."""
    t, s_cut = _window(t, s_cut)
    return math.erfc(s_cut / math.sqrt(2.0 * t))


def sample_truncated_normal(t: float, s_cut: float, rng: np.random.Generator,
                            size: int) -> np.ndarray:
    """`size` draws of N(0, t) conditioned on [-S, S], by rejection sampling.

    For S > sqrt(t) the proposal is the untruncated normal, accepted inside
    the window, so the acceptance rate is the window mass, above 0.68 (at the
    derived cutoff, at least 1 - eps/2). For S <= sqrt(t)
    the proposal is uniform on [-S, S], accepted with probability
    exp(-s^2 / 2t) >= exp(-1/2), so a narrow window cannot stall the loop.
    Every returned value satisfies |s| <= S.
    """
    t, s_cut = _window(t, s_cut)
    sigma = math.sqrt(t)
    if s_cut > sigma:
        def propose(n):
            s = rng.normal(0.0, sigma, size=n)
            return s, abs(s) <= s_cut
    else:
        def propose(n):
            s = rng.uniform(-s_cut, s_cut, size=n)
            return s, rng.random(size=n) <= np.exp(-0.5 * s * s / t)
    out, accepted = propose(size)
    while not accepted.all():
        rejected = ~accepted
        out[rejected], accepted[rejected] = propose(int(rejected.sum()))
    return out


@dataclass(frozen=True)
class ShotPlan:
    """Sampling plan: time, target accuracy, truncation window, shots, seed."""

    t: float
    epsilon: float
    cutoff: float
    shots: int
    seed: int

    def __post_init__(self):
        if not self.t > 0.0:
            raise ValueError(f"t must be > 0, got {self.t}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not self.cutoff > 0.0:
            raise ValueError(f"cutoff must be > 0, got {self.cutoff}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")

    @classmethod
    def with_derived_cutoff(cls, t: float, epsilon: float, shots: int, seed: int) -> "ShotPlan":
        return cls(t=float(t), epsilon=float(epsilon), cutoff=cutoff(t, epsilon),
                   shots=int(shots), seed=int(seed))


@dataclass(frozen=True)
class CostLedger:
    """Per-shot simulated-time costs and their exact total.

    total_time is the exactly rounded sum (math.fsum) of per_shot_times.
    worst_case is the a-priori per-shot bound when one exists (the truncation
    window), otherwise the realized maximum.
    """

    per_shot_times: np.ndarray
    total_time: float
    worst_case: float
    shots: int


def empirical_channel(h, times) -> SchurMultiplier:
    """Mean of the conjugations by exp(-iHs) over the given times, as a Schur multiplier.

    In the eigenbasis of H the multiplier is M_jk = (1/N) sum_n
    exp(-i (lambda_j - lambda_k) s_n), the empirical characteristic function
    of the times at the eigenvalue gaps. The times are reduced in fixed
    chunks of CHUNK_SHOTS: a chunk adds Phi^T conj(Phi), with
    Phi[n, j] = exp(-i lambda_j s_n), to a d x d total, in chunk order. The
    chunks only bound the size of the phase matrix Phi.
    """
    op = as_operator(h)
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"need a non-empty 1-d array of times, got shape {times.shape}")
    total = np.zeros((op.dim, op.dim), dtype=np.complex128)
    for start in range(0, times.size, CHUNK_SHOTS):
        phi = np.exp(-1j * np.multiply.outer(times[start:start + CHUNK_SHOTS], op.eigenvalues))
        total += phi.T @ phi.conj()
    return SchurMultiplier(op.eigenvectors, total / times.size)


def estimate_channel(h, plan: ShotPlan) -> tuple[SchurMultiplier, CostLedger]:
    """Estimate the Gaussian twirl channel from plan.shots sampled unitaries.

    Chunk c of CHUNK_SHOTS shots (the last one holds the remainder) draws
    its times in one call from the stream derived_rng(plan.seed, c).
    Returns the empirical multiplier (an unbiased estimate of the truncated
    twirl) and the cost ledger of |s| per shot.
    """
    times = np.concatenate([
        sample_truncated_normal(plan.t, plan.cutoff, derived_rng(plan.seed, c),
                                size=min(CHUNK_SHOTS, plan.shots - start))
        for c, start in enumerate(range(0, plan.shots, CHUNK_SHOTS))])
    costs = np.abs(times)
    ledger = CostLedger(per_shot_times=costs, total_time=math.fsum(costs),
                        worst_case=plan.cutoff, shots=plan.shots)
    return empirical_channel(h, times), ledger


# ---------------------------------------------------------------------------
# compound Poisson sampling
# ---------------------------------------------------------------------------

def compound_poisson_kicks(rate_time: float, base: BaseLaw,
                           rng: np.random.Generator) -> np.ndarray:
    """The individual jumps of one compound Poisson draw; the caller validates the law."""
    if rate_time > MAX_SAMPLED_RATE:
        raise ValueError(f"rate {rate_time} too large to sample (at most {MAX_SAMPLED_RATE:g})")
    n = int(rng.poisson(rate_time))
    return np.asarray(sample_law(base, rng, size=n), dtype=np.float64)


def estimate_compound_channel(h, base: BaseLaw, t: float, shots: int,
                              seed: int) -> tuple[SchurMultiplier, CostLedger]:
    """Estimate the compound Poisson twirl at time t from sampled total kicks.

    Each shot applies exp(-iHs) with s the summed jumps of one compound
    Poisson draw. The ledger records the summed jump magnitudes sum_j |X_j|
    per shot (the simulated time if each jump is applied as its own
    evolution), whose expectation is t * E|X_1| for every base law.
    """
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    CompoundPoisson(rate=t, base=base)
    shots = int(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    times = np.empty(shots, dtype=np.float64)
    costs = np.empty(shots, dtype=np.float64)
    for i in range(shots):
        kicks = compound_poisson_kicks(t, base, derived_rng(seed, i))
        times[i], costs[i] = kicks.sum(), np.abs(kicks).sum()
    ledger = CostLedger(per_shot_times=costs, total_time=math.fsum(costs),
                        worst_case=float(costs.max()), shots=shots)
    return empirical_channel(h, times), ledger


# ---------------------------------------------------------------------------
# scaling diagnostics
# ---------------------------------------------------------------------------

def scaling_table(ts, epsilon: float) -> list[tuple[float, float, float]]:
    """Rows (t, S, S/sqrt(t)) for the derived cutoff at fixed epsilon.

    The last column is constant in t: the window grows exactly as sqrt(t).
    """
    rows = []
    for t in ts:
        s_cut = cutoff(t, epsilon)
        rows.append((float(t), s_cut, s_cut / math.sqrt(t)))
    return rows


def mean_sampled_cost(t: float, epsilon: float, draws: int, seed: int) -> float:
    """Mean |s| over draws from the truncated law (the stream BENCH_STREAMS)."""
    rng = derived_rng(seed, BENCH_STREAMS)
    samples = sample_truncated_normal(t, cutoff(t, epsilon), rng, size=int(draws))
    return float(np.abs(samples).mean())
