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
(seed, chunk_index); a compound shot draws its kick count, then its kicks
if the count is not 0, from a stream derived from (seed, shot_index). A
compound run moves one Philox generator from shot stream to shot stream by
setting its full state, so each shot still reads exactly the stream
(seed, shot_index), with the same bytes as a freshly built one. The
base law's sampler is looked up once per run, not once per shot. Compound
shots are drawn in batches of at most about CHUNK_SHOTS kicks; a batch
groups its shots by kick count n and sums each group as one [m, n] array
along its rows, which numpy sums pairwise exactly as it sums each shot's
kicks alone. Chunks are reduced in index order, and per-shot costs are
totaled with exact summation. Results are therefore bit-identical across
repeated runs. The other consumers of derived streams (phase estimation,
the bench table, self-verification) read index blocks that start at
QPE_STREAMS, BENCH_STREAMS and VERIFY_STREAMS, far above any shot or chunk
index, so no two consumers share a stream under one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channels import SchurMultiplier
from .distributions import BaseLaw, CompoundPoisson, sample_law
from .linalg import as_operator

CHUNK_SHOTS = 4096
MAX_SHOTS = 10 ** 7  # a sampled run holds a few float64 arrays of one entry per shot
MAX_SAMPLED_RATE = 1e6  # a sampled compound shot holds about `rate` kicks
# random draws over a whole run: compound kicks (shots * rate), qpe outcomes (dim * shots)
# or bench draws (times * epsilons * draws)
MAX_RUN_DRAWS = 10 ** 9
# phase products over a sampled run, shots * d^2: a few minutes of accumulate at the cap
MAX_RUN_WORK = 10 ** 12
# first derived_rng index of each consumer other than shots and chunks
QPE_STREAMS = 1 << 62
BENCH_STREAMS = 2 << 62
VERIFY_STREAMS = 3 << 62
_STREAM_INDICES = 1 << 64  # stream indices, and seeds mod this, are one uint64 word
_MAX_EPSILON = 4.0  # cutoff is real and positive only for epsilon below 4


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox one fixed 128-bit key, [key, 0], as is.

    Philox(key=...) would first build a SeedSequence from OS entropy and
    then overwrite it; this supplies the key words directly instead.
    """

    __slots__ = ("_words",)

    def __init__(self, key: int):
        self._words = np.array([key, 0], dtype=np.uint64)
        self._words.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, asked for {n_words} {dtype}")
        return self._words


def derived_rng(seed: int, index: int, reuse: np.random.Generator | None = None
                ) -> np.random.Generator:
    """Independent reproducible stream number `index` under a 64-bit seed.

    Uses a counter-based generator: the key is the seed mod 2^64, the counter
    starts at a disjoint 2^192-sized block per index, so streams never
    overlap and can be created in any order. A stream is a function of
    (seed, index) alone: no OS entropy is read. index must be in [0, 2^64).

    Given `reuse`, a Generator over Philox, no generator is built: the full
    state of reuse's Philox (key, counter, buffer and the pending 32-bit
    half) is set to that of a fresh stream (seed, index), and reuse is
    returned. Its draws are then the fresh stream's bit for bit, whatever
    reuse drew before; setting the state costs under a third of building
    a stream. A reuse over another bit generator raises ValueError.
    """
    index = int(index)
    if not 0 <= index < _STREAM_INDICES:
        raise ValueError(f"stream index must be in [0, 2**64), got {index}")
    if reuse is None:
        reuse = np.random.Generator(np.random.Philox(_PhiloxKey(0)))
    # the state of a fresh Philox with key (seed, 0) and counter (0, 0, 0, index); another
    # bit generator's state setter raises ValueError on it
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, index), "key": (int(seed) % _STREAM_INDICES, 0)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


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
    try:
        tail = math.exp(-s_cut ** 2 / t / 2.0)  # 2t would overflow for t above 9e307
    except OverflowError:
        # S^2 overflows, but S^2 / 2t = x * x may not, and x * x gives inf without raising;
        # taking x on every call would change the last bit of most finite bounds
        x = s_cut / math.sqrt(t) / math.sqrt(2.0)
        tail = math.exp(-x * x)
    return min(math.sqrt(2.0 / math.pi) * (math.sqrt(t) / s_cut) * tail, 1.0)


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
    """Per-shot simulated-time costs and a per-shot bound.

    worst_case is the a-priori per-shot bound when one exists (the truncation
    window), otherwise the realized maximum. The shot count and the total are
    derived from per_shot_times.
    """

    per_shot_times: np.ndarray
    worst_case: float

    @property
    def shots(self) -> int:
        return self.per_shot_times.size

    @cached_property
    def total_time(self) -> float:
        """The correctly rounded sum of the (nonnegative) costs: inf past the largest double."""
        try:
            return math.fsum(self.per_shot_times)
        except OverflowError:  # fsum raises where the rounded sum is inf
            return math.inf


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
    ledger = CostLedger(per_shot_times=np.abs(times), worst_case=plan.cutoff)
    return empirical_channel(h, times), ledger


# ---------------------------------------------------------------------------
# compound Poisson sampling
# ---------------------------------------------------------------------------

def _sum_kicks(batch: list[np.ndarray], times: np.ndarray, costs: np.ndarray) -> None:
    """Write each shot's summed kicks into times and summed |kicks| into costs.

    Shots with the same kick count n are gathered into one [m, n] array and
    summed along its rows. numpy sums each row pairwise exactly as it sums
    that row alone, so times[i] and costs[i] equal batch[i].sum() and
    np.abs(batch[i]).sum() bit for bit. A shot whose count no other shot
    shares, as most at high rates, is summed on its own, which costs less
    than a one-row array. A shot without kicks keeps its 0.
    """
    groups = {}
    for i, kicks in enumerate(batch):
        groups.setdefault(kicks.size, []).append(i)
    groups.pop(0, None)
    for n, shots in groups.items():
        if len(shots) == 1:
            i = shots[0]
            times[i], costs[i] = batch[i].sum(), np.abs(batch[i]).sum()
        else:
            rows = np.concatenate([batch[i] for i in shots]).reshape(len(shots), n)
            times[shots] = rows.sum(axis=1)
            costs[shots] = np.abs(rows).sum(axis=1)


def estimate_compound_channel(h, base: BaseLaw, t: float, shots: int,
                              seed: int) -> tuple[SchurMultiplier, CostLedger]:
    """Estimate the compound Poisson twirl at time t from sampled total kicks.

    Each shot applies exp(-iHs) with s the summed jumps of one compound
    Poisson draw. The ledger records the summed jump magnitudes sum_j |X_j|
    per shot (the simulated time if each jump is applied as its own
    evolution), whose expectation is t * E|X_1| for every base law. At
    t = 0 no shot has a jump, so no stream is drawn. A rate above
    MAX_SAMPLED_RATE raises ValueError before any stream is drawn.

    Shot i draws its kick count n, then its n kicks, from its own stream
    derived_rng(seed, i); a shot with n = 0 draws nothing after its count.
    One generator serves the run: each shot moves it to the shot's stream
    (derived_rng's reuse), which draws the same bytes as a fresh stream.
    The base law's sampler is looked up once per run. Shots are drawn in
    batches of at most about CHUNK_SHOTS kicks and at most CHUNK_SHOTS / 4
    shots, so memory stays bounded at any rate. A batch is reduced with two
    numpy sums per kick count: its shots with n kicks form one [m, n] array,
    summed along its rows (see _sum_kicks). Every time and cost is
    bit-identical to summing that shot's kicks alone.
    """
    t = CompoundPoisson(rate=float(t), base=base).rate
    if t > MAX_SAMPLED_RATE:
        raise ValueError(f"rate {t} too large to sample (at most {MAX_SAMPLED_RATE:g})")
    shots = int(shots)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    times = np.zeros(shots, dtype=np.float64)
    costs = np.zeros(shots, dtype=np.float64)
    if t > 0.0:
        draw = sample_law.dispatch(type(base))
        no_kicks = np.zeros(0)
        rng = None  # built for shot 0, then moved to each next shot's stream
        # a shot has t kicks on average: a batch holds about CHUNK_SHOTS kicks at rates
        # above 4, and at most CHUNK_SHOTS / 4 shots, since each held shot costs ~250 bytes
        step = max(1, int(CHUNK_SHOTS / max(t, 4.0)))
        for first in range(0, shots, step):
            last = min(first + step, shots)
            # the previous batch is released only after this one is drawn: releasing it
            # first lets malloc return its pages to the OS, which a rate-1e5 shot then
            # faults in again, about 13% slower
            batch = []
            for i in range(first, last):
                rng = derived_rng(seed, i, rng)
                n = int(rng.poisson(t))
                batch.append(draw(base, rng, n) if n else no_kicks)
            _sum_kicks(batch, times[first:last], costs[first:last])
    ledger = CostLedger(per_shot_times=costs, worst_case=float(costs.max()))
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
