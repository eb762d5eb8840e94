import dataclasses
import itertools
import math
import re
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlsim import (
    CompoundPoisson,
    CostLedger,
    Dirac,
    FiniteMixture,
    Gaussian,
    HermitianOperator,
    SchurMultiplier,
    ShotPlan,
    TruncatedGaussian,
    choi_of_schur,
    choi_of_superoperator,
    choi_trace_distance,
    cutoff,
    derived_rng,
    empirical_channel,
    estimate_channel,
    estimate_compound_channel,
    estimate_lambda,
    exact_channel,
    random_hermitian,
    resolve_spectrum,
    sample_k,
    sample_truncated_normal,
    scaling_table,
    superoperator_of_schur,
    tv_bound,
    tv_exact,
    vec,
)
from twirlsim import cvqpe, sampling, verify
from twirlsim.sampling import (
    BENCH_STREAMS,
    MAX_SAMPLED_RATE,
    QPE_STREAMS,
    VERIFY_STREAMS,
    mean_sampled_cost,
)

from oracles import choi_of, compound_poisson_kicks

Z = np.diag([1.0, -1.0]).astype(complex)

mp.mp.dps = 30


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# cutoff and truncation error
# ---------------------------------------------------------------------------

def test_cutoff_values():
    assert abs(cutoff(1.0, 0.01) - math.sqrt(2.0 * math.log(400.0))) < 1e-15
    # ln(4 / (4/e)) = 1, so S = sqrt(2)
    assert abs(cutoff(1.0, 4.0 / math.e) - math.sqrt(2.0)) < 1e-15
    assert abs(cutoff(9.0, 0.01) - 3.0 * cutoff(1.0, 0.01)) < 1e-12


def test_cutoff_is_finite_for_a_subnormal_epsilon():
    # 4/epsilon overflows at and below the smallest normal double, ln 4 - ln epsilon does not
    for eps in (5e-324, 1e-310, sys.float_info.min):
        s_cut = cutoff(1.0, eps)
        assert math.isfinite(s_cut)
        assert s_cut == math.sqrt(2.0 * (math.log(4.0) - math.log(eps)))
    # one step above, 4/epsilon is finite and S keeps its expression
    eps = math.nextafter(sys.float_info.min, 1.0)
    assert cutoff(1.0, eps) == math.sqrt(2.0 * math.log(4.0 / eps))


def test_cutoff_domain():
    with pytest.raises(ValueError):
        cutoff(0.0, 0.01)
    with pytest.raises(ValueError):
        cutoff(-1.0, 0.01)
    with pytest.raises(ValueError):
        cutoff(1.0, 0.0)
    with pytest.raises(ValueError):
        cutoff(1.0, 4.0)


def test_tv_bound_where_the_squared_window_overflows():
    # S^2 overflows above about 1.3e154, while S^2 / 2t need not; 2t overflows above about 9e307
    assert tv_bound(1.0, 1e160) == 0.0
    for t, s_cut in ((1e308, 1.5e154), (1e308, 1e154), (1.7e308, 1.3e154)):
        expected = (mp.sqrt(2 / mp.pi) * mp.sqrt(t) / mp.mpf(s_cut)
                    * mp.exp(-mp.mpf(s_cut) ** 2 / (2 * mp.mpf(t))))
        assert abs(tv_bound(t, s_cut) / float(expected) - 1.0) <= 1e-14


def test_tv_bound_frozen_value_and_cap():
    expected = math.sqrt(2.0 / math.pi) * math.exp(-0.5)
    assert abs(tv_bound(1.0, 1.0) - expected) < 1e-15
    assert abs(tv_bound(1.0, 1.0) - 0.48394144903828673) < 1e-15
    # the raw expression exceeds 1 for tiny windows; the bound is clipped
    assert tv_bound(1.0, 0.05) == 1.0
    with pytest.raises(ValueError):
        tv_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        tv_bound(1.0, 0.0)


def test_tv_exact_frozen_value_and_erf_oracle():
    # mass outside one standard deviation: 2 (1 - Phi(1)) = 0.31731050786...
    assert abs(tv_exact(1.0, 1.0) - 0.3173105078629141) < 1e-12
    for t in (0.1, 1.0, 7.0, 100.0):
        for s_cut in (0.5 * math.sqrt(t), 2.0 * math.sqrt(t), 3.5 * math.sqrt(t)):
            oracle = 2.0 * (1.0 - normal_cdf(s_cut / math.sqrt(t)))
            assert abs(tv_exact(t, s_cut) - oracle) < 1e-12
        # wide windows: relative accuracy, and exactly 0 once the mass underflows
        for k in (10.0, 40.0, 100.0, 1000.0):
            oracle = float(mp.erfc(k / mp.sqrt(2)))
            assert abs(tv_exact(t, k * math.sqrt(t)) - oracle) <= 1e-12 * oracle, (t, k)


def test_tv_exact_below_bound_and_epsilon():
    for t in (0.2, 1.0, 10.0, 250.0):
        for eps in (0.3, 0.05, 1e-3):
            s_cut = cutoff(t, eps)
            exact = tv_exact(t, s_cut)
            bound = tv_bound(t, s_cut)
            assert exact < bound < eps / 2.0


def test_truncated_channel_within_two_tv_of_full():
    # bound chain at the channel level, H = Z.  The normalized Choi state
    # distance is at most twice the total-variation distance between the two
    # sampling laws; our Choi matrices carry trace d, hence the factor d.
    d = 2
    for t in (0.3, 1.0, 5.0):
        for eps in (0.2, 0.02):
            s_cut = cutoff(t, eps)
            dist = choi_trace_distance(choi_of(Z, TruncatedGaussian(t, s_cut)),
                                       choi_of(Z, Gaussian(t)))
            assert dist <= d * 2.0 * tv_exact(t, s_cut)


# ---------------------------------------------------------------------------
# truncated normal sampling
# ---------------------------------------------------------------------------

def test_sample_truncated_normal_respects_window():
    rng = derived_rng(101, 0)
    t, s_cut = 1.0, 1.2
    draws = sample_truncated_normal(t, s_cut, rng, size=50_000)
    assert np.abs(draws).max() <= s_cut


def truncated_normal_ks(draws, t: float, s_cut: float) -> float:
    """Kolmogorov-Smirnov statistic of draws against N(0, t) conditioned on [-S, S]."""
    n = len(draws)
    alpha = s_cut / math.sqrt(t)
    mass = 2.0 * normal_cdf(alpha) - 1.0
    cdf = np.array([(normal_cdf(x / math.sqrt(t)) - normal_cdf(-alpha)) / mass
                    for x in np.sort(draws)])
    grid = np.arange(1, n + 1) / n
    return max(np.abs(grid - cdf).max(), np.abs(cdf - (grid - 1.0 / n)).max())


# sqrt(n) KS > 2 has probability about 2 exp(-8) = 7e-4 under the null
def test_sample_truncated_normal_ks_statistic():
    t, s_cut, n = 1.0, cutoff(1.0, 0.05), 1_000_000
    draws = sample_truncated_normal(t, s_cut, derived_rng(7, 0), size=n)
    assert truncated_normal_ks(draws, t, s_cut) <= 2.0 / math.sqrt(n)


def test_sample_truncated_normal_narrow_window_ks_statistic():
    # S <= sqrt(t) takes the uniform proposal
    t, n = 4.0, 200_000
    s_cut = 0.5 * math.sqrt(t)
    draws = sample_truncated_normal(t, s_cut, derived_rng(8, 0), size=n)
    assert truncated_normal_ks(draws, t, s_cut) <= 2.0 / math.sqrt(n)


class CountingRng:
    """Forwards to a generator and raises after `limit` calls instead of spinning."""

    def __init__(self, rng, limit=10_000):
        self._rng, self._limit, self.calls = rng, limit, 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            if self.calls > self._limit:
                raise RuntimeError(f"more than {self._limit} generator calls")
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("size", [1, 1000])
def test_sample_truncated_normal_narrow_window_terminates(size):
    # the window holds 8e-9 of the N(0, 100) mass, so a normal proposal would
    # need about 1e8 tries per draw
    t, s_cut = 100.0, 1e-7
    draws = sample_truncated_normal(t, s_cut, CountingRng(derived_rng(9, 0)), size)
    assert draws.shape == (size,)
    assert np.abs(draws).max() <= s_cut


def test_sample_truncated_normal_variance_against_quadrature():
    t, s_cut = 1.0, 1.8
    rng = derived_rng(11, 0)
    draws = sample_truncated_normal(t, s_cut, rng, size=200_000)
    num = mp.quad(lambda s: s * s * mp.e ** (-s * s / (2 * t)), [-s_cut, 0, s_cut])
    den = mp.quad(lambda s: mp.e ** (-s * s / (2 * t)), [-s_cut, 0, s_cut])
    target = float(num / den)
    assert abs(draws.var() - target) < 0.02 * target


def test_sample_truncated_normal_domain():
    rng = derived_rng(0, 0)
    with pytest.raises(ValueError):
        sample_truncated_normal(0.0, 1.0, rng, size=1)
    with pytest.raises(ValueError):
        sample_truncated_normal(1.0, 0.0, rng, size=1)


# ---------------------------------------------------------------------------
# shot plans and channel estimation
# ---------------------------------------------------------------------------

def test_shot_plan_derives_cutoff():
    plan = ShotPlan.with_derived_cutoff(2.0, 0.01, 100, seed=5)
    assert abs(plan.cutoff - math.sqrt(2.0 * 2.0 * math.log(400.0))) < 1e-12
    for bad in (dict(t=0.0), dict(epsilon=1.5), dict(epsilon=0.0), dict(shots=0)):
        kwargs = dict(t=1.0, epsilon=0.1, shots=10, seed=1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ShotPlan.with_derived_cutoff(kwargs["t"], kwargs["epsilon"],
                                         kwargs["shots"], kwargs["seed"])


def test_estimate_channel_single_zero_shot_is_identity_choi():
    emp = empirical_channel(Z, [0.0])
    assert np.abs(emp.choi - choi_of_superoperator(np.eye(4))).max() < 1e-15


def test_empirical_channel_rejects_empty_or_nested_times():
    for bad in ([], [[0.0, 1.0]]):
        with pytest.raises(ValueError):
            empirical_channel(Z, bad)


def test_estimate_channel_ledger_and_trace():
    plan = ShotPlan.with_derived_cutoff(1.0, 0.05, 4000, seed=21)
    emp, ledger = estimate_channel(Z, plan)
    assert abs(emp.choi.trace() - 2.0) < 1e-10
    assert ledger.shots == 4000
    assert ledger.per_shot_times.shape == (4000,)
    assert ledger.per_shot_times.max() <= ledger.worst_case + 1e-15
    assert ledger.worst_case == plan.cutoff
    assert ledger.total_time == math.fsum(ledger.per_shot_times)


def test_cost_ledger_stores_costs_and_bound_and_derives_the_rest():
    assert [f.name for f in dataclasses.fields(CostLedger)] == ["per_shot_times", "worst_case"]
    ledger = CostLedger(per_shot_times=np.full(4, 1e308), worst_case=1e308)
    assert ledger.shots == 4
    # the exact sum 4e308 exceeds the largest double, so inf is its rounding
    assert ledger.total_time == math.inf


def test_estimate_channel_reproducible():
    plan = ShotPlan.with_derived_cutoff(1.0, 0.01, 9000, seed=77)
    emp1, led1 = estimate_channel(Z, plan)
    emp2, led2 = estimate_channel(Z, plan)
    assert np.array_equal(emp1.choi, emp2.choi)
    assert np.array_equal(led1.per_shot_times, led2.per_shot_times)
    assert led1.total_time == led2.total_time


def test_estimate_channel_error_decays_as_inverse_sqrt_shots():
    # log-log slope of the distance to the exact truncated channel vs shots
    t, eps = 1.0, 0.01
    s_cut = cutoff(t, eps)
    reference = choi_of(Z, TruncatedGaussian(t, s_cut))
    shot_grid = [1000, 10_000, 100_000]
    replicas = 4
    mean_dist = []
    for shots in shot_grid:
        acc = 0.0
        for r in range(replicas):
            plan = ShotPlan(t=t, epsilon=eps, cutoff=s_cut, shots=shots, seed=1000 + r)
            emp, _ = estimate_channel(Z, plan)
            acc += choi_trace_distance(emp.choi, reference)
        mean_dist.append(acc / replicas)
    x = np.log10(shot_grid)
    y = np.log10(mean_dist)
    slope = np.polyfit(x, y, 1)[0]
    assert -0.6 < slope < -0.4, (slope, mean_dist)


# ---------------------------------------------------------------------------
# the empirical-multiplier engine against per-shot Choi accumulation
# ---------------------------------------------------------------------------

def reference_choi(op: HermitianOperator, times) -> np.ndarray:
    """Mean of w w^dag with w = vec(U_s^T), one rank-one Choi matrix per shot."""
    d = op.dim
    acc = np.zeros((d * d, d * d), dtype=np.complex128)
    for s in times:
        w = vec(op.unitary_at(s).T)
        acc += np.outer(w, w.conj())
    return acc / len(times)


# d=2 runs past one chunk, so the chunked reduction is covered too
ENGINE_CASES = [(2, 4100), (8, 300), (16, 150)]


def chunk_times(plan: ShotPlan) -> np.ndarray:
    """Gaussian shot times as the stream contract gives them: chunk c of 4096
    shots (the last one holds the remainder) drawn in one call from
    derived_rng(seed, c)."""
    return np.concatenate([
        sample_truncated_normal(plan.t, plan.cutoff, derived_rng(plan.seed, c),
                                size=min(4096, plan.shots - start))
        for c, start in enumerate(range(0, plan.shots, 4096))])


@pytest.mark.parametrize("d,shots", ENGINE_CASES)
def test_gaussian_engine_matches_per_shot_choi(d, shots):
    op = HermitianOperator(random_hermitian(d, np.random.default_rng(d)))
    plan = ShotPlan.with_derived_cutoff(1.3, 0.01, shots, seed=40 + d)
    emp, ledger = estimate_channel(op, plan)
    times = chunk_times(plan)
    assert np.array_equal(ledger.per_shot_times, np.abs(times))
    assert np.abs(emp.choi - reference_choi(op, times)).max() <= 1e-13


COMPOUND_BASES = [Gaussian(0.5), Dirac(1.25), FiniteMixture(atoms=((0.8, 0.5), (-0.4, 0.5)))]


# at rates up to 4 a batch holds 1024 shots, so 1025 shots end in a one-shot batch
@pytest.mark.parametrize("d,shots", ENGINE_CASES + [(3, 1025)])
def test_compound_engine_matches_per_shot_choi(d, shots):
    # numpy sums fewer than 8 values in order, up to 128 in eight partial sums,
    # and more by pairwise halving: rate 0.05 gives mostly shots without kicks,
    # rate 0.3 shots with 0 to 2 kicks, rate 2 with 0 to 8, rate 40 with 9 to
    # 128 and rate 300 with more than 128
    op = HermitianOperator(random_hermitian(d, np.random.default_rng(d)))
    seed = 60 + d
    for base, rate in itertools.product(COMPOUND_BASES, [0.05, 0.3, 2.0, 40.0, 300.0]):
        case = (base, rate)
        emp, ledger = estimate_compound_channel(op, base, rate, shots, seed)
        kicks = [compound_poisson_kicks(rate, base, derived_rng(seed, i)) for i in range(shots)]
        # the grouped reduction must give each shot's own sums bit for bit
        costs = np.array([np.abs(k).sum() for k in kicks])
        times = np.array([k.sum() for k in kicks])
        assert np.array_equal(ledger.per_shot_times, costs), case
        assert np.array_equal(emp.multiplier, empirical_channel(op, times).multiplier), case
        assert ledger.worst_case == costs.max(), case
        assert np.abs(emp.choi - reference_choi(op, times)).max() <= 1e-13, case


@pytest.mark.parametrize("shots", [1, 4096, 4097, 9000])
def test_gaussian_estimate_draws_one_stream_per_chunk(monkeypatch, shots):
    indices = []
    generators = []

    def counting(seed, index, reuse=None):
        indices.append(index)
        generators.append(reuse)
        return derived_rng(seed, index, reuse)

    monkeypatch.setattr(sampling, "derived_rng", counting)
    emp, ledger = estimate_channel(Z, ShotPlan.with_derived_cutoff(1.0, 0.01, shots, seed=17))
    assert indices == list(range(math.ceil(shots / 4096)))
    # one generator is built, for chunk 0, and moved to each later chunk's stream
    assert generators[0] is None
    assert all(g is generators[1] for g in generators[1:]) and None not in generators[1:]
    times = chunk_times(ShotPlan.with_derived_cutoff(1.0, 0.01, shots, seed=17))
    assert np.array_equal(ledger.per_shot_times, np.abs(times))


def test_gaussian_chunks_draw_from_distinct_streams():
    # a reused or shifted stream would repeat values across the two chunks
    _, ledger = estimate_channel(Z, ShotPlan.with_derived_cutoff(1.0, 0.01, 2 * 4096, seed=18))
    first, second = ledger.per_shot_times[:4096], ledger.per_shot_times[4096:]
    assert np.intersect1d(first, second).size == 0


def test_bench_and_qpe_share_no_draw_with_chunk_zero():
    _, ledger = estimate_channel(Z, ShotPlan.with_derived_cutoff(1.0, 0.01, 4096, seed=7))
    # the bench mean used to equal the ledger mean to the last bit: one stream
    assert mean_sampled_cost(1.0, 0.01, 4096, 7) != ledger.per_shot_times.mean()
    # eigenvalue 0 outcomes at t = 1/4 are N(0, 1) draws, like chunk 0's proposals
    outcomes = sample_k(0.0, 0.25, derived_rng(7, QPE_STREAMS), size=4096)
    assert np.intersect1d(np.abs(outcomes), ledger.per_shot_times).size == 0
    qpe = estimate_lambda(np.zeros((1, 1)), 0, t=0.25, shots=4096, seed=7)
    assert qpe.estimate == -outcomes.mean()


def test_stream_consumers_read_disjoint_indices(monkeypatch):
    indices = []

    def recording(seed, index, reuse=None):
        indices.append(index)
        return derived_rng(seed, index, reuse)

    for module in (sampling, cvqpe, verify):
        monkeypatch.setattr(module, "derived_rng", recording)

    def read(run):
        indices.clear()
        run()
        return set(indices)

    shots = (read(lambda: estimate_channel(Z, ShotPlan.with_derived_cutoff(1.0, 0.01, 9000, 7)))
             | read(lambda: estimate_compound_channel(Z, Dirac(1.0), 1.0, 50, 7)))
    bench = read(lambda: mean_sampled_cost(1.0, 0.01, 10, 7))
    qpe = read(lambda: resolve_spectrum(np.diag([0.0, 1.0, 2.0]), 1.0, 10, 7))
    checks = read(lambda: verify.run_verification(dims=(2,), trials=1, seed=7))
    assert len(bench) == 1 and len(qpe) == 3 and len(checks) == 5
    for a, b in itertools.combinations((shots, bench, qpe, checks), 2):
        assert not a & b
    assert max(shots | bench | qpe | checks) < 1 << 64


def folded_truncated_normal_ks(costs, t: float, s_cut: float) -> float:
    """KS statistic of |s| against F(x) = erf(x / sqrt(2t)) / erf(S / sqrt(2t)) on [0, S]."""
    n = len(costs)
    scale = math.sqrt(2.0 * t)
    cdf = np.array([math.erf(x / scale) for x in np.sort(costs)]) / math.erf(s_cut / scale)
    grid = np.arange(1, n + 1) / n
    return max(np.abs(grid - cdf).max(), np.abs(cdf - (grid - 1.0 / n)).max())


# the estimator's own draws over four chunks; sqrt(n) KS > 2 has probability
# about 2 exp(-8) = 7e-4 under the null
@pytest.mark.parametrize("t,s_cut", [(1.0, cutoff(1.0, 0.01)),   # derived cutoff, normal proposal
                                     (4.0, 1.5)])                # S <= sqrt(t), uniform proposal
def test_estimate_channel_costs_follow_folded_truncated_normal(t, s_cut):
    n = 3 * 4096 + 5
    _, ledger = estimate_channel(Z, ShotPlan(t=t, epsilon=0.01, cutoff=s_cut, shots=n, seed=19))
    assert folded_truncated_normal_ks(ledger.per_shot_times, t, s_cut) <= 2.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# derived streams against numpy's own Philox(key=..., counter=...) construction
# ---------------------------------------------------------------------------

def reference_rng(seed: int, index: int) -> np.random.Generator:
    """Stream (seed, index) built the documented way: key seed mod 2^64, counter index << 192."""
    return np.random.Generator(np.random.Philox(key=seed % 2 ** 64, counter=index << 192))


def draws_of(rng: np.random.Generator) -> list[np.ndarray]:
    return [rng.normal(size=7), rng.poisson(3.5, size=7), rng.uniform(-2.0, 2.0, size=7),
            rng.integers(0, 2 ** 62, size=7)]


STREAM_SEEDS = [0, 7, -3, 2 ** 63 + 11, 2 ** 64 - 1]
STREAM_INDICES = [0, 1, 4095, 4096, QPE_STREAMS + 3, BENCH_STREAMS, VERIFY_STREAMS + 5,
                  2 ** 64 - 1]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_derived_rng_matches_reference_philox(seed):
    for index in STREAM_INDICES:
        ours, reference = draws_of(derived_rng(seed, index)), draws_of(reference_rng(seed, index))
        for a, b in zip(ours, reference):
            assert np.array_equal(a, b), (seed, index)


@pytest.mark.parametrize("index", [-1, 2 ** 64])
def test_derived_rng_rejects_index_outside_one_word(index):
    with pytest.raises(ValueError):
        derived_rng(7, index)


def philox_state(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return (tuple(state["state"]["counter"]), tuple(state["state"]["key"]),
            tuple(state["buffer"]), state["buffer_pos"], state["has_uint32"], state["uinteger"])


def used_generators(seed: int):
    """Philox generators that drew before: under another seed, mid-buffer, with a 32-bit half."""
    other = derived_rng(seed + 1, 5)
    other.normal(size=8)
    mid_buffer = derived_rng(seed, 3)
    mid_buffer.normal(size=3)  # an odd count leaves a partly read Philox buffer
    half = derived_rng(seed, 0)
    half.normal(size=2)
    half.integers(0, 10, size=1, dtype=np.uint32)  # keeps the other half of a 64-bit word
    assert half.bit_generator.state["has_uint32"] == 1
    return {"other-seed": other, "mid-buffer": mid_buffer, "pending-uint32": half}


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_derived_rng_reuse_draws_the_fresh_stream(seed):
    for index in STREAM_INDICES:
        for name, used in used_generators(seed).items():
            rng, fresh = derived_rng(seed, index, used), reference_rng(seed, index)
            assert rng is used
            assert philox_state(rng) == philox_state(fresh), (seed, index, name)
            # raw 32-bit draws first: they read a pending half, which draws_of never does
            ours = [rng.integers(0, 2 ** 32, size=3, dtype=np.uint32)] + draws_of(rng)
            reference = [fresh.integers(0, 2 ** 32, size=3, dtype=np.uint32)] + draws_of(fresh)
            for a, b in zip(ours, reference):
                assert np.array_equal(a, b), (seed, index, name)


def test_derived_rng_reuse_checks_index_and_bit_generator():
    used = derived_rng(7, 0)
    used.normal(size=3)
    before = philox_state(used)
    for index in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            derived_rng(7, index, used)
    assert philox_state(used) == before  # the index is checked before the state is set
    with pytest.raises(ValueError):
        derived_rng(7, 0, np.random.default_rng(0))


def test_derived_rng_reads_no_os_entropy(monkeypatch):
    calls = []
    real = bit_generator.randbits

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bit_generator, "randbits", counting)
    for index in range(50):
        derived_rng(11, index)
    assert calls == []


@pytest.mark.parametrize("rate", [0.0, 0.3, 2.0, 1000.0])
@pytest.mark.parametrize("base", [Gaussian(0.5), Dirac(1.25),
                                  FiniteMixture(atoms=((0.8, 0.5), (-0.4, 0.5)))],
                         ids=["gaussian", "dirac", "mixture"])
def test_compound_estimate_reads_reference_streams(monkeypatch, rate, base):
    op = HermitianOperator(random_hermitian(3, np.random.default_rng(5)))
    emp, ledger = estimate_compound_channel(op, base, rate, 40, seed=-9)
    # a fresh reference stream per shot, whatever generator the engine offers for reuse
    monkeypatch.setattr(sampling, "derived_rng",
                        lambda seed, index, reuse=None: reference_rng(seed, index))
    ref_emp, ref_ledger = estimate_compound_channel(op, base, rate, 40, seed=-9)
    assert np.array_equal(emp.multiplier, ref_emp.multiplier)
    assert np.array_equal(ledger.per_shot_times, ref_ledger.per_shot_times)
    assert (ledger.total_time, ledger.worst_case, ledger.shots) == \
        (ref_ledger.total_time, ref_ledger.worst_case, ref_ledger.shots)


# ---------------------------------------------------------------------------
# unbiasedness of the empirical multiplier over many seeds
# ---------------------------------------------------------------------------

# A shot adds exp(-i gap s) to each entry of the empirical multiplier, so the
# real and imaginary parts of a shot's entry lie in [-1, 1], and Hoeffding's
# inequality bounds a mean of n independent shots:
# P(|mean - E| >= u) <= 2 exp(-n u^2 / 2).
UNBIASED_SEEDS = 20
UNBIASED_SHOTS = 4000
UNBIASED_FALSE_ALARM = 1e-6  # family-wise, over every check of one test


def hoeffding_radius(shots: int, checks: int, false_alarm: float) -> float:
    """u with checks * 2 exp(-shots u^2 / 2) = false_alarm (a union bound over the checks)."""
    return math.sqrt(2.0 * math.log(2.0 * checks / false_alarm) / shots)


def assert_unbiased(estimates, expected: np.ndarray) -> None:
    """Each seed's multiplier, and their mean, lie within Hoeffding radii of the exact one.

    The checked quantities are the real and imaginary parts of the entries
    above the diagonal (the multiplier is Hermitian with unit diagonal). Half
    the false-alarm budget goes to the per-seed checks, half to the mean over
    all seeds, which is a mean of seeds * shots independent shots.
    """
    upper = np.triu_indices(expected.shape[0], 1)

    def parts(m):
        return np.concatenate([m[upper].real, m[upper].imag])

    deviations = np.array([parts(m) - parts(expected) for m in estimates])
    budget = UNBIASED_FALSE_ALARM / 2.0
    assert np.abs(deviations).max() <= hoeffding_radius(UNBIASED_SHOTS, deviations.size, budget)
    pooled_shots = len(estimates) * UNBIASED_SHOTS
    assert (np.abs(deviations.mean(axis=0)).max()
            <= hoeffding_radius(pooled_shots, deviations.shape[1], budget))


UNBIASED_OP = HermitianOperator(random_hermitian(4, np.random.default_rng(4), scale=1.5))


def test_truncated_gaussian_multiplier_is_unbiased_over_seeds():
    t, epsilon = 1.0, 0.01
    estimates = [estimate_channel(UNBIASED_OP, ShotPlan.with_derived_cutoff(
                     t, epsilon, UNBIASED_SHOTS, seed))[0].multiplier
                 for seed in range(UNBIASED_SEEDS)]
    law = TruncatedGaussian(variance=t, cutoff=cutoff(t, epsilon))
    assert_unbiased(estimates, exact_channel(UNBIASED_OP, law).multiplier)


def test_compound_multiplier_is_unbiased_over_seeds():
    # an asymmetric base law gives the multiplier imaginary parts to check
    base, t = FiniteMixture(((0.6, 0.25), (-1.1, 0.75))), 1.5
    estimates = [estimate_compound_channel(UNBIASED_OP, base, t, UNBIASED_SHOTS, seed)[0].multiplier
                 for seed in range(UNBIASED_SEEDS)]
    law = CompoundPoisson(rate=t, base=base)
    assert_unbiased(estimates, exact_channel(UNBIASED_OP, law).multiplier)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
       st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40))
def test_empirical_multiplier_is_hermitian_psd_unit_diagonal(spectrum, times):
    m = empirical_channel(np.diag(spectrum), times).multiplier
    assert np.abs(m - m.conj().T).max() <= 1e-14
    assert np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() >= -1e-12
    assert np.abs(np.diag(m) - 1.0).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_choi_of_schur_matches_superoperator_route(d, seed):
    rng = np.random.default_rng(seed)
    op = HermitianOperator(random_hermitian(d, rng))
    m = SchurMultiplier(op.eigenvectors, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    expected = choi_of_superoperator(superoperator_of_schur(m))
    assert np.abs(choi_of_schur(m) - expected).max() <= 1e-12


# ---------------------------------------------------------------------------
# compound Poisson sampling
# ---------------------------------------------------------------------------

def test_compound_poisson_kicks_moments():
    rng = derived_rng(29, 0)
    n = 40_000
    draws = np.array([compound_poisson_kicks(2.0, Dirac(0.5), rng).sum() for _ in range(n)])
    # s = 0.5 N with N ~ Poisson(2): mean 1.0, variance 0.5
    assert abs(draws.mean() - 1.0) < 4.0 * math.sqrt(0.5 / n)
    assert abs(draws.var() - 0.5) < 0.03
    assert compound_poisson_kicks(0.0, Dirac(0.5), rng).sum() == 0.0


def test_estimate_compound_channel_dirac_pi_identity():
    emp, ledger = estimate_compound_channel(Z, Dirac(math.pi), t=1.0, shots=20_000, seed=4)
    identity = choi_of_superoperator(np.eye(4))
    assert choi_trace_distance(emp.choi, identity) <= 0.02
    # each kick costs pi, so the mean cost tracks t * E|X| = pi
    mean_cost = ledger.total_time / ledger.shots
    stderr = ledger.per_shot_times.std(ddof=1) / math.sqrt(ledger.shots)
    assert abs(mean_cost - math.pi) <= 3.0 * stderr


def test_estimate_compound_channel_mixture_cost():
    base = FiniteMixture(atoms=((0.8, 0.5), (-0.4, 0.5)))
    t = 2.5
    emp, ledger = estimate_compound_channel(Z, base, t=t, shots=20_000, seed=9)
    expected = t * (0.5 * 0.8 + 0.5 * 0.4)
    mean_cost = ledger.total_time / ledger.shots
    stderr = ledger.per_shot_times.std(ddof=1) / math.sqrt(ledger.shots)
    assert abs(mean_cost - expected) <= 3.0 * stderr
    exact = choi_of(Z, CompoundPoisson(rate=t, base=base))
    assert choi_trace_distance(emp.choi, exact) <= 0.05


def test_compound_kick_count_is_poisson():
    # the mean and pmf checks are Bernstein tail bounds, union-bounded to a
    # false-alarm rate of 1e-6 for the whole test; the variance check allows
    # eight standard errors, a normal-approximation tail of about 1e-15
    cases = ((3.0, 40_000, range(0, 13)), (1000.0, 20_000, range(900, 1101, 10)))
    log_terms = math.log(2.0 * sum(1 + len(ks) for _, _, ks in cases) / 1e-6)
    for rate, n, ks in cases:
        rng = derived_rng(13, int(rate))
        counts = np.array([compound_poisson_kicks(rate, Dirac(1.0), rng).size for _ in range(n)])
        # the total is Poisson(n rate); Bernstein: P(|T - mu| > x) <= 2 exp(-x^2 / (2 (mu + x/3)))
        mu = n * rate
        x = math.sqrt(2.0 * mu * log_terms) + 2.0 * log_terms / 3.0
        assert abs(counts.sum() - mu) <= x, rate
        # the sample variance has standard error sqrt((rate + 2 rate^2) / n)
        assert abs(counts.var() - rate) <= 8.0 * math.sqrt((rate + 2.0 * rate ** 2) / n), rate
        # each frequency is a Binomial(n, p) mean; Bernstein again
        for k in ks:
            p = math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))
            tol = math.sqrt(2.0 * p * (1.0 - p) * log_terms / n) + 2.0 * log_terms / (3.0 * n)
            assert abs((counts == k).mean() - p) <= tol, (rate, k)
    assert compound_poisson_kicks(0.0, Dirac(1.0), rng).size == 0
    with pytest.raises(ValueError):
        compound_poisson_kicks(2.0 * MAX_SAMPLED_RATE, Dirac(1.0), rng)


def test_estimate_compound_channel_at_rate_1000():
    t, shots = 1000.0, 200
    emp, ledger = estimate_compound_channel(Z, Dirac(math.pi), t, shots, seed=8)
    assert np.abs(emp.multiplier - 1.0).max() <= 1e-9
    # the kick count is Poisson(t): its shot mean has standard error
    # sqrt(t / shots), and a 6-sigma miss has probability below 2e-9
    mean_kicks = ledger.total_time / shots / math.pi
    assert abs(mean_kicks - t) <= 6.0 * math.sqrt(t / shots)


def test_compound_estimate_memory_stays_bounded_at_high_rate():
    # 50 shots of about 1e5 kicks: one shot's kicks and their magnitudes take
    # 1.6 MB, while holding every shot's kicks at once would take 80 MB
    tracemalloc.start()
    try:
        _, ledger = estimate_compound_channel(Z, Gaussian(0.5), 1e5, 50, seed=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ledger.shots == 50
    assert peak <= 8e6


def test_estimate_compound_channel_zero_time():
    emp, ledger = estimate_compound_channel(Z, Dirac(1.0), t=0.0, shots=50, seed=2)
    assert np.abs(emp.choi - choi_of_superoperator(np.eye(4))).max() < 1e-15
    assert ledger.total_time == 0.0


def test_compound_rate_cap_raises_before_any_stream(monkeypatch):
    indices = []

    def counting(seed, index, reuse=None):
        indices.append(index)
        return derived_rng(seed, index, reuse)

    monkeypatch.setattr(sampling, "derived_rng", counting)
    rate = 2.0 * MAX_SAMPLED_RATE
    message = f"rate {rate} too large to sample (at most {MAX_SAMPLED_RATE:g})"
    with pytest.raises(ValueError, match=re.escape(message)):
        estimate_compound_channel(Z, Gaussian(0.5), rate, 10, seed=3)
    assert indices == []


def test_compound_estimate_at_rate_zero_draws_no_stream(monkeypatch):
    indices = []

    def counting(seed, index, reuse=None):
        indices.append(index)
        return derived_rng(seed, index, reuse)

    monkeypatch.setattr(sampling, "derived_rng", counting)
    emp, ledger = estimate_compound_channel(Z, Gaussian(0.5), t=0.0, shots=40, seed=3)
    assert indices == []
    assert np.array_equal(emp.multiplier, np.ones((2, 2)))
    assert np.array_equal(ledger.per_shot_times, np.zeros(40))


# ---------------------------------------------------------------------------
# scaling diagnostics
# ---------------------------------------------------------------------------

def test_scaling_table_constant_ratio():
    eps = 0.01
    rows = scaling_table([1.0, 10.0, 100.0, 1000.0], eps)
    target = math.sqrt(2.0 * math.log(4.0 / eps))
    for _, _, ratio in rows:
        assert abs(ratio - target) < 1e-12
    # the sqrt(2) row from the closed-form epsilon
    rows_e = scaling_table([1.0, 4.0], 4.0 / math.e)
    for _, _, ratio in rows_e:
        assert abs(ratio - math.sqrt(2.0)) < 1e-12


def test_mean_sampled_cost_grows_as_sqrt_t():
    eps, draws, seed = 0.01, 10_000, 3
    costs = [mean_sampled_cost(t, eps, draws, seed) for t in (1.0, 10.0, 100.0)]
    for lo, hi in zip(costs, costs[1:]):
        assert abs(hi / lo - math.sqrt(10.0)) < 0.05 * math.sqrt(10.0)
