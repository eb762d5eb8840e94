import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlsim import (
    CompoundPoisson,
    Dirac,
    DistributionError,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    TruncatedGaussian,
    char_minus,
    levy_psi,
    sample_law,
    scale_triplet,
)
from twirlsim import distributions
from twirlsim.distributions import (
    TRUNCATED_CHAR_BLOCK,
    TRUNCATED_CHAR_MAX_PHASE,
    TRUNCATED_CHAR_NODES,
    TRUNCATED_CHAR_SIGMAS,
)

from oracles import truncated_char_rule_by_every_node

rng = np.random.default_rng(12)

mp.mp.dps = 30


def quad_char(density, lo, hi, omega, periods=8):
    """Independent characteristic-function oracle by high-precision quadrature.

    Breakpoints lie at most `periods` periods of exp(-i omega s) apart, so no
    subinterval oscillates more than the quadrature resolves.
    """
    pieces = 2 * max(1, math.ceil(abs(omega) * (hi - lo) / (4.0 * math.pi * periods)))
    points = mp.linspace(lo, hi, pieces + 1)
    num = mp.quad(lambda s: density(s) * mp.e ** (-1j * omega * s), points)
    den = mp.quad(density, points)
    return complex(num / den)


def test_gaussian_char_closed_form_and_quadrature():
    dist = Gaussian(variance=1.0)
    assert abs(char_minus(dist, 2.0) - math.exp(-2.0)) < 1e-15
    oracle = quad_char(lambda s: mp.e ** (-s ** 2 / 2), -40, 40, 1.3)
    assert abs(char_minus(dist, 1.3) - oracle) < 1e-12


def test_dirac_and_mixture_char():
    assert abs(char_minus(Dirac(0.7), 2.0) - np.exp(-1.4j)) < 1e-15
    mix = FiniteMixture(atoms=((1.0, 0.5), (-1.0, 0.5)))
    # symmetric two-atom law has a cosine characteristic function
    for w in (0.0, 0.5, 2.0):
        assert abs(char_minus(mix, w) - math.cos(w)) < 1e-15


def test_compound_poisson_char_frozen_value():
    # base N(0, 1), rate 1, gap 2: exp(exp(-2) - 1) = 0.42119274782353533
    dist = CompoundPoisson(rate=1.0, base=Gaussian(variance=1.0))
    value = char_minus(dist, 2.0)
    assert abs(value - math.exp(math.exp(-2.0) - 1.0)) < 1e-15
    assert abs(value - 0.42119274782353533) < 1e-15


# omega * sigma values past the 64-node rule's reach on one panel
LARGE_PHASES = (9.25, 16.0, 37.0, 100.0)


def test_truncated_gaussian_char_against_quadrature_oracle():
    # at the derived cutoff (S = 3.46 sigma); t = 4 with gap 18.5 is a one-qubit 9.25 Z
    for t in (1.0, 4.0):
        sigma, s_cut = math.sqrt(t), math.sqrt(2.0 * t * math.log(400.0))
        dist = TruncatedGaussian(variance=t, cutoff=s_cut)
        for ws in (0.0, 0.5, 2.0, 3.0) + LARGE_PHASES:
            w = ws / sigma
            oracle = quad_char(lambda s: mp.e ** (-s ** 2 / (2 * t)), -s_cut, s_cut, w)
            assert abs(char_minus(dist, w) - oracle) < 1e-12, (t, ws)
        # char(0) is exactly 1 because numerator and denominator share nodes
        assert char_minus(dist, 0.0) == 1.0


def test_truncated_gaussian_char_wide_window():
    # at S = 20 sigma, nodes spread over the whole window miss the density;
    # at variance 1e-190 the density underflows at every node
    t = 1.0
    for s_cut in (8.0, 20.0):
        dist = TruncatedGaussian(variance=t, cutoff=s_cut)
        for w in (0.5, 2.0, 3.0) + LARGE_PHASES:
            oracle = quad_char(lambda s: mp.e ** (-s ** 2 / (2 * t)), -s_cut, s_cut, w)
            assert abs(char_minus(dist, w) - oracle) < 1e-12, (s_cut, w)
    assert abs(char_minus(TruncatedGaussian(variance=1e-190, cutoff=1.0), 3.0) - 1.0) < 1e-15


def test_truncated_gaussian_char_large_gaps_against_closed_form():
    # far past any quadrature oracle's reach: exp(-b^2) Re erf(a + ib) / erf(a)
    # with a = S / sqrt(2v), b = omega sqrt(v/2), evaluated by mpmath
    def closed_form(v, s_cut, w):
        a, b = mp.mpf(s_cut) / mp.sqrt(2 * v), mp.mpf(w) * mp.sqrt(mp.mpf(v) / 2)
        return float(mp.e ** (-b * b) * mp.re(mp.erf(a + 1j * b)) / mp.erf(a))

    for v, ratio in ((1.0, 0.01), (4.0, 0.3), (0.25, math.sqrt(2.0 * math.log(400.0)))):
        s_cut = ratio * math.sqrt(v)
        ws = np.array([1e2, 1e3, 1e5, 1e7]) / math.sqrt(v)
        got = char_minus(TruncatedGaussian(variance=v, cutoff=s_cut), ws)
        for w, value in zip(ws, got):
            assert abs(value - closed_form(v, s_cut, w)) < 1e-12, (v, ratio, w)


def _truncated_rule_cases():
    """(law, omega) pairs: random spectra at d up to 70 over many variances and cutoffs,
    a frequency array longer than a block of the rule, and one gap past the rule's reach."""
    case_rng = np.random.default_rng(2020)
    cases = []
    for _ in range(80):
        d = int(case_rng.integers(1, 71))
        lam = case_rng.normal(scale=10 ** case_rng.uniform(-2.0, 1.5), size=d)
        variance = 10 ** case_rng.uniform(-3.0, 2.0)
        cutoff = math.sqrt(variance) * float(case_rng.choice(
            [math.sqrt(2.0 * math.log(4.0 / 0.01)), case_rng.uniform(0.01, 12.0), 1e3]))
        cases.append((TruncatedGaussian(variance=variance, cutoff=cutoff),
                      lam[:, None] - lam[None, :]))
    rows = TRUNCATED_CHAR_BLOCK // TRUNCATED_CHAR_NODES
    cases.append((TruncatedGaussian(variance=1.0, cutoff=3.0),
                  np.linspace(-9.0, 9.0, 4 * rows + 75)))
    cases.append((TruncatedGaussian(variance=4.0, cutoff=3.0), np.array([[0.0, 40.0],
                                                                        [-40.0, 0.0]])))
    return cases


def test_mirrored_truncated_rule_matches_the_every_node_rule_byte_for_byte(monkeypatch):
    # one cosine per node pair gives the same matrix, and so the same sums, only because
    # the Gauss-Legendre nodes are exactly antisymmetric and cos is exactly even
    nodes, _ = distributions._gl_nodes(TRUNCATED_CHAR_NODES)
    assert np.array_equal(nodes, -nodes[::-1])
    half = TRUNCATED_CHAR_NODES // 2
    rows = TRUNCATED_CHAR_BLOCK // TRUNCATED_CHAR_NODES
    branches, longest = set(), 0
    for dist, omega in _truncated_rule_cases():
        width = min(dist.cutoff, TRUNCATED_CHAR_SIGMAS * math.sqrt(dist.variance))
        freqs = np.unique(np.append(0.0, np.abs(omega)))
        near = freqs[freqs * width < TRUNCATED_CHAR_MAX_PHASE]
        branches.add((near.size > 1, near.size < freqs.size))
        longest = max(longest, near.size)
        x = np.multiply.outer(near, nodes[half:] * width)
        assert np.array_equal(np.cos(-x), np.cos(x))
        got = distributions._truncated_char_rule(dist.variance, width, near)
        want = truncated_char_rule_by_every_node(dist.variance, width, near)
        assert got.tobytes() == want.tobytes()
        value = char_minus(dist, omega)
        with monkeypatch.context() as patch:
            patch.setattr(distributions, "_truncated_char_rule", truncated_char_rule_by_every_node)
            assert value.tobytes() == char_minus(dist, omega).tobytes()
    # spectra on the rule only, on the series only, and on both; and more than one block
    assert {(True, False), (False, True), (True, True)} <= branches
    assert longest > rows


def test_truncated_rule_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # every block but a merged one-row tail is a matrix-vector product, whose row sums
    # do not depend on the rows beside them; a one-row block would be a dot product
    rows = TRUNCATED_CHAR_BLOCK // TRUNCATED_CHAR_NODES
    inputs = []
    for dist, omega in _truncated_rule_cases():
        width = min(dist.cutoff, TRUNCATED_CHAR_SIGMAS * math.sqrt(dist.variance))
        freqs = np.unique(np.append(0.0, np.abs(omega)))
        inputs.append((dist.variance, width, freqs[freqs * width < TRUNCATED_CHAR_MAX_PHASE]))
    # a one-row tail at the module's block size, and at every smaller one
    inputs += [(1.0, 3.0, np.linspace(0.0, 10.0, rows * k + 1)) for k in (1, 2, 8)]
    for variance, width, freqs in inputs:
        want = distributions._truncated_char_rule(variance, width, freqs).tobytes()
        for log2 in range(10, 19):
            with monkeypatch.context() as patch:
                patch.setattr(distributions, "TRUNCATED_CHAR_BLOCK", 1 << log2)
                got = distributions._truncated_char_rule(variance, width, freqs)
            assert got.tobytes() == want, (freqs.size, log2)


def test_truncated_rule_working_set_stays_within_a_block():
    # one block's cosines and phases plus the 256 KiB of sums: a 2^18-entry block
    # alone would take 2 MiB of mirrored cosines
    freqs = np.linspace(0.0, 10.0, 32769)
    distributions._gl_nodes(TRUNCATED_CHAR_NODES)
    tracemalloc.start()
    try:
        distributions._truncated_char_rule(1.0, 3.0, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_char_minus_vectorized_and_conjugate_symmetric():
    gaps = np.array([[0.0, -2.0], [2.0, 0.0]])
    for dist in (Gaussian(0.7), Dirac(1.2), FiniteMixture(atoms=((0.5, 0.3), (-1.0, 0.7))),
                 TruncatedGaussian(1.0, 2.5), CompoundPoisson(2.0, Dirac(0.4)),
                 LevyTriplet(0.3, -0.2, atoms=((1.5, 0.8),), compensated=True)):
        m = char_minus(dist, gaps)
        assert m.shape == (2, 2)
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert np.abs(np.diag(m) - 1.0).max() < 1e-12
        scalar = char_minus(dist, 2.0)
        assert scalar.shape == () and scalar.dtype == np.complex128
        assert abs(m[1, 0] - scalar) < 1e-15


def test_levy_psi_drift_and_zero():
    trip = LevyTriplet(sigma2=0.0, gamma=1.0, atoms=())
    for w in (-2.0, 0.3, 1.0):
        assert abs(levy_psi(trip, w) - (-1j * w)) < 1e-15
    assert levy_psi(trip, 0.0) == 0.0


def test_levy_psi_single_atom_uncompensated():
    trip = LevyTriplet(sigma2=0.0, gamma=0.0, atoms=((2.0, 1.0),))
    expected = np.exp(-2.0j) - 1.0
    assert abs(levy_psi(trip, 1.0) - expected) < 1e-15
    psi = levy_psi(trip, 0.3)
    assert psi.shape == () and psi.dtype == np.complex128
    # matches the compound Poisson characteristic function with Dirac base
    cp = CompoundPoisson(rate=1.0, base=Dirac(2.0))
    for w in (0.5, 1.0, 3.0):
        assert abs(np.exp(levy_psi(trip, w)) - char_minus(cp, w)) < 1e-14


def test_levy_psi_nonpositive_real_part():
    for _ in range(20):
        trip = LevyTriplet(
            sigma2=float(rng.uniform(0, 2)),
            gamma=float(rng.uniform(-2, 2)),
            atoms=((float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 2))),
                   (float(-rng.uniform(0.1, 3)), float(rng.uniform(0.1, 2)))),
            compensated=bool(rng.random() < 0.5),
        )
        w = rng.uniform(-5, 5, size=7)
        psi = levy_psi(trip, w)
        assert np.all(psi.real <= 1e-15)
        assert abs(levy_psi(trip, 0.0)) == 0.0


def test_levy_compensated_small_jump_term():
    trip = LevyTriplet(sigma2=0.0, gamma=0.0, atoms=((0.5, 2.0),), compensated=True)
    w = 1.7
    expected = 2.0 * (np.exp(-1j * w * 0.5) - 1.0 + 1j * w * 0.5)
    assert abs(levy_psi(trip, w) - expected) < 1e-15
    # a large jump is never compensated
    trip_big = LevyTriplet(sigma2=0.0, gamma=0.0, atoms=((1.5, 2.0),), compensated=True)
    expected_big = 2.0 * (np.exp(-1j * w * 1.5) - 1.0)
    assert abs(levy_psi(trip_big, w) - expected_big) < 1e-15


def test_scale_triplet_scales_exponent_linearly():
    trip = LevyTriplet(sigma2=0.4, gamma=-0.3, atoms=((1.2, 0.5),), compensated=True)
    w = np.linspace(-3, 3, 11)
    direct = 2.5 * levy_psi(trip, w)
    scaled = levy_psi(scale_triplet(trip, 2.5), w)
    assert np.abs(direct - scaled).max() < 1e-14


def test_scale_triplet_at_time_zero_is_point_mass():
    trip = LevyTriplet(sigma2=0.4, gamma=-0.3, atoms=((1.2, 0.5),), compensated=True)
    zero = scale_triplet(trip, 0.0)
    assert zero.atoms == ()
    assert np.array_equal(char_minus(zero, np.linspace(-3, 3, 11)), np.ones(11))
    with pytest.raises(DistributionError):
        scale_triplet(trip, -1.0)


def test_validation_errors():
    with pytest.raises(DistributionError):
        Gaussian(variance=-0.1)
    with pytest.raises(DistributionError):
        TruncatedGaussian(variance=1.0, cutoff=0.0)
    with pytest.raises(DistributionError):
        FiniteMixture(atoms=((1.0, 0.4), (2.0, 0.4)))  # sums to 0.8
    with pytest.raises(DistributionError):
        FiniteMixture(atoms=())
    with pytest.raises(DistributionError):
        CompoundPoisson(rate=1.0, base=Dirac(0.0))
    with pytest.raises(DistributionError):
        CompoundPoisson(rate=1.0, base=FiniteMixture(atoms=((0.0, 0.5), (1.0, 0.5))))
    with pytest.raises(DistributionError):
        CompoundPoisson(rate=1.0, base=Gaussian(variance=0.0))
    with pytest.raises(DistributionError):
        CompoundPoisson(rate=-1.0, base=Dirac(1.0))
    with pytest.raises(DistributionError):
        LevyTriplet(sigma2=-1.0, gamma=0.0)
    with pytest.raises(DistributionError):
        LevyTriplet(sigma2=0.0, gamma=0.0, atoms=((0.0, 1.0),))
    with pytest.raises(DistributionError):
        LevyTriplet(sigma2=0.0, gamma=0.0, atoms=((1.0, -1.0),))


def test_sample_law_moments():
    g = np.random.default_rng(3)
    xs = sample_law(Gaussian(variance=4.0), g, size=200_000)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.var() - 4.0) < 0.05
    assert np.all(sample_law(Dirac(1.5), g, size=8) == 1.5)
    mix = FiniteMixture(atoms=((2.0, 0.25), (-1.0, 0.75)))
    ys = sample_law(mix, g, size=200_000)
    assert abs(ys.mean() - (2.0 * 0.25 - 1.0 * 0.75)) < 0.01
    assert set(np.unique(ys)) == {2.0, -1.0}


def test_base_samplers_draw_float64():
    # the compound Poisson shot loop sums these draws without converting them
    g = np.random.default_rng(3)
    for law in (Gaussian(variance=0.5), Dirac(location=2), Dirac(location=-1.25),
                FiniteMixture(atoms=((2, 0.5), (-1, 0.5)))):
        for size in (0, 1, 5):
            assert sample_law(law, g, size=size).dtype == np.float64, (law, size)


@pytest.mark.parametrize("atoms", [
    ((2.0, 0.25), (-1.0, 0.75)),
    ((0.8, 0.5), (-0.4, 0.5)),
    ((0.1, 0.2), (5.0, 0.0), (-3.0, 0.8)),  # a zero-probability atom is never drawn
    ((-0.7, 1 / 3), (0.3, 1 / 3), (1.9, 1 / 3)),
    ((4.0, 1.0),),
], ids=["quarter", "half", "zero-atom", "thirds", "one-atom"])
def test_mixture_draw_matches_generator_choice(atoms):
    mix = FiniteMixture(atoms=atoms)
    locations = np.array([s for s, _ in atoms])
    probs = np.array([p for _, p in atoms])
    for seed in range(40):
        for size in (0, 1, 2, 3, 17, 100):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = sample_law(mix, ours, size=size)
            expected = locations[theirs.choice(len(atoms), size=size, p=probs / probs.sum())]
            assert drawn.tobytes() == expected.tobytes()
            assert ours.random() == theirs.random()


# ---------------------------------------------------------------------------
# properties of char_minus over random laws
# ---------------------------------------------------------------------------

nonzero = st.floats(-8.0, 8.0).filter(lambda x: abs(x) > 1e-3)
positive = st.floats(1e-3, 3.0)


@st.composite
def mixtures(draw, locations=st.floats(-8.0, 8.0)):
    atoms = draw(st.lists(st.tuples(locations, positive), min_size=1, max_size=5))
    total = math.fsum(w for _, w in atoms)
    return FiniteMixture(atoms=tuple((s, w / total) for s, w in atoms))


# jump laws with no atom at zero, as a compound Poisson base requires
base_laws = st.one_of(st.builds(Dirac, nonzero), mixtures(nonzero),
                      st.builds(Gaussian, positive))
triplets = st.builds(LevyTriplet, st.floats(0.0, 3.0), st.floats(-3.0, 3.0),
                     st.lists(st.tuples(nonzero, positive), max_size=4).map(tuple),
                     st.booleans())
all_laws = st.one_of(
    st.builds(Gaussian, st.floats(0.0, 20.0)),
    st.builds(TruncatedGaussian, st.floats(0.0, 20.0), st.floats(0.01, 20.0)),
    st.builds(Dirac, st.floats(-20.0, 20.0)),
    mixtures(),
    st.builds(CompoundPoisson, st.floats(0.0, 20.0), base_laws),
    triplets,
)
omegas = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8).map(np.array)
times = st.floats(0.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(all_laws, omegas)
def test_char_minus_is_one_at_zero_and_bounded(dist, omega):
    assert abs(char_minus(dist, 0.0) - 1.0) <= 1e-12
    assert np.abs(char_minus(dist, omega)).max() <= 1.0 + 1e-12


def gaussian_at(_, t):
    return Gaussian(variance=t)


def compound_at(base, t):
    return CompoundPoisson(rate=t, base=base)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.tuples(st.just(gaussian_at), st.none()),
                 st.tuples(st.just(compound_at), base_laws),
                 st.tuples(st.just(scale_triplet), triplets)),
       times, times, omegas)
def test_char_minus_semigroup_for_time_scalable_laws(family, t1, t2, omega):
    at_time, law = family
    product = char_minus(at_time(law, t1), omega) * char_minus(at_time(law, t2), omega)
    assert np.abs(product - char_minus(at_time(law, t1 + t2), omega)).max() <= 1e-12
