"""Truncated-Gaussian, Dirac and mixture multipliers as Gram products of per-eigenvalue phases.

The reference is the gap route, char_minus on the d x d gap matrix
(oracles.multiplier_by_gaps); the Gram products agree with it to rounding and
are exactly Hermitian, exactly 1 at every zero gap, and byte-stable.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from twirlsim import (
    CompoundPoisson,
    Dirac,
    DistributionError,
    FiniteMixture,
    HermitianOperator,
    TruncatedGaussian,
    exact_channel,
    random_density_matrix,
)
from twirlsim.distributions import TRUNCATED_CHAR_MAX_PHASE, char_minus, multiplier

from oracles import multiplier_by_gaps

DIMS = (1, 2, 3, 8, 64, 256)
NORMS = (0.5, 2.0, 20.0)
TIMES = (0.25, 1.0, 4.0, 25.0)


def _spectra(d: int, norm: float, rng: np.random.Generator) -> list[np.ndarray]:
    """Ascending spectra of spectral norm `norm`: random, all of one sign, and with every
    eigenvalue repeated (zero gaps off the diagonal)."""
    lam = rng.uniform(-1.0, 1.0, size=d)
    mixed = np.sort(lam * (norm / np.abs(lam).max()))
    one_sign = np.sort(rng.uniform(0.5, 1.0, size=d)) * norm
    repeated = np.repeat(mixed[:(d + 1) // 2], 2)[:d]
    return [mixed, one_sign, repeated]


def _laws(t: float, rng: np.random.Generator) -> list:
    """At time t: the truncated Gaussian at its derived cutoff and at a narrow one, a Dirac
    and a three-atom mixture, their locations proportional to t."""
    locations = rng.uniform(-1.5, 1.5, size=3) * t
    probs = rng.dirichlet(np.ones(3))
    return [TruncatedGaussian(variance=t, cutoff=math.sqrt(2.0 * t * math.log(4.0 / 0.01))),
            TruncatedGaussian(variance=t, cutoff=0.7),
            Dirac(location=float(rng.uniform(0.5, 1.5)) * t),
            FiniteMixture(atoms=tuple(zip(locations.tolist(), probs.tolist())))]


def _cases(d: int, seed: int):
    rng = np.random.default_rng(seed)
    for norm in NORMS:
        for t in TIMES:
            for lam in _spectra(d, norm, rng):
                for law in _laws(t, rng):
                    yield lam, law


def test_gram_multipliers_agree_with_the_gap_route():
    branches, repeated = set(), 0
    for d in DIMS:
        for lam, law in _cases(d, seed=25 + d):
            got = multiplier(law, lam)
            want = multiplier_by_gaps(law, lam)
            assert got.dtype == np.complex128 and got.shape == (d, d)
            assert np.abs(got - want).max() <= 1e-12, (d, lam[0], lam[-1], law)
            if isinstance(law, TruncatedGaussian):
                phases = np.abs(lam[:, None] - lam) * law._window
                branches.add(((phases < TRUNCATED_CHAR_MAX_PHASE).any(),
                              (phases >= TRUNCATED_CHAR_MAX_PHASE).any()))
            repeated += d > 1 and (lam[1:] == lam[:-1]).any()
    # spectra on the quadrature rule only, and on the rule and the erfc series at once
    assert {(True, False), (True, True)} <= branches
    assert repeated > 0


@pytest.mark.parametrize("d", DIMS)
def test_gram_multipliers_are_hermitian_and_one_at_zero_gaps_bit_for_bit(d):
    for lam, law in _cases(d, seed=d):
        m = multiplier(law, lam)
        assert np.array_equal(m, m.conj().T)
        assert (m[lam[:, None] == lam] == 1.0).all()
        if isinstance(law, TruncatedGaussian):
            assert not m.imag.any()
        # a rerun, on a fresh law without its cached arrays, gives the same bytes
        assert multiplier(replace(law), lam.copy()).tobytes() == m.tobytes()


@pytest.mark.parametrize("law", [TruncatedGaussian(variance=1.0, cutoff=2.0), Dirac(1.3),
                                 FiniteMixture(atoms=((0.8, 0.5), (-0.4, 0.5)))])
def test_hamiltonian_proportional_to_identity_leaves_the_state_untouched(law):
    rho = random_density_matrix(4, np.random.default_rng(3))
    for c in (0.0, 0.7, -3.0):
        channel = exact_channel(HermitianOperator(c * np.eye(4)), law)
        assert (channel.multiplier == 1.0).all()
        out = channel.apply(rho)
        assert out is not rho and out.tobytes() == rho.tobytes()


def test_a_shifted_spectrum_agrees_as_well():
    # H + 1e4 I has the gaps of H; phases taken about the spectrum's midpoint
    # stay as small as a gap times a time, so the shift costs no accuracy
    rng = np.random.default_rng(44)
    for d in (2, 8, 64):
        lam = 1e4 + np.sort(rng.uniform(-2.0, 2.0, size=d))
        for law in _laws(4.0, rng):
            assert np.abs(multiplier(law, lam) - multiplier_by_gaps(law, lam)).max() <= 1e-12


def test_overflowing_phases_stay_non_finite():
    # the centred phases +-1e308 are finite, a location times the gap 2 is not; in the
    # last case the gap 1e-300 is in the rule's reach, while 5e307 times a node overflows
    lam = np.array([-1.0, 1.0])
    cases = [(Dirac(1e308), lam), (FiniteMixture(atoms=((1e308, 0.5), (-1.0, 0.5))), lam),
             (TruncatedGaussian(variance=1.0, cutoff=2.0), np.array([-1e308, 1e308])),
             (TruncatedGaussian(variance=100.0, cutoff=50.0), np.array([-1e308, 0.0, 1e-300]))]
    with np.errstate(over="ignore", invalid="ignore"):
        for law, eigenvalues in cases:
            m = multiplier(law, eigenvalues)
            assert not np.isfinite(m).all(), law
            assert np.array_equal(m, multiplier_by_gaps(law, eigenvalues), equal_nan=True)


def test_a_point_mass_is_the_one_atom_mixture_byte_for_byte():
    rng = np.random.default_rng(28)
    omegas = np.concatenate([[0.0, -0.0, 1e-300, -1e-300], rng.normal(size=60) * 10.0])
    locations = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.normal(size=20) * 3.0])
    for s in locations.tolist():
        point, mixture = Dirac(s), FiniteMixture(atoms=((s, 1.0),))
        assert point.atoms == mixture.atoms
        # the sign of a zero imaginary part shows in the bytes
        assert char_minus(point, omegas).tobytes() == char_minus(mixture, omegas).tobytes()
        for w in (0.0, -0.0):
            assert char_minus(point, w).tobytes() == char_minus(mixture, w).tobytes()
        for d in (1, 2, 8, 64):
            for lam in _spectra(d, float(rng.uniform(0.5, 20.0)), rng):
                assert multiplier(point, lam).tobytes() == multiplier(mixture, lam).tobytes()
        if s != 0.0:
            rate = float(rng.uniform(0.1, 5.0))
            assert (char_minus(CompoundPoisson(rate, point), omegas).tobytes()
                    == char_minus(CompoundPoisson(rate, mixture), omegas).tobytes())


def test_truncated_entries_beyond_the_rule_are_char_minus_byte_for_byte():
    reached = 0
    for d in (2, 8, 64):
        for lam, law in _cases(d, seed=d + 7):
            if not isinstance(law, TruncatedGaussian):
                continue
            gaps = lam[:, None] - lam
            far = np.abs(gaps) * law._window >= TRUNCATED_CHAR_MAX_PHASE
            got = multiplier(law, lam)[far]
            assert got.tobytes() == char_minus(law, gaps[far]).tobytes()
            reached += far.any()
    assert reached > 0


@pytest.mark.parametrize("location", [0.0, -0.0])
def test_a_point_mass_at_zero_is_no_compound_poisson_base(location):
    with pytest.raises(DistributionError, match="compound Poisson base has an atom at 0"):
        CompoundPoisson(1.0, Dirac(location))
