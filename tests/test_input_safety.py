"""The exact path reads its arguments and never writes them.

Multipliers, characteristic functions, the CPTP check, the channel
application and the eigendecomposition all reuse buffers of their own; each
must leave its arguments' bytes as they were and accept read-only arrays,
and what it returns must not share memory with them.
"""

import numpy as np
import pytest

from twirlsim import (
    CompoundPoisson,
    Dirac,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    SchurMultiplier,
    TruncatedGaussian,
    apply_schur,
    char_minus,
    cptp_check,
    eig_hermitian,
    random_density_matrix,
    random_hermitian,
)
from twirlsim.distributions import multiplier

# the six law families; the truncated Gaussian's window is narrow enough that
# wide gaps take its erfc series, and compound Poisson runs over both base kinds
LAWS = {
    "gaussian": Gaussian(variance=0.7),
    "truncated_gaussian": TruncatedGaussian(variance=1.0, cutoff=3.0),
    "dirac": Dirac(location=1.3),
    "mixture": FiniteMixture(atoms=((0.8, 0.5), (-0.4, 0.5))),
    "compound_poisson_gaussian": CompoundPoisson(rate=1.5, base=Gaussian(variance=0.5)),
    "compound_poisson_dirac": CompoundPoisson(rate=1.5, base=Dirac(location=0.9)),
    "levy": LevyTriplet(sigma2=0.4, gamma=0.3, atoms=((0.6, 0.5), (1.7, 0.2)), compensated=True),
}


def _read_only(a) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


def _unchanged(frozen: np.ndarray, original: np.ndarray) -> bool:
    return frozen.dtype == original.dtype and frozen.tobytes() == original.tobytes()


@pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
def test_multiplier_and_char_minus_read_their_arguments_only(law):
    g = np.random.default_rng(8)
    for d in (1, 5, 16):
        lam = np.sort(g.normal(scale=6.0, size=d))
        frozen = _read_only(lam)
        got = multiplier(law, frozen)
        assert _unchanged(frozen, lam)
        assert got.tobytes() == multiplier(law, lam).tobytes()
        assert got.flags.writeable and not np.shares_memory(got, frozen)
        gaps = lam[:, None] - lam[None, :]
        frozen_gaps = _read_only(gaps)
        got = char_minus(law, frozen_gaps)
        assert _unchanged(frozen_gaps, gaps)
        assert got.tobytes() == char_minus(law, gaps).tobytes()
        assert got.flags.writeable and not np.shares_memory(got, frozen_gaps)
    scalar = _read_only(np.float64(2.5))
    value = char_minus(law, scalar)
    assert scalar == 2.5 and value.shape == () and value.dtype == np.complex128


def test_cptp_check_reads_its_argument_only():
    g = np.random.default_rng(9)
    lam = np.sort(g.normal(size=6))
    gaps = lam[:, None] - lam[None, :]
    cases = [char_minus(Gaussian(variance=0.7), gaps),  # complex dtype, zero imaginary part
             char_minus(Gaussian(variance=0.7), gaps).real,
             char_minus(LAWS["mixture"], gaps),
             np.array([[1.0, 1.5], [1.5, 1.0]]),  # not CP
             np.array([[1.0, 0.5j], [0.2, 1.0]])]  # not Hermitian
    for m in cases:
        frozen = _read_only(m)
        report = cptp_check(frozen)
        report.min_eigenvalue  # the spectrum is computed on read, from the report's own buffer
        assert _unchanged(frozen, m)
        assert report == cptp_check(m)
        assert not np.shares_memory(report.hermitian_part, frozen)


def test_apply_schur_and_eig_hermitian_read_their_arguments_only():
    g = np.random.default_rng(10)
    for d in (1, 4, 32):
        h = random_hermitian(d, g)
        frozen_h = _read_only(h)
        w, v = eig_hermitian(frozen_h)
        assert _unchanged(frozen_h, h)
        assert all(a.tobytes() == b.tobytes() for a, b in zip((w, v), eig_hermitian(h)))
        rho = random_density_matrix(d, g)
        for law in (LAWS["gaussian"], LAWS["mixture"], Dirac(location=0.0)):  # the last: identity
            m = multiplier(law, w)
            channel = SchurMultiplier(_read_only(v), _read_only(m))
            frozen_rho = _read_only(rho)
            out = apply_schur(channel, frozen_rho)
            assert _unchanged(frozen_rho, rho)
            assert _unchanged(channel.eigenbasis, v) and _unchanged(channel.multiplier, m)
            assert out.tobytes() == apply_schur(SchurMultiplier(v, m), rho).tobytes()
            assert out.flags.writeable and not np.shares_memory(out, frozen_rho)
