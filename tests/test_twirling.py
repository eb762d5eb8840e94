import math

import numpy as np
import pytest

from twirlsim import (
    CommutationError,
    CompoundPoisson,
    Dirac,
    FiniteMixture,
    Gaussian,
    HermitianOperator,
    LevyTriplet,
    TruncatedGaussian,
    char_minus,
    cptp_check,
    dissipator_matrix,
    exact_channel,
    gaussian_evolution,
    hs_quadrature_check,
    plus_state,
    random_density_matrix,
    random_hermitian,
    scale_triplet,
    schur_multiplier_for,
    sequential_choi_commuting,
    vectorized_oracle,
)

from oracles import commuting_generator_oracle

rng = np.random.default_rng(23)

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PLUS = plus_state(1)


def test_gaussian_multiplier_z_frozen():
    m = exact_channel(Z, Gaussian(variance=1.0)).multiplier
    expected = np.array([[1.0, math.exp(-2.0)], [math.exp(-2.0), 1.0]])
    assert np.abs(m - expected).max() < 1e-15


def test_dirac_twirl_is_unitary_conjugation():
    s0 = 0.9
    op = HermitianOperator(random_hermitian(3, rng))
    channel = exact_channel(op, Dirac(s0))
    rho = random_density_matrix(3, rng)
    u = op.unitary_at(s0)
    assert np.abs(channel.apply(rho) - u @ rho @ u.conj().T).max() < 1e-12


def test_gaussian_evolution_dephasing_rates():
    for t in (0.1, 1.0, 5.0):
        out = gaussian_evolution(Z, PLUS, t)
        assert abs(abs(out[0, 1]) - 0.5 * math.exp(-2.0 * t)) < 1e-12


def test_gaussian_evolution_domain_and_identity():
    with pytest.raises(ValueError):
        gaussian_evolution(Z, PLUS, -0.5)
    assert np.array_equal(gaussian_evolution(Z, PLUS, 0.0), PLUS)


def test_gaussian_evolution_semigroup():
    h = random_hermitian(4, rng)
    rho = random_density_matrix(4, rng)
    two_step = gaussian_evolution(h, gaussian_evolution(h, rho, 0.4), 1.1)
    one_step = gaussian_evolution(h, rho, 1.5)
    assert np.abs(two_step - one_step).max() < 1e-12


def test_dissipator_matrix_z():
    k = dissipator_matrix(Z)
    assert np.array_equal(np.diag(k), np.array([0, 2, -2, 0], dtype=complex))


def test_vectorized_oracle_agrees_with_twirl():
    for dim in (2, 3, 4):
        for t in (0.0, 0.3, 2.0):
            h = random_hermitian(dim, rng, scale=1.5)
            rho = random_density_matrix(dim, rng)
            dev = np.abs(gaussian_evolution(h, rho, t) - vectorized_oracle(h, rho, t)).max()
            assert dev < 1e-10


def test_twirl_commutes_with_hamiltonian_conjugation():
    h = HermitianOperator(random_hermitian(3, rng))
    rho = random_density_matrix(3, rng)
    u = h.unitary_at(0.6)
    twirl_then_rotate = u @ gaussian_evolution(h, rho, 0.8) @ u.conj().T
    rotate_then_twirl = gaussian_evolution(h, u @ rho @ u.conj().T, 0.8)
    assert np.abs(twirl_then_rotate - rotate_then_twirl).max() < 1e-12


def test_levy_pure_drift_is_conjugation():
    # triplet (0, gamma, empty): time-t twirl conjugates by exp(-i gamma t H),
    # matching char_minus of the point mass at gamma*t
    gamma, t = 0.8, 1.3
    op = HermitianOperator(random_hermitian(3, rng))
    rho = random_density_matrix(3, rng)
    trip = LevyTriplet(sigma2=0.0, gamma=gamma, atoms=())
    out = exact_channel(op, scale_triplet(trip, t)).apply(rho)
    u = op.unitary_at(gamma * t)
    assert np.abs(out - u @ rho @ u.conj().T).max() < 1e-12
    dirac = exact_channel(op, Dirac(gamma * t)).apply(rho)
    assert np.abs(out - dirac).max() < 1e-12


def test_levy_two_pi_atom_on_z_is_identity():
    trip = LevyTriplet(sigma2=0.0, gamma=0.0, atoms=((math.pi, 1.0),))
    rho = random_density_matrix(2, rng)
    out = exact_channel(Z, scale_triplet(trip, 1.0)).apply(rho)
    assert np.abs(out - rho).max() < 1e-12


def test_levy_gaussian_part_matches_gaussian_twirl():
    trip = LevyTriplet(sigma2=1.0, gamma=0.0, atoms=())
    h = random_hermitian(3, rng)
    rho = random_density_matrix(3, rng)
    assert np.abs(exact_channel(h, scale_triplet(trip, 0.7)).apply(rho)
                  - gaussian_evolution(h, rho, 0.7)).max() < 1e-12


def test_exact_channel_compound_poisson_frozen_offdiagonal():
    out = exact_channel(Z, CompoundPoisson(rate=1.0, base=Gaussian(variance=1.0))).apply(PLUS)
    expected = 0.5 * math.exp(math.exp(-2.0) - 1.0)
    assert abs(out[0, 1] - expected) < 1e-14
    m = exact_channel(Z, CompoundPoisson(rate=1.0, base=Gaussian(1.0))).multiplier
    assert abs(m[0, 1] - 0.42119274782353533) < 1e-15


def test_multiplier_cptp_across_variants():
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        h = random_hermitian(dim, rng, scale=2.0)
        for dist in (Gaussian(0.8), TruncatedGaussian(1.0, 2.0), Dirac(-0.4),
                     FiniteMixture(atoms=((0.3, 0.5), (-1.1, 0.5))),
                     CompoundPoisson(1.5, Dirac(0.7)),
                     LevyTriplet(0.2, 0.5, atoms=((1.3, 0.4),), compensated=True)):
            report = cptp_check(schur_multiplier_for(h, dist).multiplier)
            assert report.is_cp, (dist, report)
            assert report.is_tp, (dist, report)


def test_hs_quadrature_z_and_random():
    assert hs_quadrature_check(Z, 1.0) < 1e-10
    for _ in range(5):
        h = random_hermitian(4, rng, scale=2.0)
        t = float(rng.uniform(0.1, 4.0))
        assert hs_quadrature_check(h, t) < 1e-8
    with pytest.raises(ValueError):
        hs_quadrature_check(Z, 0.0)


def test_sequential_commuting_matches_joint_oracle():
    h1 = np.kron(Z, I2)
    h2 = np.kron(I2, Z)
    rho = random_density_matrix(4, rng)
    seq = sequential_choi_commuting([h1, h2], rho, 0.9)
    joint = commuting_generator_oracle([h1, h2], rho, 0.9)
    assert np.abs(seq - joint).max() < 1e-10


def test_sequential_rejects_noncommuting_and_names_pair():
    rho = random_density_matrix(2, rng)
    with pytest.raises(CommutationError) as err:
        sequential_choi_commuting([Z, X], rho, 0.5)
    assert err.value.index_a == 0
    assert err.value.index_b == 1
    assert "H_0" in str(err.value) and "H_1" in str(err.value)


def test_schur_multiplier_entries_are_char_at_gaps():
    op = HermitianOperator(random_hermitian(4, rng))
    dist = Gaussian(variance=0.6)
    m = schur_multiplier_for(op, dist)
    lam = op.eigenvalues
    gaps = lam[:, None] - lam
    for j in range(4):
        for k in range(4):
            assert abs(m.multiplier[j, k] - char_minus(dist, gaps[j, k])) < 1e-12
