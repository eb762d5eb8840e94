import math
import warnings

import numpy as np
import pytest

from twirlsim import (
    CPTPWarning,
    SchurMultiplier,
    apply_choi,
    apply_schur,
    apply_superoperator,
    basis_state,
    check_choi,
    check_density_matrix,
    choi_of_superoperator,
    choi_of_unitary,
    choi_trace_distance,
    cptp_check,
    eig_hermitian,
    maximally_mixed,
    partial_trace_output,
    plus_state,
    random_density_matrix,
    superoperator_of_schur,
    superoperator_of_unitary,
    trace_norm,
    vec,
)

rng = np.random.default_rng(7)

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = plus_state(1)


def dephasing_multiplier(off: float) -> SchurMultiplier:
    basis = eig_hermitian(Z).eigenvectors
    m = np.array([[1.0, off], [off, 1.0]], dtype=complex)
    return SchurMultiplier(basis, m)


def test_density_matrix_checks():
    check_density_matrix(PLUS)
    check_density_matrix(maximally_mixed(3))
    check_density_matrix(basis_state(4, 2))
    for _ in range(5):
        check_density_matrix(random_density_matrix(4, rng))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian


def test_apply_schur_dephases_plus_state():
    out = apply_schur(dephasing_multiplier(math.exp(-2.0)), PLUS)
    # off-diagonal shrinks to 0.5 e^{-2} = 0.06766764...
    assert abs(out[0, 1] - 0.5 * math.exp(-2.0)) < 1e-12
    assert abs(out[1, 0] - 0.5 * math.exp(-2.0)) < 1e-12
    assert abs(out[0, 0] - 0.5) < 1e-12
    check_density_matrix(out)


def test_apply_schur_all_ones_is_exact_identity():
    m = SchurMultiplier(eig_hermitian(Z).eigenvectors, np.ones((2, 2), dtype=complex))
    for _ in range(50):
        rho = random_density_matrix(2, rng)
        assert np.array_equal(apply_schur(m, rho), rho)


def test_apply_schur_warns_on_broken_multiplier_but_returns():
    bad = np.array([[0.9, 0.0], [0.0, 1.0]], dtype=complex)
    m = SchurMultiplier(np.eye(2, dtype=complex), bad)
    with pytest.warns(CPTPWarning):
        out = apply_schur(m, basis_state(2, 0))
    assert abs(out[0, 0] - 0.9) < 1e-15


def test_cptp_check_flags():
    good = cptp_check(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert good.is_cp and good.is_tp
    diag = cptp_check(np.array([[0.9, 0.0], [0.0, 1.0]]))
    assert diag.is_cp and not diag.is_tp
    assert abs(diag.max_diag_deviation - 0.1) < 1e-15
    # off-diagonal above 1 breaks positivity but keeps the diagonal
    neg = cptp_check(np.array([[1.0, 1.5], [1.5, 1.0]]))
    assert not neg.is_cp and neg.is_tp
    assert neg.min_eigenvalue < -0.4


def test_choi_of_identity_superoperator():
    d = 2
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            expected[i * d:(i + 1) * d, j * d:(j + 1) * d] = unit
    choi = choi_of_superoperator(np.eye(4))
    assert np.array_equal(choi, expected)
    assert abs(choi.trace() - d) < 1e-15


def test_choi_of_unitary_matches_definition():
    for _ in range(5):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(h)[0]
        via_super = choi_of_superoperator(superoperator_of_unitary(u))
        assert np.abs(choi_of_unitary(u) - via_super).max() < 1e-12


def test_choi_cptp_structure():
    basis = eig_hermitian(Z).eigenvectors
    m = SchurMultiplier(basis, np.array([[1.0, 0.3], [0.3, 1.0]], dtype=complex))
    choi = choi_of_superoperator(superoperator_of_schur(m))
    report = check_choi(choi, 2)
    assert report.is_psd
    assert report.min_eigenvalue > -1e-10
    assert abs(report.trace - 2.0) < 1e-10
    assert report.tp_deviation < 1e-8
    assert np.abs(partial_trace_output(choi, 2) - np.eye(2)).max() < 1e-12


def test_identity_vs_dephasing_choi_distance_is_two():
    identity = choi_of_superoperator(np.eye(4))
    dephased = choi_of_superoperator(superoperator_of_schur(dephasing_multiplier(0.0)))
    assert abs(choi_trace_distance(identity, dephased) - 2.0) < 1e-12


def test_state_trace_distance_dephasing_value():
    # |+><+| against its t=1 dephased image: distance (1 - e^{-2}) / 2
    out = apply_schur(dephasing_multiplier(math.exp(-2.0)), PLUS)
    expected = 0.5 * (1.0 - math.exp(-2.0))
    assert abs(0.5 * trace_norm(PLUS - out) - expected) < 1e-12
    assert 0.5 * trace_norm(PLUS - PLUS) == 0.0


def test_superoperator_composition_is_matrix_product():
    for _ in range(5):
        h1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b1 = eig_hermitian(h1 + h1.conj().T).eigenvectors
        b2 = eig_hermitian(h2 + h2.conj().T).eigenvectors
        m1 = SchurMultiplier(b1, np.full((3, 3), 0.5) + 0.5 * np.eye(3))
        m2 = SchurMultiplier(b2, np.full((3, 3), 0.25) + 0.75 * np.eye(3))
        s1 = superoperator_of_schur(m1)
        s2 = superoperator_of_schur(m2)
        rho = random_density_matrix(3, rng)
        composed = apply_superoperator(s1 @ s2, rho)
        sequential = apply_schur(m1, apply_schur(m2, rho))
        assert np.abs(composed - sequential).max() < 1e-10


def test_apply_choi_matches_superoperator():
    for _ in range(5):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        basis = eig_hermitian(h + h.conj().T).eigenvectors
        m = SchurMultiplier(basis, np.full((3, 3), 0.4) + 0.6 * np.eye(3))
        s = superoperator_of_schur(m)
        rho = random_density_matrix(3, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_choi = apply_choi(choi_of_superoperator(s), rho)
        assert np.abs(via_choi - apply_superoperator(s, rho)).max() < 1e-12


def test_schur_superoperator_matches_apply():
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    basis = eig_hermitian(h + h.conj().T).eigenvectors
    mult = np.exp(-0.5 * (rng.uniform(0, 2, size=(4, 4)) + rng.uniform(0, 2, size=(4, 4)).T))
    np.fill_diagonal(mult, 1.0)
    m = SchurMultiplier(basis, mult.astype(complex))
    rho = random_density_matrix(4, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CPTPWarning)
        direct = apply_schur(m, rho)
        via_super = apply_superoperator(superoperator_of_schur(m), rho)
    assert np.abs(direct - via_super).max() < 1e-12
