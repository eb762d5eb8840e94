import numpy as np
import pytest

from twirlsim import (
    HermiticityError,
    HermitianOperator,
    ShapeError,
    eig_hermitian,
    kron,
    random_hermitian,
    trace_norm,
    unvec,
    vec,
)

rng = np.random.default_rng(42)

Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_eigh_ascending_and_reconstruction():
    for dim in (2, 3, 4, 8):
        h = random_hermitian(dim, rng, scale=2.0)
        dec = eig_hermitian(h)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.abs(dec.function_of(dec.eigenvalues) - h).max() < 1e-10
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-10


def test_eigh_is_deterministic():
    h = random_hermitian(5, rng)
    a = eig_hermitian(h)
    b = eig_hermitian(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigh_phase_convention():
    # largest-magnitude component of every eigenvector is real positive
    h = random_hermitian(6, rng)
    dec = eig_hermitian(h)
    for col in range(6):
        v = dec.eigenvectors[:, col]
        pivot = v[np.argmax(np.abs(v))]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0


def test_eigh_degenerate_identity():
    dec = eig_hermitian(np.eye(3))
    assert np.allclose(dec.eigenvalues, 1.0)
    assert np.abs(dec.function_of(dec.eigenvalues) - np.eye(3)).max() < 1e-12


def test_eigh_rejects_bad_input():
    with pytest.raises(ShapeError):
        eig_hermitian(np.ones((2, 3)))
    with pytest.raises(HermiticityError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # small asymmetry below the relative tolerance is accepted
    h = np.eye(2, dtype=complex)
    h[0, 1] = 1e-14
    eig_hermitian(h)


def test_vec_basis_convention():
    # vec index 2 in d=2 is the unit matrix |1><0|
    e = np.zeros(4)
    e[2] = 1.0
    assert np.array_equal(unvec(e, 2), np.array([[0, 0], [1, 0]], dtype=complex))
    b = rng.normal(size=(3, 3))
    assert np.array_equal(vec(b), np.asarray(b, dtype=complex).reshape(-1))


def test_vec_unvec_roundtrip():
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(unvec(vec(b), 4), b)
    with pytest.raises(ShapeError):
        unvec(np.zeros(5), 2)


def test_kron_dissipator_example():
    k = kron(Z, I2) - kron(I2, Z.T)
    assert np.array_equal(np.diag(k), np.array([0, 2, -2, 0], dtype=complex))
    assert np.abs(k - np.diag(np.diag(k))).max() == 0


def test_kron_vec_correspondence():
    # (A0 (x) A1) vec(B) = vec(A0 B A1^T)
    for _ in range(10):
        a0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = kron(a0, a1) @ vec(b)
        rhs = vec(a0 @ b @ a1.T)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_trace_norm_values_and_invariance():
    assert abs(trace_norm(Z) - 2.0) < 1e-12
    h = random_hermitian(4, rng)
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10
    # unitary invariance
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(trace_norm(u @ m) - trace_norm(m)) < 1e-10
    assert abs(trace_norm(m @ u) - trace_norm(m)) < 1e-10
    with pytest.raises(ShapeError):
        trace_norm(np.ones((2, 3)))


def test_hermitian_operator_caches_and_evolves():
    op = HermitianOperator(Z)
    assert op.dim == 2
    assert np.allclose(op.eigenvalues, [-1.0, 1.0])
    u = op.unitary_at(0.7)
    direct = np.diag(np.exp(-1j * np.array([1.0, -1.0]) * 0.7))
    assert np.abs(u - direct).max() < 1e-14
    assert np.abs(op.unitary_at(0.0) - np.eye(2)).max() == 0
    gaps = op.gaps()
    assert np.array_equal(gaps, np.array([[0.0, -2.0], [2.0, 0.0]]))
