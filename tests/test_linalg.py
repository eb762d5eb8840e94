import numpy as np
import pytest

from twirlsim import (
    HermiticityError,
    HermitianOperator,
    ShapeError,
    dissipator_matrix,
    eig_hermitian,
    random_hermitian,
    trace_norm,
    unvec,
    vec,
)
from twirlsim.linalg import _canonical_phases

from oracles import (
    canonical_phases_by_column,
    canonical_phases_by_pivot_loop,
    dissipator_matrix_by_kron,
    pauli_matrix_by_kron,
    random_hermitian_by_norm,
)

rng = np.random.default_rng(42)

Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_eigh_ascending_and_reconstruction():
    for dim in (2, 3, 4, 8):
        h = random_hermitian(dim, rng, scale=2.0)
        op = HermitianOperator(h)
        assert np.all(np.diff(op.eigenvalues) >= 0)
        assert np.abs(op.function_of(op.eigenvalues) - h).max() < 1e-10
        gram = op.eigenvectors.conj().T @ op.eigenvectors
        assert np.abs(gram - np.eye(dim)).max() < 1e-10


def test_eigh_is_deterministic():
    h = random_hermitian(5, rng)
    a_values, a_vectors = eig_hermitian(h)
    b_values, b_vectors = eig_hermitian(h)
    assert np.array_equal(a_values, b_values)
    assert np.array_equal(a_vectors, b_vectors)


def test_eigh_phase_convention():
    # largest-magnitude component of every eigenvector is real positive
    h = random_hermitian(6, rng)
    _, vectors = eig_hermitian(h)
    for col in range(6):
        v = vectors[:, col]
        pivot = v[np.argmax(np.abs(v))]
        assert abs(pivot.imag) < 1e-14
        assert pivot.real > 0


def test_eigh_degenerate_identity():
    op = HermitianOperator(np.eye(3))
    assert np.allclose(op.eigenvalues, 1.0)
    assert np.abs(op.function_of(op.eigenvalues) - np.eye(3)).max() < 1e-12


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
    k = dissipator_matrix(Z)
    assert np.array_equal(np.diag(k), np.array([0, 2, -2, 0], dtype=complex))
    assert np.abs(k - np.diag(np.diag(k))).max() == 0


def test_kron_vec_correspondence():
    # (A0 (x) A1) vec(B) = vec(A0 B A1^T)
    for _ in range(10):
        a0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        lhs = np.kron(a0, a1) @ vec(b)
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


def test_unitary_at_stacks_over_an_array_of_times():
    op = HermitianOperator(random_hermitian(4, np.random.default_rng(3)))
    times = np.linspace(-3.0, 3.0, 7).reshape(7, 1)
    stack = op.unitary_at(times)
    assert stack.shape == (7, 1, 4, 4)
    for k, s in enumerate(times[:, 0]):
        assert np.array_equal(stack[k, 0], op.unitary_at(s))
    values = np.exp(-0.5 * times * op.eigenvalues ** 2)
    assert np.array_equal(op.function_of(values)[3], op.function_of(values[3]))


def test_hermitian_operator_caches_and_evolves():
    op = HermitianOperator(Z)
    assert op.dim == 2
    assert np.allclose(op.eigenvalues, [-1.0, 1.0])
    u = op.unitary_at(0.7)
    direct = np.diag(np.exp(-1j * np.array([1.0, -1.0]) * 0.7))
    assert np.abs(u - direct).max() < 1e-14
    assert np.abs(op.unitary_at(0.0) - np.eye(2)).max() == 0
    lam = op.eigenvalues
    assert np.array_equal(lam[:, None] - lam, np.array([[0.0, -2.0], [2.0, 0.0]]))


# ---------------------------------------------------------------------------
# byte identity with the replaced forms (tests/oracles.py)
# ---------------------------------------------------------------------------

BYTE_DIMS = (1, 2, 3, 8, 64, 256)


def _byte_identity_inputs(dims):
    """(label, Hermitian matrix): random complex, real-symmetric, degenerate and Pauli sums."""
    g = np.random.default_rng(2024)
    for d in dims:
        for k in range(2):
            a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
            yield f"complex-d{d}-{k}", (a + a.conj().T) / 2.0
            b = g.normal(size=(d, d))
            yield f"real-symmetric-d{d}-{k}", ((b + b.T) / 2.0).astype(complex)
        levels = g.choice([-1.0, 0.0, 2.5], size=d)
        yield f"degenerate-diagonal-d{d}", np.diag(levels).astype(complex)
        q, _ = np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))
        rotated = (q * levels) @ q.conj().T
        yield f"degenerate-rotated-d{d}", (rotated + rotated.conj().T) / 2.0
        qubits = d.bit_length() - 1
        if d == 2 ** qubits and qubits > 0:
            terms = [(float(g.uniform(-1, 1)), "".join(g.choice(list("IXYZ"), size=qubits)))
                     for _ in range(2 * qubits + 1)]
            yield f"pauli-d{d}", pauli_matrix_by_kron(terms, qubits)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape, memory layout and raw bytes."""
    return (a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


def test_canonical_phases_match_the_column_loop_byte_for_byte():
    for label, m in _byte_identity_inputs(BYTE_DIMS):
        vectors = np.linalg.eigh(m)[1]
        assert _same_bytes(_canonical_phases(vectors), canonical_phases_by_column(vectors)), label


def _tied_pivot_columns(vectors: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """vectors with one column's largest entry copied, times a unit phase, to a
    neighbouring row, so that the column's two largest magnitudes tie exactly,
    and with the last column zeroed."""
    out = vectors.copy()
    col = int(g.integers(out.shape[1]))
    top = int(np.argmax(np.abs(out[:, col])))
    if out.shape[0] > 1:
        other = top + 1 if top + 1 < out.shape[0] else top - 1
        out[other, col] = out[top, col] * (1j, -1.0, -1j)[col % 3]
        assert abs(out[top, col]) == abs(out[other, col])
    out[:, -1] = 0.0
    return out


def test_gathered_pivots_match_the_pivot_loop():
    # numpy's array abs can differ from the scalar abs in the last bit, which the
    # gathered form avoids; a tie picks the first row in both
    g = np.random.default_rng(30)
    for d in range(1, 65):
        a = g.normal(size=(d, d))
        b = a + 1j * g.normal(size=(d, d))
        q, _ = np.linalg.qr(b)
        levels = g.choice([-1.0, 0.5, 2.0], size=d)
        # complex dtype throughout, as eig_hermitian's eigenvectors always are
        for h in ((b + b.conj().T) / 2.0, ((a + a.T) / 2.0).astype(complex),
                  (q * levels) @ q.conj().T):
            vectors = np.linalg.eigh(h)[1]
            for v in (vectors, _tied_pivot_columns(vectors, g)):
                want = canonical_phases_by_pivot_loop(v)
                assert np.array_equal(_canonical_phases(v), want), d
                assert _same_bytes(_canonical_phases(v), want), d


def test_random_hermitian_matches_norm_byte_for_byte():
    for dim in BYTE_DIMS:
        for seed in range(3):
            for scale in (1.0, 0.7, 1.5):
                got = random_hermitian(dim, np.random.default_rng(seed), scale=scale)
                expected = random_hermitian_by_norm(dim, np.random.default_rng(seed), scale=scale)
                assert _same_bytes(got, expected), (dim, seed, scale)
    # the identity random_hermitian relies on, over every kind of input
    for label, m in _byte_identity_inputs(BYTE_DIMS):
        norm = np.linalg.svd(m, compute_uv=False).max()
        assert norm.tobytes() == np.linalg.norm(m, 2).tobytes(), label


def test_dissipator_matches_kron_byte_for_byte():
    # K has d^4 entries, 268 MB at d=64; verify, its one caller, stops at d=32
    for label, m in _byte_identity_inputs((1, 2, 3, 8, 32)):
        op = HermitianOperator(m)
        assert _same_bytes(dissipator_matrix(op), dissipator_matrix_by_kron(op)), label
