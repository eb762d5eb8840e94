import numpy as np
import pytest

from twirlsim import ParseError, parse_pauli_sum
from twirlsim.pauli import PAULI_MATRICES, pauli_word_matrix

X = PAULI_MATRICES["X"]
Y = PAULI_MATRICES["Y"]
Z = PAULI_MATRICES["Z"]
I2 = PAULI_MATRICES["I"]


def test_single_letter_matrices():
    assert np.array_equal(pauli_word_matrix("Z"), np.diag([1, -1]).astype(complex))
    assert np.array_equal(pauli_word_matrix("X"), np.array([[0, 1], [1, 0]], dtype=complex))


def test_word_matrix_matches_kron():
    assert np.array_equal(pauli_word_matrix("ZX"), np.kron(Z, X))
    assert np.array_equal(pauli_word_matrix("XYZ"), np.kron(np.kron(X, Y), Z))


def test_parse_two_qubit_sum():
    text = "\n".join([
        "# Ising pair with a field",
        "1.0  ZZ",
        "",
        "0.5  XI",
    ])
    op = parse_pauli_sum(text)
    expected = np.kron(Z, Z) + 0.5 * np.kron(X, I2)
    assert op.dim == 4
    assert np.abs(op.matrix - expected).max() == 0.0


def test_parse_accepts_iterable_of_lines():
    op = parse_pauli_sum(["-0.25 Y"])
    assert np.abs(op.matrix + 0.25 * Y).max() == 0.0


def test_parse_negative_and_scientific_coefficients():
    op = parse_pauli_sum("2.5e-1 Z\n-1 X")
    expected = 0.25 * Z - X
    assert np.abs(op.matrix - expected).max() == 0.0


def test_bad_letter_reports_line_and_column():
    text = "1.0 ZZ\n0.5 ZQ\n"
    with pytest.raises(ParseError) as err:
        parse_pauli_sum(text)
    assert err.value.line == 2
    assert err.value.column == 6
    assert "'Q'" in str(err.value)


def test_field_count_error():
    with pytest.raises(ParseError) as err:
        parse_pauli_sum("1.0 Z extra")
    assert err.value.line == 1
    assert "3 fields" in str(err.value)


def test_non_real_coefficient_rejected():
    with pytest.raises(ParseError) as err:
        parse_pauli_sum("1+2j Z")
    assert err.value.line == 1
    assert "not a real number" in str(err.value)


def test_non_finite_coefficient_rejected():
    for token in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ParseError) as err:
            parse_pauli_sum(f"1.0 Z\n{token} X")
        assert err.value.line == 2
        assert "not finite" in str(err.value)


def test_word_length_mismatch():
    with pytest.raises(ParseError) as err:
        parse_pauli_sum("1.0 ZZ\n1.0 Z")
    assert err.value.line == 2
    assert "length 1" in str(err.value)


def test_empty_input_rejected():
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(ParseError) as err:
            parse_pauli_sum(text)
        assert "no terms" in str(err.value)


def test_result_is_hermitian_operator():
    op = parse_pauli_sum("0.3 XY\n0.7 YX")
    assert np.abs(op.matrix - op.matrix.conj().T).max() == 0.0
    # XY + YX anticommuting pieces: eigenvalues come out symmetric
    assert np.allclose(op.eigenvalues + op.eigenvalues[::-1], 0.0, atol=1e-12)
