import math

import numpy as np
import pytest

from twirlsim import ParseError, read_matrix, write_matrix
from twirlsim.matio import format_float, matrix_to_text, parse_matrix_text

from oracles import matrix_text_by_entry


def test_format_float_round_trips():
    for x in (1.0 / 3.0, math.pi, 1e-300, 1e300, -0.0, 0.1 + 0.2):
        assert float(format_float(x)) == x


SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, -math.nan]


def _with_specials() -> np.ndarray:
    """Seeded 14 x 14 entries of wide exponent; the top-left block takes every pair of specials."""
    rng = np.random.default_rng(58)
    parts = rng.normal(size=(2, 14, 14)) * 10.0 ** rng.integers(-320, 308, size=(2, 14, 14))
    n = len(SPECIALS)
    parts[0, :n, :n] = np.array(SPECIALS)[:, None]
    parts[1, :n, :n] = np.array(SPECIALS)[None, :]
    m = np.empty((14, 14), dtype=np.complex128)
    m.real, m.imag = parts  # assigned, not summed: 1j * inf would put a NaN in the real part
    return m


SPECIALS_MATRIX = _with_specials()
ROW_FORMAT_CASES = {
    "specials": SPECIALS_MATRIX,
    "transposed": SPECIALS_MATRIX.T,
    "fortran": np.asfortranarray(SPECIALS_MATRIX),
    "1x1": np.array([[1.0 / 3.0 - 7e-310j]]),
    "0x3": np.zeros((0, 3), dtype=np.complex128),
    "2x0": np.zeros((2, 0), dtype=np.complex128),
    "integer": np.arange(-5, 7).reshape(3, 4),
    "real": np.array([[0.1 + 0.2, -0.0], [1e300, -1e-300]]),
    "plus-imag": np.array([[1 + 2j]]),
    "minus-imag": np.array([[1 - 2j]]),
    "minus-zero-imag": np.array([[complex(1.0, -0.0)]]),
}
# the one entry of each sign case as the file spells it
SIGN_TEXTS = {"plus-imag": "1+2j", "minus-imag": "1-2j", "minus-zero-imag": "1-0j"}


@pytest.mark.parametrize("case", ROW_FORMAT_CASES)
def test_matrix_text_matches_per_entry_format(case):
    m = ROW_FORMAT_CASES[case]
    text = matrix_to_text(m)
    assert text == matrix_text_by_entry(m)
    if case in SIGN_TEXTS:
        assert text == f"1 1\n{SIGN_TEXTS[case]}\n"
    if m.size and np.isfinite(m).all():
        # read back exactly, the sign of every zero part included
        back = parse_matrix_text(text)
        assert np.array_equal(back, m)
        assert np.array_equal(np.signbit(back.real), np.signbit(np.real(m)))
        assert np.array_equal(np.signbit(back.imag), np.signbit(np.imag(m)))


def test_matrix_text_shape():
    text = matrix_to_text(np.eye(2))
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert len(lines) == 3
    assert text.endswith("\n")


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(44)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m[0, 0] = 1.0 / 3.0 + 1e-300j
    m[1, 2] = complex(math.pi, -0.0)
    path = tmp_path / "m.txt"
    write_matrix(path, m)
    back = read_matrix(path)
    assert np.array_equal(back, m)
    # writing the read-back matrix reproduces the file byte for byte
    path2 = tmp_path / "m2.txt"
    write_matrix(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_non_square_round_trip(tmp_path):
    m = np.arange(6, dtype=float).reshape(2, 3) + 0j
    path = tmp_path / "rect.txt"
    write_matrix(path, m)
    assert np.array_equal(read_matrix(path), m)


def test_header_errors():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("2\n1+0j 0+0j\n")
    assert err.value.line == 1
    assert "1 fields" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_matrix_text("a b\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_matrix_text("0 2\n")
    assert "positive" in str(err.value)
    with pytest.raises(ParseError):
        parse_matrix_text("")


def test_row_count_mismatch():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("2 2\n1+0j 0+0j\n")
    assert "expected 2 data rows, found 1" in str(err.value)


def test_entry_count_mismatch_reports_line():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("2 2\n1+0j 0+0j\n1+0j\n")
    assert err.value.line == 3
    assert "expected 2 entries, found 1" in str(err.value)


def test_bad_entry_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("2 2\n1+0j 0+0j\n0+0j oops\n")
    assert err.value.line == 3
    assert err.value.column == 2
    assert "'oops'" in str(err.value)


@pytest.mark.parametrize("text,line", [
    ("2 2\n\n1+0j oops\n0 0\n", 3),
    ("2 2\n1+0j 0+0j\n\n\n0+0j oops\n", 5),
    ("\n".join(["2 2", "", "1 0", "", "0"]) + "\n", 5),
], ids=["bad-entry-after-blank", "bad-entry-after-two-blanks", "short-row-after-blanks"])
def test_error_line_counts_blank_lines(text, line):
    with pytest.raises(ParseError) as err:
        parse_matrix_text(text)
    assert err.value.line == line


def test_non_finite_entry_reports_line_and_column():
    for token in ("nan+0j", "1+infj", "-inf+0j"):
        with pytest.raises(ParseError) as err:
            parse_matrix_text(f"2 2\n1+0j 0+0j\n0+0j {token}\n")
        assert (err.value.line, err.value.column) == (3, 2)
        assert "not finite" in str(err.value)


@pytest.mark.parametrize("cols", ["100000000000", "10000000000000000000"])
def test_header_size_is_checked_against_the_body_before_allocation(cols):
    # a 1 x 10^11 complex matrix is 1.46 TiB; 10^19 exceeds numpy's largest dimension
    with pytest.raises(ParseError) as err:
        parse_matrix_text(f"1 {cols}\n0\n")
    assert err.value.line == 2
    assert f"expected {cols} entries, found 1" in str(err.value)
