import math
import warnings

import numpy as np
import pytest

from twirlsim import (
    CompoundPoisson,
    CPTPReport,
    CPTPWarning,
    Dirac,
    FiniteMixture,
    Gaussian,
    HermitianOperator,
    HermiticityError,
    LevyTriplet,
    SchurMultiplier,
    ShapeError,
    ShotPlan,
    TruncatedGaussian,
    apply_choi,
    apply_schur,
    basis_state,
    char_minus,
    check_choi,
    check_density_matrix,
    choi_of_superoperator,
    choi_trace_distance,
    cptp_check,
    eig_hermitian,
    estimate_channel,
    estimate_compound_channel,
    exact_channel,
    maximally_mixed,
    plus_state,
    random_density_matrix,
    random_hermitian,
    scale_triplet,
    superoperator_of_schur,
    trace_norm,
    vec,
)
from twirlsim.channels import CP_EIG_TOL
from twirlsim.distributions import multiplier
from twirlsim.verify import _random_distributions

from oracles import (
    apply_choi_by_einsum,
    apply_superoperator,
    cptp_check_complex,
    partial_trace_output,
)

rng = np.random.default_rng(7)

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = plus_state(1)


def dephasing_multiplier(off: float) -> SchurMultiplier:
    basis = eig_hermitian(Z)[1]
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
    m = SchurMultiplier(eig_hermitian(Z)[1], np.ones((2, 2), dtype=complex))
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


REAL_LAWS = {"gaussian": Gaussian(variance=0.8),
             "truncated": TruncatedGaussian(variance=0.8, cutoff=2.1),
             "compound-gaussian": CompoundPoisson(rate=1.5, base=Gaussian(variance=0.5))}


@pytest.fixture
def linalg_dtypes(monkeypatch):
    """The dtype of every matrix passed to np.linalg.cholesky and to np.linalg.eigvalsh.

    One list per function, in call order.
    """
    seen = {"cholesky": [], "eigvalsh": []}
    for name, calls in seen.items():
        def recording(a, *args, _calls=calls, _wrapped=getattr(np.linalg, name), **kwargs):
            _calls.append(a.dtype)
            return _wrapped(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return seen


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
@pytest.mark.parametrize("law", REAL_LAWS.values(), ids=REAL_LAWS.keys())
def test_real_multiplier_checked_in_real_arithmetic(dim, law, linalg_dtypes):
    case_rng = np.random.default_rng(dim)
    for scale in (0.05, 1.0, 6.0):
        lam = np.sort(case_rng.normal(scale=scale, size=dim))
        m = char_minus(law, lam[:, None] - lam[None, :])
        assert m.dtype == np.complex128 and not m.imag.any()
        got = cptp_check(m)
        assert linalg_dtypes["cholesky"][-1] == np.float64
        n_spectra = len(linalg_dtypes["eigvalsh"])
        got_min_eig = got.min_eigenvalue
        assert linalg_dtypes["eigvalsh"][n_spectra:] == [np.float64]
        want = cptp_check_complex(m)
        want_min_eig = want.min_eigenvalue
        assert linalg_dtypes["eigvalsh"][-1] == np.complex128
        assert got.is_cp and got.is_tp
        assert (got.is_cp, got.is_tp, got.max_diag_deviation) == \
            (want.is_cp, want.is_tp, want.max_diag_deviation)
        assert abs(got_min_eig - want_min_eig) <= 1e-12


def test_real_path_takes_signed_zero_imaginary_parts_only(linalg_dtypes):
    lam = np.sort(rng.normal(size=6))
    m = char_minus(Gaussian(variance=0.7), lam[:, None] - lam[None, :])
    signed = m.copy()
    signed.imag = -0.0
    signed.imag[::2] = 0.0
    assert np.signbit(signed.imag).any()
    assert linalg_dtypes == {"cholesky": [], "eigvalsh": []}
    # equality compares min_eigenvalue, so it reads both spectra
    assert cptp_check(signed) == cptp_check(m)
    assert linalg_dtypes == {"cholesky": [np.float64, np.float64],
                             "eigvalsh": [np.float64, np.float64]}
    # the smallest imaginary part keeps the complex check, which alone sees this
    # multiplier fail: its real part is the identity, its eigenvalues are 1 +- 1.5
    for im in (5e-324, 1.5):
        m = np.array([[1.0, 1j * im], [-1j * im, 1.0]])
        report = cptp_check(m)
        assert linalg_dtypes["cholesky"][-1] == np.complex128
        assert report == cptp_check_complex(m)
        assert linalg_dtypes["eigvalsh"][-1] == np.complex128
        assert report.is_cp == (im < 1.0)


def test_spectrum_is_computed_once_and_only_when_read(linalg_dtypes):
    lam = np.sort(rng.normal(size=8))
    m = char_minus(FiniteMixture(atoms=((0.8, 0.5), (-0.4, 0.5))), lam[:, None] - lam[None, :])
    apply_schur(SchurMultiplier(np.eye(8, dtype=complex), m), maximally_mixed(8))
    report = cptp_check(m)
    assert linalg_dtypes == {"cholesky": [np.complex128] * 2, "eigvalsh": []}
    assert report.min_eigenvalue == report.min_eigenvalue == \
        float(np.linalg.eigvalsh(report.hermitian_part).min())
    assert linalg_dtypes["eigvalsh"] == [np.complex128] * 2


def test_reports_compare_their_min_eigenvalue():
    # the same verdicts and diagonal deviation, but smallest eigenvalues 1 and 2
    one, two = (CPTPReport(is_cp=True, is_tp=True, max_diag_deviation=0.0,
                           hermitian_part=k * np.eye(2)) for k in (1.0, 2.0))
    assert one != two
    assert one == CPTPReport(is_cp=True, is_tp=True, max_diag_deviation=0.0,
                             hermitian_part=np.eye(2))
    assert math.isnan(CPTPReport(is_cp=False, is_tp=False,
                                 max_diag_deviation=math.nan).min_eigenvalue)


def test_real_indefinite_multiplier_fails_cp_and_warns():
    for m in (np.array([[1.0, 1.5], [1.5, 1.0]]),  # symmetric, eigenvalue -0.5
              np.array([[1.0, 0.5], [0.2, 1.0]])):  # PSD symmetric part, but not symmetric
        report = cptp_check(m)
        want = cptp_check_complex(m)
        assert not report.is_cp and report.is_tp
        assert (report.is_cp, report.is_tp, report.max_diag_deviation) == \
            (want.is_cp, want.is_tp, want.max_diag_deviation)
        assert abs(report.min_eigenvalue - want.min_eigenvalue) <= 1e-12
        with pytest.warns(CPTPWarning, match=r"^multiplier fails CPTP check \(cp=False, tp=True\); "
                                             r"applying anyway$"):
            apply_schur(SchurMultiplier(np.eye(2, dtype=complex), m), PLUS)


def test_symmetry_defect_above_the_tolerance_fails_cp_and_warns():
    # a PSD Hermitian part whose defect alone decides the verdict
    for defect, is_cp in ((2e-9, False), (5e-10, True)):
        m = np.array([[1.0, 0.5 + defect], [0.5, 1.0]])
        report = cptp_check(m)
        assert (report.is_cp, report.is_tp) == (is_cp, True)
        assert report.min_eigenvalue > 0.4
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", CPTPWarning)
            apply_schur(SchurMultiplier(np.eye(2, dtype=complex), m), PLUS)
        assert [str(w.message) for w in caught] == \
            ([] if is_cp else ["multiplier fails CPTP check (cp=False, tp=True); applying anyway"])


def _rounding_band(herm) -> float:
    # the factorisation and the spectrum each see herm to within about
    # d * eps * ||herm||_2 (the backward error of Cholesky and of eigvalsh); the
    # measured gap between the two verdicts' thresholds is ~1.4 eps ||herm||_2
    return herm.shape[0] * np.finfo(np.float64).eps * max(1.0, float(np.linalg.norm(herm, 2)))


def _spectrum_verdict(m, report) -> bool:
    defect = float(np.abs(m - m.conj().T).max())
    return report.min_eigenvalue >= CP_EIG_TOL and defect <= abs(CP_EIG_TOL)


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
def test_factorisation_verdict_agrees_with_the_spectrum(dim):
    # all six laws' multipliers, as given and with the diagonal moved so that the
    # smallest eigenvalue lands at CP_EIG_TOL + offset; an offset of 0 lands in the
    # rounding band, where either verdict is right and none is checked
    case_rng = np.random.default_rng(dim)
    offsets = (-0.5, -1e-9, -1e-11, 0.0, 1e-11, 1e-9)
    checked = 0
    for _ in range(5):
        lam = np.sort(case_rng.normal(scale=case_rng.choice([0.05, 1.0, 6.0]), size=dim))
        for law in _random_distributions(case_rng):
            base = multiplier(law, lam)
            lowest = float(np.linalg.eigvalsh((base + base.conj().T) / 2.0).min())
            for m in [base] + [base - (lowest - CP_EIG_TOL - off) * np.eye(dim)
                               for off in offsets]:
                report = cptp_check(m)
                if abs(report.min_eigenvalue - CP_EIG_TOL) <= _rounding_band(report.hermitian_part):
                    continue
                assert report.is_cp == _spectrum_verdict(m, report)
                checked += 1
    assert checked >= 5 * 6 * len(offsets)


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
@pytest.mark.parametrize("field", [np.float64, np.complex128])
def test_factorisation_verdict_just_beside_the_tolerance(dim, field):
    # Hermitian matrices with spectrum in [0, 1] but for a smallest eigenvalue of
    # CP_EIG_TOL +- 1e-11, far outside the rounding band (under 1e-13 here)
    case_rng = np.random.default_rng(dim)
    for _ in range(10):
        g = case_rng.normal(size=(dim, dim))
        if field is np.complex128:
            g = g + 1j * case_rng.normal(size=(dim, dim))
        q = np.linalg.qr(g)[0]
        for off in (-1e-11, 1e-11):
            spectrum = case_rng.uniform(0.0, 1.0, size=dim)
            spectrum[case_rng.integers(dim)] = CP_EIG_TOL + off
            a = (q * spectrum) @ q.conj().T
            h = (a + a.conj().T) / 2.0
            report = cptp_check(h)
            assert _rounding_band(h) < 1e-13
            assert abs(report.min_eigenvalue - (CP_EIG_TOL + off)) < 1e-13
            assert report.is_cp == (report.min_eigenvalue >= CP_EIG_TOL) == (off > 0)


def test_every_law_applies_at_d64_without_cptp_warning():
    g = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    op = HermitianOperator(g + g.conj().T)
    rho = random_density_matrix(64, rng)
    laws = [Gaussian(variance=1.3), TruncatedGaussian(variance=1.3, cutoff=3.9),
            Dirac(location=0.9), FiniteMixture(atoms=((-0.6, 0.3), (1.1, 0.7))),
            CompoundPoisson(rate=1.3, base=Dirac(location=0.8)),
            CompoundPoisson(rate=1.3, base=Gaussian(variance=0.5)),
            scale_triplet(LevyTriplet(sigma2=0.4, gamma=0.2, atoms=((0.7, 0.5),),
                                      compensated=True), 1.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", CPTPWarning)
        for law in laws:
            check_density_matrix(exact_channel(op, law).apply(rho))


def _density_verdict(m):
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(m)


def _eigen_verdict(m):
    with pytest.raises(HermiticityError, match="non-finite"):
        eig_hermitian(m)


def _cptp_verdict(m):
    report = cptp_check(m)
    assert not report.is_cp and not report.is_tp
    assert math.isnan(report.min_eigenvalue) and math.isnan(report.max_diag_deviation)


@pytest.mark.parametrize("verdict", [_density_verdict, _eigen_verdict, _cptp_verdict])
@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("fill", ["all-nan", "one-inf"])
def test_non_finite_input_is_rejected_by_every_verdict(verdict, dim, fill):
    if fill == "all-nan":
        m = np.full((dim, dim), np.nan, dtype=complex)
    else:
        m = maximally_mixed(dim)
        m[dim - 1, dim - 1] = np.inf
    verdict(m)


@pytest.mark.parametrize("fill", [np.nan, np.inf])
def test_non_finite_real_multiplier_gives_the_nan_report(fill):
    for m in (np.array([[1.0, fill], [fill, 1.0]]), np.array([[1.0, fill], [fill, 1.0]]) + 0j):
        _cptp_verdict(m)


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


def test_choi_cptp_structure():
    basis = eig_hermitian(Z)[1]
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


def test_trace_norm_dephasing_value():
    # |+><+| against its t=1 dephased image: distance (1 - e^{-2}) / 2
    out = apply_schur(dephasing_multiplier(math.exp(-2.0)), PLUS)
    expected = 0.5 * (1.0 - math.exp(-2.0))
    assert abs(0.5 * trace_norm(PLUS - out) - expected) < 1e-12
    assert 0.5 * trace_norm(PLUS - PLUS) == 0.0


def test_superoperator_composition_is_matrix_product():
    for _ in range(5):
        h1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b1 = eig_hermitian(h1 + h1.conj().T)[1]
        b2 = eig_hermitian(h2 + h2.conj().T)[1]
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
        basis = eig_hermitian(h + h.conj().T)[1]
        m = SchurMultiplier(basis, np.full((3, 3), 0.4) + 0.6 * np.eye(3))
        s = superoperator_of_schur(m)
        rho = random_density_matrix(3, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            via_choi = apply_choi(choi_of_superoperator(s), rho)
        assert np.abs(via_choi - apply_superoperator(s, rho)).max() < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16])
def test_apply_choi_matches_einsum_oracle(d):
    # random non-Hermitian J and complex rho: no symmetry hides a swapped index
    local = np.random.default_rng(200 + d)
    choi = local.normal(size=(d * d, d * d)) + 1j * local.normal(size=(d * d, d * d))
    rho = local.normal(size=(d, d)) + 1j * local.normal(size=(d, d))
    expected = apply_choi_by_einsum(choi, rho)
    out = apply_choi(choi, rho)
    assert out.shape == (d, d)
    assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()


def test_apply_choi_of_sampled_multipliers_matches_apply():
    op = HermitianOperator(random_hermitian(16, np.random.default_rng(31)))
    rho = random_density_matrix(16, np.random.default_rng(32))
    gaussian, _ = estimate_channel(op, ShotPlan.with_derived_cutoff(1.0, 0.01, 64, seed=5))
    compound, _ = estimate_compound_channel(op, Gaussian(0.5), 2.0, 64, seed=6)
    for m in (gaussian, compound):
        assert np.abs(apply_choi(m.choi, rho) - m.apply(rho)).max() < 1e-12


def test_schur_superoperator_matches_apply():
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    basis = eig_hermitian(h + h.conj().T)[1]
    mult = np.exp(-0.5 * (rng.uniform(0, 2, size=(4, 4)) + rng.uniform(0, 2, size=(4, 4)).T))
    np.fill_diagonal(mult, 1.0)
    m = SchurMultiplier(basis, mult.astype(complex))
    rho = random_density_matrix(4, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CPTPWarning)
        direct = apply_schur(m, rho)
        via_super = apply_superoperator(superoperator_of_schur(m), rho)
    assert np.abs(direct - via_super).max() < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_choi_of_superoperator_is_the_matrix_unit_definition(d):
    # a random superoperator is no Schur multiplier, so every index of s is exercised
    local = np.random.default_rng(100 + d)
    s = local.normal(size=(d * d, d * d)) + 1j * local.normal(size=(d * d, d * d))
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            expected[i * d:(i + 1) * d, j * d:(j + 1) * d] = apply_superoperator(s, unit)
    assert np.array_equal(choi_of_superoperator(s), expected)


def test_d4_layer_rejects_wrong_shapes():
    with pytest.raises(ShapeError, match="not a perfect square"):
        choi_of_superoperator(np.eye(3))
    with pytest.raises(ShapeError, match="not a perfect square"):
        choi_of_superoperator(np.eye(8))
    with pytest.raises(ShapeError, match="does not match dimension 2"):
        apply_choi(np.eye(9), PLUS)
    with pytest.raises(ShapeError, match="does not match dimension 2"):
        check_choi(np.eye(9), 2)
    with pytest.raises(ShapeError, match="does not match dimension 3"):
        check_choi(np.eye(4), 3)
    with pytest.raises(ShapeError, match=r"\(4, 4\) and \(1, 1\)"):
        choi_trace_distance(np.eye(4), np.eye(1))
    with pytest.raises(ShapeError, match=r"\(4, 4\) and \(4, 1\)"):
        choi_trace_distance(np.eye(4), np.ones((4, 1)))
    with pytest.raises(ShapeError, match=r"\(4, 4\) and \(9, 9\)"):
        choi_trace_distance(np.eye(4), np.eye(9))
