import math

import numpy as np
import pytest

from twirlsim import verify
from twirlsim.channels import CP_EIG_TOL, TP_DIAG_TOL, cptp_check


def report_rows(report: str) -> dict:
    """check name -> [cases, max deviation, threshold, status] from a verify report."""
    return {line.split()[0]: line.split()[1:] for line in report.splitlines()[1:-1]}


def test_nan_twirl_fails_the_checks_that_read_it(monkeypatch):
    monkeypatch.setattr(verify, "gaussian_evolution",
                        lambda h, rho, t: np.full_like(rho, np.nan))
    report, ok = verify.run_verification(dims=(2,), trials=2, seed=7)
    assert not ok
    assert report.splitlines()[-1] == "verification FAILED"
    for name, (_, deviation, _, status) in report_rows(report).items():
        if name in ("oracle-equivalence", "schur-identity"):
            assert (deviation, status) == ("nan", "FAIL")
        else:
            assert status == "PASS"


def test_nan_multipliers_fail_without_raising(monkeypatch):
    # the CPTP check meets all-NaN multipliers of dimension 2 to 8 (it builds them
    # from the eigenvalues; the semigroup check reads char_minus at the gaps)
    monkeypatch.setattr(verify, "char_minus",
                        lambda dist, omega: np.full(np.shape(omega), np.nan, dtype=complex))
    monkeypatch.setattr(verify, "multiplier",
                        lambda dist, lam: np.full((len(lam),) * 2, np.nan, dtype=complex))
    report, ok = verify.run_verification(dims=(2,), trials=5, seed=7)
    assert not ok
    failed = {name for name, row in report_rows(report).items() if row[-1] == "FAIL"}
    assert failed == {"semigroup-multipliers", "cptp-multipliers"}


# multipliers that cptp_check marks not CP with a unit diagonal: one by its symmetry
# defect alone (1e-6; its Hermitian part is PD), one by an eigenvalue 5e-11 below
# CP_EIG_TOL, less than the check's threshold TP_DIAG_TOL beyond the tolerance
NOT_CP = {
    "symmetry-defect": (np.array([[1, 0.5 + 1e-6], [0.5, 1]], dtype=complex), 1e-6),
    "eigenvalue": (np.array([[1.0, 1.0 - CP_EIG_TOL + 5e-11], [1.0 - CP_EIG_TOL + 5e-11, 1.0]]),
                   -CP_EIG_TOL + 5e-11),
}


@pytest.mark.parametrize("name", NOT_CP)
def test_every_multiplier_failing_cp_fails_the_check(monkeypatch, name):
    m, expected = NOT_CP[name]
    report = cptp_check(m)
    assert not report.is_cp and report.is_tp
    monkeypatch.setattr(verify, "multiplier", lambda dist, lam: m)
    text, ok = verify.run_verification(dims=(2,), trials=1, seed=7)
    assert not ok
    failed = {row_name: row for row_name, row in report_rows(text).items() if row[-1] == "FAIL"}
    assert set(failed) == {"cptp-multipliers"}
    deviation = float(failed["cptp-multipliers"][1])
    assert math.isfinite(deviation) and deviation > TP_DIAG_TOL
    assert deviation == pytest.approx(expected, rel=1e-3)
