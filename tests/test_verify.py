import numpy as np

from twirlsim import verify


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
    # the CPTP check meets all-NaN multipliers of dimension 2 to 8
    monkeypatch.setattr(verify, "char_minus",
                        lambda dist, omega: np.full(np.shape(omega), np.nan, dtype=complex))
    report, ok = verify.run_verification(dims=(2,), trials=5, seed=7)
    assert not ok
    failed = {name for name, row in report_rows(report).items() if row[-1] == "FAIL"}
    assert failed == {"semigroup-multipliers", "cptp-multipliers"}
