"""Randomized self-verification: dual-route and invariant checks.

Each check runs over seeded random instances and reports its worst observed
deviation against a fixed threshold. The report text is deterministic for a
given seed, so it can be diffed between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import CP_EIG_TOL, TP_DIAG_TOL, cptp_check, random_density_matrix
from .distributions import (
    CompoundPoisson,
    Dirac,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    TruncatedGaussian,
    char_minus,
)
from .linalg import random_hermitian
from .sampling import VERIFY_STREAMS, derived_rng
from .twirling import gaussian_evolution, hs_quadrature_check, schur_multiplier_for, vectorized_oracle

ORACLE_TOL = 1e-10
SEMIGROUP_TOL = 1e-12
HS_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    cases: int
    deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold


def _random_distributions(rng: np.random.Generator) -> list:
    mixture = FiniteMixture(atoms=((float(rng.uniform(-3, 3)), 0.25),
                                   (float(rng.uniform(-3, 3)), 0.75)))
    jump = float(rng.uniform(0.2, 2.5)) * (1 if rng.random() < 0.5 else -1)
    return [
        Gaussian(variance=float(rng.uniform(0.05, 3.0))),
        TruncatedGaussian(variance=float(rng.uniform(0.05, 3.0)),
                          cutoff=float(rng.uniform(0.5, 5.0))),
        Dirac(location=float(rng.uniform(-3, 3))),
        mixture,
        CompoundPoisson(rate=float(rng.uniform(0.1, 5.0)), base=Dirac(location=jump)),
        LevyTriplet(sigma2=float(rng.uniform(0.0, 2.0)), gamma=float(rng.uniform(-1, 1)),
                    atoms=((jump, float(rng.uniform(0.1, 2.0))),),
                    compensated=bool(rng.random() < 0.5)),
    ]


def check_oracle_equivalence(dims, trials: int, seed: int) -> CheckResult:
    """Gaussian twirl versus the vectorized generator exponential."""
    rng = derived_rng(seed, VERIFY_STREAMS + 1)
    worst = 0.0
    cases = 0
    for dim in dims:
        for _ in range(trials):
            h = random_hermitian(dim, rng, scale=float(rng.uniform(0.5, 2.0)))
            rho = random_density_matrix(dim, rng)
            t = float(rng.uniform(0.0, 4.0))
            dev = float(np.abs(gaussian_evolution(h, rho, t)
                               - vectorized_oracle(h, rho, t)).max())
            worst = max(worst, dev)
            cases += 1
    return CheckResult("oracle-equivalence", cases, worst, ORACLE_TOL)


def check_semigroup(trials: int, seed: int) -> CheckResult:
    """Multiplier products: time t1 then t2 equals time t1 + t2."""
    rng = derived_rng(seed, VERIFY_STREAMS + 2)
    worst = 0.0
    cases = 0
    for _ in range(trials):
        lam = np.sort(rng.uniform(-2, 2, size=4))
        gaps = lam[:, None] - lam[None, :]
        t1, t2 = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))
        for factory in (lambda s: Gaussian(variance=s),
                        lambda s: CompoundPoisson(rate=s, base=Dirac(location=1.3))):
            product = char_minus(factory(t1), gaps) * char_minus(factory(t2), gaps)
            joint = char_minus(factory(t1 + t2), gaps)
            worst = max(worst, float(np.abs(product - joint).max()))
            cases += 1
    return CheckResult("semigroup-multipliers", cases, worst, SEMIGROUP_TOL)


def check_cptp(trials: int, seed: int, inject_fault: bool = False) -> CheckResult:
    """Every distribution's multiplier must be CP (PSD) and TP (unit diagonal).

    The reported deviation is max(0, -min_eig + CP slack, diag deviation) so
    the threshold can be a single number.
    """
    rng = derived_rng(seed, VERIFY_STREAMS + 3)
    worst = 0.0
    cases = 0
    for trial in range(trials):
        dim = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(-3, 3, size=dim))
        gaps = lam[:, None] - lam[None, :]
        for dist in _random_distributions(rng):
            m = char_minus(dist, gaps)
            if inject_fault and cases == 0:
                m = m.copy()
                m[0, 0] = 0.9  # deliberately break trace preservation
            report = cptp_check(m)
            # PSD slack below -1e-9 and any diagonal deviation both count
            dev = max(max(0.0, CP_EIG_TOL - report.min_eigenvalue), report.max_diag_deviation)
            worst = max(worst, dev)
            cases += 1
    return CheckResult("cptp-multipliers", cases, worst, TP_DIAG_TOL)


def check_hs_quadrature(trials: int, seed: int) -> CheckResult:
    """Gauss-Hermite average of exp(-iHs) versus exp(-H^2 t / 2)."""
    rng = derived_rng(seed, VERIFY_STREAMS + 4)
    worst = 0.0
    for _ in range(trials):
        h = random_hermitian(4, rng, scale=float(rng.uniform(0.5, 2.0)))
        t = float(rng.uniform(0.1, 4.0))
        worst = max(worst, hs_quadrature_check(h, t))
    return CheckResult("hs-quadrature", trials, worst, HS_TOL)


def check_schur_identity(trials: int, seed: int) -> CheckResult:
    """Twirl output in the eigenbasis equals the entrywise multiplier product."""
    rng = derived_rng(seed, VERIFY_STREAMS + 5)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        h = random_hermitian(dim, rng, scale=1.5)
        rho = random_density_matrix(dim, rng)
        dist = Gaussian(variance=float(rng.uniform(0.1, 2.0)))
        m = schur_multiplier_for(h, dist)
        u = m.eigenbasis
        lhs = u.conj().T @ gaussian_evolution(h, rho, dist.variance) @ u
        rhs = m.multiplier * (u.conj().T @ rho @ u)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckResult("schur-identity", trials, worst, SEMIGROUP_TOL)


def run_verification(dims=(2, 4, 8), trials: int = 20, seed: int = 7,
                     inject_fault: bool = False) -> tuple[str, bool]:
    """Run all checks; returns (report text, all passed)."""
    results = [
        check_oracle_equivalence(dims, trials, seed),
        check_semigroup(trials, seed),
        check_cptp(trials, seed, inject_fault=inject_fault),
        check_hs_quadrature(trials, seed),
        check_schur_identity(trials, seed),
    ]
    lines = [f"{'check':<24} {'cases':>6} {'max deviation':>14} {'threshold':>10} status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<24} {r.cases:>6} {r.deviation:>14.3e} "
                     f"{r.threshold:>10.1e} {status}")
    ok = all(r.passed for r in results)
    lines.append("all checks passed" if ok else "verification FAILED")
    return "\n".join(lines), ok
