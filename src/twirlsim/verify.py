"""Randomized self-verification: dual-route and invariant checks.

Each check draws seeded random instances and yields one deviation per case;
the report gives each check's worst deviation against a fixed threshold. A
NaN deviation is the worst and fails. The report text is deterministic for a
given seed, so it can be diffed between runs.
"""

from __future__ import annotations

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
    multiplier,
)
from .linalg import HermitianOperator, random_hermitian
from .sampling import VERIFY_STREAMS, derived_rng
from .twirling import gaussian_evolution, hs_quadrature_check, schur_multiplier_for, vectorized_oracle

ORACLE_TOL = 1e-10
SEMIGROUP_TOL = 1e-12
HS_TOL = 1e-8


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


def _oracle_equivalence(rng, dims, trials: int):
    """Gaussian twirl versus the vectorized generator exponential."""
    for dim in dims:
        for _ in range(trials):
            # gaussian_evolution uses its eigenvectors, vectorized_oracle only its matrix
            h = HermitianOperator(random_hermitian(dim, rng, scale=float(rng.uniform(0.5, 2.0))))
            rho = random_density_matrix(dim, rng)
            t = float(rng.uniform(0.0, 4.0))
            yield np.abs(gaussian_evolution(h, rho, t) - vectorized_oracle(h, rho, t)).max()


def _semigroup(rng, trials: int):
    """Multiplier products: time t1 then t2 equals time t1 + t2."""
    for _ in range(trials):
        lam = np.sort(rng.uniform(-2, 2, size=4))
        gaps = lam[:, None] - lam[None, :]
        t1, t2 = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))
        for factory in (lambda s: Gaussian(variance=s),
                        lambda s: CompoundPoisson(rate=s, base=Dirac(location=1.3))):
            product = char_minus(factory(t1), gaps) * char_minus(factory(t2), gaps)
            yield np.abs(product - char_minus(factory(t1 + t2), gaps)).max()


def _cptp(rng, trials: int, inject_fault: bool):
    """Every distribution's multiplier must be CP (PSD) and TP (unit diagonal).

    Each is built from the eigenvalues, as exact_channel builds it. A case's
    deviation is max(0, CP slack - min eigenvalue, diagonal deviation), so
    the threshold can be a single number. inject_fault breaks trace
    preservation in the first case.
    """
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        lam = np.sort(rng.uniform(-3, 3, size=dim))
        for dist in _random_distributions(rng):
            m = multiplier(dist, lam)
            if inject_fault:
                m = m.copy()
                m[0, 0] = 0.9  # deliberately break trace preservation
                inject_fault = False
            report = cptp_check(m)
            yield np.max([0.0, CP_EIG_TOL - report.min_eigenvalue, report.max_diag_deviation])


def _hs_quadrature(rng, trials: int):
    """Gauss-Hermite average of exp(-iHs) versus exp(-H^2 t / 2)."""
    for _ in range(trials):
        h = random_hermitian(4, rng, scale=float(rng.uniform(0.5, 2.0)))
        yield hs_quadrature_check(h, float(rng.uniform(0.1, 4.0)))


def _schur_identity(rng, trials: int):
    """Twirl output in the eigenbasis equals the entrywise multiplier product."""
    for _ in range(trials):
        dim = int(rng.integers(2, 5))
        h = HermitianOperator(random_hermitian(dim, rng, scale=1.5))
        rho = random_density_matrix(dim, rng)
        dist = Gaussian(variance=float(rng.uniform(0.1, 2.0)))
        m = schur_multiplier_for(h, dist)
        u = m.eigenbasis
        lhs = u.conj().T @ gaussian_evolution(h, rho, dist.variance) @ u
        yield np.abs(lhs - m.multiplier * (u.conj().T @ rho @ u)).max()


def run_verification(dims=(2, 4, 8), trials: int = 20, seed: int = 7,
                     inject_fault: bool = False) -> tuple[str, bool]:
    """Run all checks; returns (report text, all passed).

    Check k (from 1, in report order) draws from the stream
    derived_rng(seed, VERIFY_STREAMS + k).
    """
    checks = [
        ("oracle-equivalence", ORACLE_TOL, lambda rng: _oracle_equivalence(rng, dims, trials)),
        ("semigroup-multipliers", SEMIGROUP_TOL, lambda rng: _semigroup(rng, trials)),
        ("cptp-multipliers", TP_DIAG_TOL, lambda rng: _cptp(rng, trials, inject_fault)),
        ("hs-quadrature", HS_TOL, lambda rng: _hs_quadrature(rng, trials)),
        ("schur-identity", SEMIGROUP_TOL, lambda rng: _schur_identity(rng, trials)),
    ]
    lines = [f"{'check':<24} {'cases':>6} {'max deviation':>14} {'threshold':>10} status"]
    ok = True
    for k, (name, threshold, check) in enumerate(checks, start=1):
        deviations = list(check(derived_rng(seed, VERIFY_STREAMS + k)))
        # np.max propagates NaN, so a NaN deviation fails the comparison below
        worst = float(np.max(deviations, initial=0.0))
        passed = worst <= threshold
        ok = ok and passed
        lines.append(f"{name:<24} {len(deviations):>6} {worst:>14.3e} "
                     f"{threshold:>10.1e} {'PASS' if passed else 'FAIL'}")
    lines.append("all checks passed" if ok else "verification FAILED")
    return "\n".join(lines), ok
