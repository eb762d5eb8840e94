import math
import tracemalloc

import numpy as np
import pytest

from twirlsim import (
    HermitianOperator,
    estimate_lambda,
    outcome_sigma,
    resolve_spectrum,
    sample_k,
)
from twirlsim.sampling import derived_rng

Z = np.diag([1.0, -1.0]).astype(complex)


def test_outcome_sigma():
    assert outcome_sigma(1.0) == 0.5
    assert outcome_sigma(4.0) == 0.25
    assert abs(outcome_sigma(0.25) - 1.0) < 1e-15
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            outcome_sigma(bad)


def test_sample_k_moments():
    rng = derived_rng(3, 0)
    lam, t, n = 0.7, 2.0, 200_000
    ks = sample_k(lam, t, rng, size=n)
    sigma = outcome_sigma(t)
    assert abs(ks.mean() + lam) < 4.0 * sigma / math.sqrt(n)
    assert abs(ks.std(ddof=1) - sigma) < 0.01 * sigma


def test_estimate_lambda_scalar_hamiltonian():
    run = estimate_lambda(np.array([[0.3]], dtype=complex), 0, t=1.0, shots=4000, seed=12)
    assert run.true_lambda == 0.3
    assert abs(run.estimate - 0.3) < 4.0 * run.stderr
    assert run.raw_mean == -run.estimate
    expected_se = outcome_sigma(1.0) / math.sqrt(4000)
    assert abs(run.stderr - expected_se) < 0.1 * expected_se


def test_estimate_lambda_validation():
    with pytest.raises(ValueError):
        estimate_lambda(Z, 0, t=1.0, shots=1, seed=0)
    with pytest.raises(ValueError):
        estimate_lambda(Z, 2, t=1.0, shots=10, seed=0)
    with pytest.raises(ValueError):
        estimate_lambda(Z, -1, t=1.0, shots=10, seed=0)
    with pytest.raises(ValueError):
        estimate_lambda(Z, 0, t=0.0, shots=10, seed=0)


def test_estimate_lambda_reproducible():
    a = estimate_lambda(Z, 1, t=2.0, shots=500, seed=9)
    b = estimate_lambda(Z, 1, t=2.0, shots=500, seed=9)
    assert a.estimate == b.estimate
    assert a.stderr == b.stderr
    c = estimate_lambda(Z, 1, t=2.0, shots=500, seed=10)
    assert a.estimate != c.estimate


def test_resolve_spectrum_on_z():
    runs = resolve_spectrum(Z, t=1.0, shots=10_000, seed=17)
    assert [r.true_lambda for r in runs] == [-1.0, 1.0]
    for run in runs:
        assert abs(run.estimate - run.true_lambda) < 4.0 * run.stderr
        assert abs(run.estimate - run.true_lambda) < 0.025


def test_resolve_spectrum_holds_one_eigenvalue_of_outcomes_at_a_time():
    shots = 100_000
    for dim in (2, 16):
        h = HermitianOperator(np.diag(np.arange(dim, dtype=float)).astype(complex))
        tracemalloc.start()
        try:
            resolve_spectrum(h, t=1.0, shots=shots, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the outcome array and one temporary of the variance, not dim arrays
        assert peak < 4 * 8 * shots, (dim, peak)


def test_stderr_halves_when_t_quadruples():
    h = HermitianOperator(Z)
    base = estimate_lambda(h, 0, t=1.0, shots=20_000, seed=41)
    quad = estimate_lambda(h, 0, t=4.0, shots=20_000, seed=42)
    ratio = quad.stderr / base.stderr
    assert abs(ratio - 0.5) < 0.05 * 0.5
    expected = outcome_sigma(1.0) / math.sqrt(20_000)
    assert abs(base.stderr - expected) < 0.1 * expected

