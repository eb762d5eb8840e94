"""Acceptance suite: every numbered criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Statistical criteria use pinned seeds, so the whole suite is
deterministic; rerun comparisons in criterion 12 are byte-level.
"""

import math
import time

import numpy as np

from twirlsim import (
    CompoundPoisson,
    Dirac,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    ShotPlan,
    TruncatedGaussian,
    char_minus,
    choi_of_superoperator,
    choi_trace_distance,
    commuting_generator_oracle,
    cptp_check,
    cutoff,
    estimate_channel,
    estimate_compound_channel,
    estimate_lambda,
    exact_channel,
    gaussian_evolution,
    hs_quadrature_check,
    mean_sampled_cost,
    plus_state,
    random_density_matrix,
    random_hermitian,
    resolve_spectrum,
    scale_triplet,
    scaling_table,
    sequential_choi_commuting,
    superoperator_of_schur,
    tv_bound,
    tv_exact,
    vectorized_oracle,
)
from twirlsim.matio import format_float

Z = np.diag([1.0, -1.0]).astype(complex)

_cache: dict = {}


def report(number: int, name: str, passed: bool, detail: str, elapsed: float,
           budget: float) -> None:
    in_budget = elapsed <= budget
    verdict = "PASS" if (passed and in_budget) else "FAIL"
    print(f"criterion {number:02d} {name}: {verdict} "
          f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)", flush=True)
    assert passed, f"criterion {number}: {detail}"
    assert in_budget, f"criterion {number}: took {elapsed:.2f}s, budget {budget}s"


def choi_of(h, dist) -> np.ndarray:
    return choi_of_superoperator(superoperator_of_schur(exact_channel(h, dist)))


def test_criterion_01_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    dims = [2, 3, 4, 8]
    for trial in range(20):
        d = dims[trial % len(dims)]
        h = random_hermitian(d, rng)
        rho = random_density_matrix(d, rng)
        for t in (0.0, 0.1, 1.0, 10.0):
            dev = np.abs(gaussian_evolution(h, rho, t)
                         - vectorized_oracle(h, rho, t)).max()
            worst = max(worst, float(dev))
    report(1, "oracle equivalence", worst <= 1e-10,
           f"max deviation {worst:.2e} <= 1e-10 over 20 systems x 4 times",
           time.perf_counter() - started, 10.0)


def test_criterion_02_dephasing_law():
    started = time.perf_counter()
    rho = plus_state(1)
    worst = 0.0
    for t in (0.1, 1.0, 5.0):
        out = gaussian_evolution(Z, rho, t)
        worst = max(worst, abs(abs(out[0, 1]) - 0.5 * math.exp(-2.0 * t)))
    report(2, "dephasing decay rate", worst <= 1e-12,
           f"max |offdiag - 0.5 exp(-2t)| = {worst:.2e} <= 1e-12",
           time.perf_counter() - started, 1.0)


def _gaussian_run():
    plan = ShotPlan.with_derived_cutoff(1.0, 0.01, 200_000, seed=11)
    emp, ledger = estimate_channel(Z, plan)
    distance = choi_trace_distance(emp.choi, choi_of(Z, Gaussian(1.0)))
    lines = [
        "mode,t,epsilon,S,shots,total_sim_time,choi_distance_to_exact,tv_bound",
        ",".join(["sampled_gaussian", format_float(plan.t), format_float(plan.epsilon),
                  format_float(plan.cutoff), str(plan.shots),
                  format_float(ledger.total_time), format_float(distance),
                  format_float(tv_bound(plan.t, plan.cutoff))]),
    ]
    return distance, "\n".join(lines) + "\n"


def test_criterion_03_sampled_channel_accuracy():
    started = time.perf_counter()
    distance, metrics = _gaussian_run()
    _cache["c3"] = metrics
    report(3, "sampled channel vs exact semigroup", distance <= 0.02,
           f"Choi distance {distance:.4f} <= 0.02 at 2e5 shots, seed 11",
           time.perf_counter() - started, 60.0)


def test_criterion_04_truncation_bound_grid():
    started = time.perf_counter()
    ok = True
    worst_margin = math.inf
    for t in np.geomspace(0.1, 1000.0, 10):
        for eps in np.geomspace(1e-4, 0.5, 10):
            s_cut = cutoff(t, eps)
            exact = tv_exact(t, s_cut)
            bound = tv_bound(t, s_cut)
            ok = ok and (exact < bound < eps / 2.0)
            worst_margin = min(worst_margin, eps / 2.0 - bound, bound - exact)
    report(4, "truncation bound chain on 100-point grid", ok,
           f"tv_exact < tv_bound < eps/2 strict, smallest margin {worst_margin:.2e}",
           time.perf_counter() - started, 1.0)


def test_criterion_05_fast_forwarding_signature():
    started = time.perf_counter()
    ts = [1.0, 10.0, 100.0, 1000.0]
    rows = scaling_table(ts, 0.01)
    ratios = [row[2] for row in rows]
    spread = max(ratios) - min(ratios)
    costs = [mean_sampled_cost(t, 0.01, 10_000, seed=3) for t in ts]
    growth_ok = all(abs(hi / lo - math.sqrt(10.0)) <= 0.05 * math.sqrt(10.0)
                    for lo, hi in zip(costs, costs[1:]))
    report(5, "fast-forwarding cost scaling", spread <= 1e-12 and growth_ok,
           f"S/sqrt(t) spread {spread:.1e} <= 1e-12, mean |s| ratios within 5% of sqrt(10)",
           time.perf_counter() - started, 5.0)


def test_criterion_06_cptp_certification():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        lam = np.sort(rng.normal(scale=2.0, size=d))
        gaps = lam[:, None] - lam[None, :]
        t = float(rng.uniform(0.05, 3.0))
        mix = FiniteMixture(atoms=((float(rng.uniform(0.1, 2.0)), 0.5),
                                   (float(-rng.uniform(0.1, 2.0)), 0.5)))
        variants = [
            Gaussian(variance=t),
            TruncatedGaussian(variance=t, cutoff=cutoff(t, 0.01)),
            Dirac(location=float(rng.normal())),
            mix,
            CompoundPoisson(rate=t, base=mix),
            scale_triplet(LevyTriplet(sigma2=0.3, gamma=0.7,
                                      atoms=((1.2, 0.4), (-0.5, 0.6))), t),
        ]
        for dist in variants:
            rep = cptp_check(char_minus(dist, gaps))
            if not (rep.is_cp and rep.is_tp):
                failures += 1
    report(6, "CPTP certification across laws", failures == 0,
           f"{failures} failures in 100 spectra x 6 distribution variants",
           time.perf_counter() - started, 5.0)


def test_criterion_07_gaussian_average_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        h = random_hermitian(4, rng)
        h = h / max(1.0, float(np.abs(np.linalg.eigvalsh(h)).max()) / 2.0)
        t = float(rng.uniform(0.2, 4.0))
        worst = max(worst, hs_quadrature_check(h, t))
    report(7, "Gaussian-average operator identity", worst <= 1e-8,
           f"max quadrature deviation {worst:.2e} <= 1e-8 (4x4, ||H|| <= 2, t <= 4)",
           time.perf_counter() - started, 1.0)


def _compound_runs():
    exact_corner = math.exp(math.exp(-2.0) - 1.0)
    emp_g, ledger_g = estimate_compound_channel(Z, Gaussian(1.0), t=1.0,
                                                shots=100_000, seed=23)
    emp_d, ledger_d = estimate_compound_channel(Z, Dirac(math.pi), t=1.0,
                                                shots=20_000, seed=5)
    corner = emp_g.choi[0, 3]
    identity_choi = choi_of(Z, Dirac(0.0))
    dirac_dist = choi_trace_distance(emp_d.choi, identity_choi)
    lines = [
        "case,value_re,value_im",
        f"cp_gaussian_corner,{format_float(corner.real)},{format_float(corner.imag)}",
        f"cp_gaussian_total_cost,{format_float(ledger_g.total_time)},",
        f"cp_dirac_distance,{format_float(dirac_dist)},",
        f"cp_dirac_total_cost,{format_float(ledger_d.total_time)},",
    ]
    return emp_g, ledger_g, emp_d, dirac_dist, exact_corner, "\n".join(lines) + "\n"


def test_criterion_08_compound_poisson():
    started = time.perf_counter()
    emp_g, ledger_g, emp_d, dirac_dist, exact_corner, metrics = _compound_runs()
    _cache["c8"] = metrics

    multiplier = exact_channel(Z, CompoundPoisson(rate=1.0, base=Gaussian(1.0)))
    exact_dev = abs(multiplier.multiplier[0, 1] - exact_corner)
    sampled_dev = abs(emp_g.choi[0, 3] - exact_corner)

    dirac_multiplier = exact_channel(Z, CompoundPoisson(rate=1.0, base=Dirac(math.pi)))
    dirac_exact_dev = float(np.abs(dirac_multiplier.multiplier - 1.0).max())

    mean_cost = ledger_g.total_time / ledger_g.shots
    target = 1.0 * math.sqrt(2.0 / math.pi)
    stderr = ledger_g.per_shot_times.std(ddof=1) / math.sqrt(ledger_g.shots)
    cost_ok = abs(mean_cost - target) <= 3.0 * stderr

    passed = (exact_dev <= 1e-12 and sampled_dev <= 0.02
              and dirac_exact_dev <= 1e-12 and dirac_dist <= 0.02 and cost_ok)
    report(8, "compound Poisson channel and cost", passed,
           f"multiplier dev {exact_dev:.1e}, sampled dev {sampled_dev:.4f} <= 0.02, "
           f"Dirac-pi identity {dirac_exact_dev:.1e} exact / {dirac_dist:.4f} sampled, "
           f"cost off by {abs(mean_cost - target):.4f} <= 3 SE = {3 * stderr:.4f}",
           time.perf_counter() - started, 60.0)


def test_criterion_09_commuting_jumps():
    started = time.perf_counter()
    i2 = np.eye(2, dtype=complex)
    hams = [np.kron(Z, i2), np.kron(i2, Z)]
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(5):
        rho = random_density_matrix(4, rng)
        dev = np.abs(sequential_choi_commuting(hams, rho, 1.0)
                     - commuting_generator_oracle(hams, rho, 1.0)).max()
        worst = max(worst, float(dev))
    report(9, "commuting jumps compose sequentially", worst <= 1e-10,
           f"max deviation {worst:.2e} <= 1e-10 for Z(x)I and I(x)Z at t=1",
           time.perf_counter() - started, 1.0)


def _qpe_runs():
    runs_t1 = resolve_spectrum(Z, t=1.0, shots=10_000, seed=17)
    runs_t4 = resolve_spectrum(Z, t=4.0, shots=10_000, seed=17)
    lines = ["index,estimate,stderr"]
    for idx, run in enumerate(runs_t1):
        lines.append(f"{idx},{format_float(run.estimate)},{format_float(run.stderr)}")
    return runs_t1, runs_t4, "\n".join(lines) + "\n"


def test_criterion_10_cvqpe_readout():
    started = time.perf_counter()
    runs_t1, runs_t4, metrics = _qpe_runs()
    _cache["c10"] = metrics

    est_ok = all(abs(r.estimate - r.true_lambda) <= 0.025 for r in runs_t1)
    pooled_var = float(np.mean([r.samples.var(ddof=1) for r in runs_t1]))
    var_ok = abs(pooled_var - 0.25) <= 0.1 * 0.25
    halving_ok = all(abs(r4.stderr / r1.stderr - 0.5) <= 0.05 * 0.5
                     for r1, r4 in zip(runs_t1, runs_t4))
    report(10, "phase-estimation readout statistics", est_ok and var_ok and halving_ok,
           f"both eigenvalue errors <= 0.025, pooled variance {pooled_var:.4f} "
           f"within 10% of 0.25, stderr halves at 4t within 5%",
           time.perf_counter() - started, 5.0)


def test_criterion_11_semigroup_property():
    started = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    base = FiniteMixture(atoms=((0.9, 0.5), (-0.6, 0.5)))
    for _ in range(20):
        lam = rng.normal(scale=1.5, size=5)
        gaps = lam[:, None] - lam[None, :]
        for t1, t2 in ((0.3, 0.7), (1.0, 2.5)):
            g = np.abs(char_minus(Gaussian(t1), gaps) * char_minus(Gaussian(t2), gaps)
                       - char_minus(Gaussian(t1 + t2), gaps)).max()
            c = np.abs(char_minus(CompoundPoisson(t1, base), gaps)
                       * char_minus(CompoundPoisson(t2, base), gaps)
                       - char_minus(CompoundPoisson(t1 + t2, base), gaps)).max()
            worst = max(worst, float(g), float(c))
    report(11, "semigroup multiplier composition", worst <= 1e-12,
           f"max |m_t1 * m_t2 - m_(t1+t2)| = {worst:.2e} <= 1e-12",
           time.perf_counter() - started, 1.0)


def test_criterion_12_reproducibility():
    started = time.perf_counter()
    first_c3 = _cache.get("c3") or _gaussian_run()[1]
    first_c8 = _cache.get("c8") or _compound_runs()[5]
    first_c10 = _cache.get("c10") or _qpe_runs()[2]

    same = (first_c3 == _gaussian_run()[1]
            and first_c8 == _compound_runs()[5]
            and first_c10 == _qpe_runs()[2])
    report(12, "bit-identical reruns", same,
           "metrics for criteria 3, 8, 10 identical on rerun",
           time.perf_counter() - started, 120.0)
