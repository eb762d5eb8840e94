"""The benchmark's workloads: generated inputs, one timed operation, and its output gate.

Each workload class builds its fixed inputs from the seed in ``__init__``
(this is set-up), makes the input of operation ``i`` with ``op_input(i)``
(outside the timed span), runs one operation with ``run(inp, mark)`` (the
timed span), and checks that operation's output with ``check(inp, out)``
(outside the timed span), which raises GateFailure on a wrong output.
``mark(section)`` labels the part of an operation that follows it.

References used by the gates are computed here with numpy alone, apart from
``twirling.vectorized_oracle``, the package's independent route to exp(tL),
and the package's own ``check_density_matrix`` and ``check_choi``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from functools import reduce
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from twirlsim import channels, cli, sampling
from twirlsim.channels import check_choi, check_density_matrix
from twirlsim.distributions import (
    CompoundPoisson,
    Dirac,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    TruncatedGaussian,
    scale_triplet,
)
from twirlsim.linalg import HermitianOperator
from twirlsim.matio import read_matrix
from twirlsim.sampling import ShotPlan
from twirlsim.twirling import exact_channel, vectorized_oracle

# streams under the run seed: fixed inputs, per-operation inputs, warm-up
SETUP_STREAM, OP_STREAM, WARM_STREAM = 0, 1, 2

ORACLE_TOL = 1e-10  # exact twirl against the vectorized oracle
CHOI_TP_ATOL = 1e-8  # partial trace of an empirical Choi matrix against the identity
# per-operation false-alarm probability of the Choi distance gate
CHOI_FALSE_ALARM = 1e-9
REFERENCE_NODES = 256  # Gauss-Legendre nodes for the truncated-Gaussian reference
THREADS_ENV_VAR = "TWIRLSIM_THREADS"


class GateFailure(Exception):
    """An operation's output failed its correctness check."""


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, int(index)])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Gaussian Hermitian matrix scaled to spectral norm 1."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2.0
    return h / np.abs(np.linalg.eigvalsh(h)).max()


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def plus_density(dim: int) -> np.ndarray:
    return np.full((dim, dim), 1.0 / dim, dtype=np.complex128)


def choi_of_multiplier(vectors: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Choi matrix W M W^dagger of a Schur multiplier, with columns W[:, p] = conj(v_p) (x) v_p."""
    d = vectors.shape[0]
    w = np.einsum("ip,ap->iap", vectors.conj(), vectors).reshape(d * d, d)
    return w @ multiplier @ w.conj().T


def trace_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False).sum())


def truncated_gaussian_char(variance: float, cut: float, gaps: np.ndarray) -> np.ndarray:
    """E[exp(-i gap s)] for s ~ N(0, variance) conditioned on [-cut, cut]."""
    nodes, weights = leggauss(REFERENCE_NODES)
    s = nodes * cut
    density = weights * np.exp(-0.5 * s ** 2 / variance)
    return np.exp(-1j * np.multiply.outer(gaps, s)) @ density / density.sum()


def compound_gaussian_char(rate: float, base_variance: float, gaps: np.ndarray) -> np.ndarray:
    """E[exp(-i gap s)] for s a Poisson(rate) sum of N(0, base_variance) kicks."""
    return np.exp(rate * (np.exp(-0.5 * base_variance * gaps ** 2) - 1.0)).astype(np.complex128)


def choi_distance_bound(dim: int, shots: int, false_alarm: float = CHOI_FALSE_ALARM) -> float:
    """Bound on ||J_hat - J||_1 that a correct sampler exceeds with probability <= false_alarm.

    Shot n contributes the Choi matrix of a unitary, W m_n W^dagger with
    m_n = phi phi^dagger and |phi_p| = 1, and W is an isometry, so the
    distance is ||mean(m_n) - E m||_1. Its mean is at most
    sqrt(d) * sqrt(E||.||_F^2) <= d^1.5 / sqrt(N); replacing one shot moves
    it by at most 2d / N, so McDiarmid's inequality adds
    d * sqrt(2 ln(1/false_alarm) / N). The bound holds for any random stream.
    """
    return (dim ** 1.5 / math.sqrt(shots)
            + dim * math.sqrt(2.0 * math.log(1.0 / false_alarm) / shots))


def _require_density(rho, what: str) -> None:
    try:
        check_density_matrix(rho)
    except ValueError as exc:
        raise GateFailure(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# exact-sweep
# ---------------------------------------------------------------------------

class ExactSweep:
    """Exact twirls of fresh random H at d=8 and d=64 for six law families over a t grid."""

    name = "exact-sweep"
    item = "applies"
    ops_per_pass = 4
    tail_percentile = 90.0
    dims = (8, 64)
    t_grid = (0.25, 1.0, 4.0)
    epsilon = 0.01

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = _rng(seed, SETUP_STREAM)
        location = float(rng.uniform(0.5, 1.5))
        atoms = (float(rng.uniform(-2.0, -0.5)), float(rng.uniform(0.5, 2.0)))
        weight = float(rng.uniform(0.2, 0.8))
        jump = float(rng.uniform(0.3, 1.5))
        sigma2, gamma = float(rng.uniform(0.2, 1.0)), float(rng.uniform(-0.5, 0.5))
        levy_atoms = ((float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.2, 1.0))),)
        self.laws = []
        for t in self.t_grid:
            s_cut = math.sqrt(2.0 * t * math.log(4.0 / self.epsilon))
            self.laws += [
                (t, "gaussian", Gaussian(variance=t)),
                (t, "truncated_gaussian", TruncatedGaussian(variance=t, cutoff=s_cut)),
                (t, "dirac", Dirac(location=location * t)),
                (t, "mixture", FiniteMixture(atoms=((atoms[0] * t, weight),
                                                    (atoms[1] * t, 1.0 - weight)))),
                (t, "compound_poisson", CompoundPoisson(rate=t, base=Dirac(location=jump))),
                (t, "levy", scale_triplet(LevyTriplet(sigma2=sigma2, gamma=gamma,
                                                      atoms=levy_atoms, compensated=True), t)),
            ]
        self.items_per_op = len(self.dims) * len(self.laws)

    def op_input(self, i: int) -> dict:
        rng = _rng(self.seed, OP_STREAM, i)
        return {d: (random_hermitian(rng, d), random_density(rng, d)) for d in self.dims}

    def run(self, inp: dict, mark) -> dict:
        outs = {}
        for d in self.dims:
            mark(f"d{d}")
            h, rho = inp[d]
            op = HermitianOperator(h)
            outs[d] = [exact_channel(op, law).apply(rho) for _, _, law in self.laws]
        return outs

    def check(self, inp: dict, out: dict) -> None:
        for d in self.dims:
            for (t, family, _), rho_t in zip(self.laws, out[d]):
                _require_density(rho_t, f"d={d} {family} t={t}")
        h8, rho8 = inp[8]
        for (t, family, _), rho_t in zip(self.laws, out[8]):
            if family == "gaussian":
                dev = float(np.abs(rho_t - vectorized_oracle(h8, rho8, t)).max())
                if not dev <= ORACLE_TOL:
                    raise GateFailure(f"d=8 gaussian t={t}: deviates from the oracle by {dev:.3e}")

    def warm_up(self) -> None:
        rng = _rng(self.seed, WARM_STREAM)
        for d in self.dims:
            op = HermitianOperator(random_hermitian(rng, d))
            rho = random_density(rng, d)
            for _, _, law in self.laws[:len(self.laws) // len(self.t_grid)]:
                exact_channel(op, law).apply(rho)


# ---------------------------------------------------------------------------
# sampled-d2, sampled-d16
# ---------------------------------------------------------------------------

class Sampled:
    """One estimate_channel and one estimate_compound_channel, each applied to |+><+|."""

    t = 1.0
    epsilon = 0.01
    compound_rate = 2.0
    base_variance = 0.5
    item = "shots"
    ops_per_pass = 4
    tail_percentile = 90.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.hamiltonian = self.make_hamiltonian(_rng(seed, SETUP_STREAM))
        self.op = HermitianOperator(self.hamiltonian)
        self.rho = plus_density(self.dim)
        self.base = Gaussian(variance=self.base_variance)
        self.cutoff = math.sqrt(2.0 * self.t * math.log(4.0 / self.epsilon))
        self.items_per_op = 2 * self.shots
        self._references = None

    def make_hamiltonian(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def op_input(self, i: int) -> tuple[int, int]:
        seeds = _rng(self.seed, OP_STREAM, i).integers(0, 2 ** 63, size=2)
        return int(seeds[0]), int(seeds[1])

    def run(self, inp: tuple[int, int], mark):
        seed_gaussian, seed_compound = inp
        mark("gaussian")
        plan = ShotPlan.with_derived_cutoff(t=self.t, epsilon=self.epsilon,
                                            shots=self.shots, seed=seed_gaussian)
        emp_g, ledger_g = sampling.estimate_channel(self.op, plan)
        out_g = channels.apply_choi(emp_g.choi, self.rho)
        mark("compound")
        emp_c, ledger_c = sampling.estimate_compound_channel(
            self.op, self.base, self.compound_rate, self.shots, seed_compound)
        out_c = channels.apply_choi(emp_c.choi, self.rho)
        return plan.cutoff, (emp_g, ledger_g, out_g), (emp_c, ledger_c, out_c)

    def references(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact Choi matrices of the truncated-Gaussian and compound-Poisson twirls."""
        if self._references is None:
            lam, vectors = np.linalg.eigh(self.hamiltonian)
            gaps = lam[:, None] - lam[None, :]
            self._references = (
                choi_of_multiplier(vectors, truncated_gaussian_char(self.t, self.cutoff, gaps)),
                choi_of_multiplier(vectors, compound_gaussian_char(self.compound_rate,
                                                                   self.base_variance, gaps)),
            )
        return self._references

    def check(self, inp, out) -> None:
        s_cut, gaussian, compound = out
        if not abs(s_cut - self.cutoff) <= 1e-12 * self.cutoff:
            raise GateFailure(f"cutoff {s_cut!r} differs from sqrt(2 t ln(4/eps)) = {self.cutoff!r}")
        _, ledger_g, _ = gaussian
        times_g = np.asarray(ledger_g.per_shot_times)
        if ledger_g.worst_case != s_cut:
            raise GateFailure(f"gaussian ledger worst case {ledger_g.worst_case!r} != S {s_cut!r}")
        if times_g.shape != (self.shots,) or not times_g.max() <= s_cut:
            raise GateFailure(f"gaussian ledger: max |s| {times_g.max()!r} exceeds S {s_cut!r}")
        _, ledger_c, _ = compound
        times_c = np.asarray(ledger_c.per_shot_times)
        if times_c.shape != (self.shots,) or ledger_c.worst_case != times_c.max():
            raise GateFailure("compound ledger worst case is not its largest per-shot time")
        bound = choi_distance_bound(self.dim, self.shots)
        for label, (emp, _, rho_out), reference in zip(("gaussian", "compound"),
                                                       (gaussian, compound), self.references()):
            report = check_choi(emp.choi, self.dim)
            if not (report.is_psd and report.tp_deviation <= CHOI_TP_ATOL):
                raise GateFailure(f"{label}: Choi check failed (min eig {report.min_eigenvalue:.3e}, "
                                  f"TP deviation {report.tp_deviation:.3e})")
            distance = trace_norm(emp.choi - reference)
            if not distance <= bound:
                raise GateFailure(f"{label}: Choi distance to the exact twirl {distance:.4f} "
                                  f"exceeds {bound:.4f}")
            _require_density(rho_out, f"{label} output state")

    def warm_up(self) -> None:
        plan = ShotPlan.with_derived_cutoff(t=self.t, epsilon=self.epsilon, shots=16, seed=0)
        channels.apply_choi(sampling.estimate_channel(self.op, plan)[0].choi, self.rho)
        compound = sampling.estimate_compound_channel(self.op, self.base, self.compound_rate, 16, 1)
        channels.apply_choi(compound[0].choi, self.rho)


class SampledD2(Sampled):
    """One qubit, H = 1.0 Z: per-shot Python overhead dominates."""

    name = "sampled-d2"
    dim = 2
    shots = 1000
    ops_per_pass = 8

    def make_hamiltonian(self, rng: np.random.Generator) -> np.ndarray:
        return np.diag([1.0, -1.0]).astype(np.complex128)


class SampledD16(Sampled):
    """Four qubits, random H: the d^4 per-shot accumulate dominates."""

    name = "sampled-d16"
    dim = 16
    shots = 128

    def make_hamiltonian(self, rng: np.random.Generator) -> np.ndarray:
        return random_hermitian(rng, self.dim)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def random_pauli_terms(rng: np.random.Generator, qubits: int, count: int) -> list[tuple[float, str]]:
    letters = "IXYZ"
    return [(round(float(rng.uniform(-1.0, 1.0)), 6),
             "".join(letters[k] for k in rng.integers(0, 4, size=qubits)))
            for _ in range(count)]


def pauli_matrix(terms: list[tuple[float, str]]) -> np.ndarray:
    return sum(c * reduce(np.kron, (PAULI[ch] for ch in word)) for c, word in terms)


def gaussian_twirl_reference(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    """exp(tL) rho for L(rho) = H rho H - {H^2, rho}/2, from K = H (x) I - I (x) H^T."""
    d = h.shape[0]
    eye = np.eye(d)
    k = np.kron(h, eye) - np.kron(eye, h.T)
    w, u = np.linalg.eigh(k)
    return (u @ (np.exp(-0.5 * t * w ** 2) * (u.conj().T @ rho.reshape(-1)))).reshape(d, d)


class CliPass:
    """One pass through the command line: simulate exact and sampled, verify, qpe."""

    name = "cli"
    item = "commands"
    ops_per_pass = 1
    tail_percentile = 50.0
    shots = 4608  # more than one 4096-shot chunk, so the thread pool has work to share
    pool_threads = "2"
    exact_t = 1.0
    qpe_t = 4.0
    qpe_shots = 2000
    sampled_t = 1.0
    compound_rate = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        rng = _rng(seed, SETUP_STREAM)
        self.exact_terms = random_pauli_terms(rng, 3, 6)
        one_qubit = [(round(float(rng.uniform(0.5, 1.5)), 6), "Z"),
                     (round(float(rng.uniform(-0.5, 0.5)), 6), "X")]
        qpe_terms = random_pauli_terms(rng, 2, 4)
        base_variance = round(float(rng.uniform(0.2, 0.8)), 6)
        self.configs = {
            "exact": self._config(3, self.exact_terms, self.exact_t, {"kind": "gaussian"},
                                  None, "exact"),
            "gaussian": self._config(1, one_qubit, self.sampled_t, {"kind": "gaussian"},
                                     self.shots, "gaussian"),
            "gaussian2": self._config(1, one_qubit, self.sampled_t, {"kind": "gaussian"},
                                      self.shots, "gaussian2"),
            "compound": self._config(1, one_qubit, self.compound_rate,
                                     {"kind": "compound_poisson",
                                      "base": {"kind": "gaussian", "variance": base_variance}},
                                     self.shots, "compound"),
            "qpe": self._config(2, qpe_terms, self.qpe_t, {"kind": "gaussian"},
                                self.qpe_shots, "qpe"),
        }
        self.paths = {key: self._write_config(key, cfg) for key, cfg in self.configs.items()}
        self.qpe_csv = self.workdir / "qpe.csv"
        self.qpe_dim = 4
        self.items_per_op = 6

    def _config(self, qubits, terms, t, distribution, shots, stem) -> dict:
        cfg = {
            "system": {"qubits": qubits},
            "hamiltonian": {"pauli": [f"{c!r} {w}" for c, w in terms]},
            "initial_state": "plus_all",
            "evolution": {"t": t, "epsilon": 0.01, "distribution": distribution},
            "outputs": {"state": f"state_{stem}.txt", "metrics": f"metrics_{stem}.csv"},
        }
        if shots is not None:
            cfg["sampler"] = {"shots": shots, "seed": 1}
        return cfg

    def _write_config(self, key: str, cfg: dict) -> Path:
        path = self.workdir / f"{key}.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def op_input(self, i: int) -> list[tuple[str, list[str], str | None]]:
        s = [str(int(x)) for x in _rng(self.seed, OP_STREAM, i).integers(0, 2 ** 31, size=4)]
        p = {key: str(path) for key, path in self.paths.items()}
        return [
            ("simulate-exact", ["simulate", "--config", p["exact"]], None),
            ("simulate-gaussian", ["simulate", "--config", p["gaussian"], "--seed", s[0]], None),
            ("simulate-gaussian-threads2",
             ["simulate", "--config", p["gaussian2"], "--seed", s[0]], self.pool_threads),
            ("simulate-compound", ["simulate", "--config", p["compound"], "--seed", s[1]], None),
            ("verify", ["verify", "--seed", s[2]], None),
            ("qpe", ["qpe", "--config", p["qpe"], "--seed", s[3],
                     "--csv-out", str(self.qpe_csv)], None),
        ]

    def run(self, inp, mark) -> list[tuple[str, int, str, str]]:
        saved = os.environ.get(THREADS_ENV_VAR)
        results = []
        try:
            for step, argv, threads in inp:
                mark(step)
                if threads is None:
                    os.environ.pop(THREADS_ENV_VAR, None)
                else:
                    os.environ[THREADS_ENV_VAR] = threads
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                results.append((step, code, out.getvalue(), err.getvalue()))
        finally:
            if saved is None:
                os.environ.pop(THREADS_ENV_VAR, None)
            else:
                os.environ[THREADS_ENV_VAR] = saved
        return results

    def _state(self, stem: str) -> np.ndarray:
        state = read_matrix(self.workdir / f"state_{stem}.txt")
        _require_density(state, f"state_{stem}.txt")
        return state

    def check(self, inp, out) -> None:
        for step, code, stdout, stderr in out:
            if code != 0:
                raise GateFailure(f"{step}: exit code {code}: {stderr.strip()[:200]}")
        exact = self._state("exact")
        h = pauli_matrix(self.exact_terms)
        reference = gaussian_twirl_reference(h, plus_density(h.shape[0]), self.exact_t)
        dev = float(np.abs(exact - reference).max())
        if not dev <= ORACLE_TOL:
            raise GateFailure(f"simulate-exact: state deviates from exp(tL) by {dev:.3e}")
        self._state("gaussian")
        self._state("compound")
        one = (self.workdir / "state_gaussian.txt").read_bytes()
        two = (self.workdir / "state_gaussian2.txt").read_bytes()
        if one != two:
            raise GateFailure("simulate-gaussian: state bytes differ between 1 and 2 threads")
        verify_out = dict((step, stdout) for step, _, stdout, _ in out)["verify"]
        if "all checks passed" not in verify_out:
            raise GateFailure(f"verify: {verify_out.strip().splitlines()[-1:]}")
        rows = self.qpe_csv.read_text().splitlines()
        if len(rows) != self.qpe_dim + 1:
            raise GateFailure(f"qpe: expected {self.qpe_dim} rows, found {len(rows) - 1}")

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--dims", "2", "--trials", "1"])
            cli.main(["simulate", "--config", str(self.paths["exact"])])


WORKLOADS = {cls.name: cls for cls in (ExactSweep, SampledD2, SampledD16, CliPass)}
