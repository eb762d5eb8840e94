import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twirlsim import (
    ConfigError,
    CPTPWarning,
    Dirac,
    Gaussian,
    HermitianOperator,
    build_distribution,
    gaussian_evolution,
    parse_config,
    plus_state,
    read_matrix,
    write_matrix,
)
from twirlsim import ParseError, cli, cvqpe, linalg, pauli
from twirlsim.cli import MAX_VERIFY_DIM, MAX_VERIFY_TRIALS, METRICS_HEADER, build_parser, main
from twirlsim.config import MAX_QUBITS
from twirlsim.distributions import CompoundPoisson, TruncatedGaussian
from twirlsim.pauli import MAX_PAULI_WORK
from twirlsim.sampling import (
    MAX_RUN_DRAWS,
    MAX_RUN_WORK,
    MAX_SAMPLED_RATE,
    MAX_SHOTS,
    QPE_STREAMS,
    cutoff,
    derived_rng,
)

Z = np.diag([1.0, -1.0]).astype(complex)


def base_config(**updates):
    cfg = {
        "system": {"qubits": 1},
        "hamiltonian": {"pauli": "1.0 Z"},
        "initial_state": "plus_all",
        "evolution": {"t": 1.0, "epsilon": 0.01,
                      "distribution": {"kind": "gaussian"}},
    }
    cfg.update(updates)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_config(tmp_path):
    cfg = parse_config(base_config(), base_dir=str(tmp_path))
    assert cfg.hamiltonian.dim == 2
    assert cfg.t == 1.0
    assert cfg.shots is None
    assert np.allclose(cfg.initial_state, plus_state(1))
    assert np.array_equal(cfg.hamiltonian.matrix, Z)


def test_parse_rejects_unknown_keys(tmp_path):
    data = base_config()
    data["surprise"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "unknown keys" in str(err.value)
    data = base_config()
    data["evolution"]["extra"] = 2
    with pytest.raises(ConfigError):
        parse_config(data, base_dir=str(tmp_path))


def test_parse_system_exactly_one_of(tmp_path):
    data = base_config()
    data["system"] = {"qubits": 1, "dim": 2}
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "exactly one" in str(err.value)
    data["system"] = {}
    with pytest.raises(ConfigError):
        parse_config(data, base_dir=str(tmp_path))


def test_parse_missing_sections(tmp_path):
    for key in ("system", "hamiltonian", "initial_state", "evolution"):
        data = base_config()
        del data[key]
        with pytest.raises(ConfigError) as err:
            parse_config(data, base_dir=str(tmp_path))
        assert key in str(err.value)


def test_parse_range_checks(tmp_path):
    data = base_config()
    data["evolution"]["t"] = -1.0
    with pytest.raises(ConfigError):
        parse_config(data, base_dir=str(tmp_path))
    data = base_config()
    data["evolution"]["epsilon"] = 1.0
    with pytest.raises(ConfigError):
        parse_config(data, base_dir=str(tmp_path))


def test_parse_shots_need_seed(tmp_path):
    data = base_config(sampler={"shots": 100})
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "seed" in str(err.value)
    cfg = parse_config(base_config(sampler={"shots": 100, "seed": 3}),
                       base_dir=str(tmp_path))
    assert cfg.shots == 100 and cfg.seed == 3


def test_parse_overrides_win(tmp_path):
    cfg = parse_config(base_config(), base_dir=str(tmp_path),
                       overrides={"t": 2.0, "shots": 50, "seed": 9})
    assert cfg.t == 2.0
    assert cfg.shots == 50
    assert cfg.seed == 9


@pytest.mark.parametrize("section,key,bad,flag,value,expected", [
    ("outputs", "state", "gone/state.txt", "state_out", "state.txt", "./state.txt"),
    ("outputs", "metrics", "gone/metrics.csv", "metrics_out", "metrics.csv", "./metrics.csv"),
    ("sampler", "shots", "many", "shots", 10, 10),
    ("sampler", "seed", "x", "seed", 1, 1),
], ids=["state_out", "metrics_out", "shots", "seed"])
def test_parse_flag_replaces_invalid_file_value(tmp_path, monkeypatch, section, key, bad,
                                                flag, value, expected):
    monkeypatch.chdir(tmp_path)
    data = base_config(sampler={"shots": 10, "seed": 1},
                       outputs={"state": "state_file.txt", "metrics": "metrics_file.csv"})
    data[section][key] = bad
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert err.value.location == f"{section}.{key}"
    cfg = parse_config(data, base_dir=str(tmp_path), overrides={flag: value})
    assert getattr(cfg, flag) == expected


def test_parse_pauli_dimension_mismatch(tmp_path):
    data = base_config()
    data["system"] = {"qubits": 2}
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "dimension" in str(err.value)


class PauliBuildReached(Exception):
    """parse_pauli_sum touched numpy, which it does only to build the matrix."""


def refuse_pauli_numpy(monkeypatch):
    class Refuse:
        def __getattr__(self, name):
            raise PauliBuildReached(f"pauli.np.{name}")
    monkeypatch.setattr(pauli, "np", Refuse())


def test_parse_word_length_checked_before_any_matrix(tmp_path, monkeypatch):
    refuse_pauli_numpy(monkeypatch)
    # 2 letters pass the work cap, so only the width check can stop them
    for letters in (2, 40):
        data = base_config(hamiltonian={"pauli": "1.0 " + "X" * letters})
        with pytest.raises(ConfigError) as err:
            parse_config(data, base_dir=str(tmp_path))
        assert err.value.location == "hamiltonian.pauli"
        assert "dimension" in str(err.value)


def test_parse_qubits_capped_before_any_matrix(tmp_path, monkeypatch):
    refuse_pauli_numpy(monkeypatch)
    qubits = MAX_QUBITS + 1
    data = base_config(system={"qubits": qubits}, hamiltonian={"pauli": "1.0 " + "Z" * qubits})
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert err.value.location == "system.qubits"


def test_pauli_work_capped_without_qubits(monkeypatch):
    # a library call names no system size, so only the cap stops a 2^40 x 2^40 build
    refuse_pauli_numpy(monkeypatch)
    with pytest.raises(ParseError) as err:
        pauli.parse_pauli_sum("1.0 " + "X" * 40)
    assert str(err.value) == f"terms x 2^qubits is 1 x 2^40, more than the cap of {MAX_PAULI_WORK}"


def test_pauli_work_capped_before_any_matrix(tmp_path, monkeypatch, capsys):
    refuse_pauli_numpy(monkeypatch)
    at_limit = MAX_PAULI_WORK // 2 ** MAX_QUBITS
    assert at_limit == 16384
    terms = ["0.5 " + "XYZI" * 2 + "ZZ"] * at_limit
    cfg = base_config(system={"qubits": MAX_QUBITS}, hamiltonian={"pauli": terms},
                      outputs={"state": "state.txt", "metrics": "metrics.csv"})
    with pytest.raises(PauliBuildReached):
        main(["simulate", "--config", write_config(tmp_path, cfg)])
    cfg["hamiltonian"]["pauli"].append("-1 " + "Z" * MAX_QUBITS)
    path = write_config(tmp_path, cfg)
    before = files_under(tmp_path)
    assert main(["simulate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: hamiltonian.pauli: terms x 2^qubits is 16385 x 2^10, "
                            f"more than the cap of {MAX_PAULI_WORK}\n")
    assert captured.out == ""
    assert files_under(tmp_path) == before


def test_parse_matrix_file_hamiltonian(tmp_path):
    write_matrix(tmp_path / "h.txt", Z)
    data = {
        "system": {"dim": 2},
        "hamiltonian": {"matrix_file": "h.txt"},
        "initial_state": {"basis": 0},
        "evolution": {"t": 0.5, "epsilon": 0.1,
                      "distribution": {"kind": "dirac", "location": 1.0}},
    }
    cfg = parse_config(data, base_dir=str(tmp_path))
    assert np.array_equal(cfg.hamiltonian.matrix, Z)
    data["hamiltonian"] = {"matrix_file": "missing.txt"}
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "file not found" in str(err.value)


def test_parse_initial_state_variants(tmp_path):
    data = base_config()
    data["initial_state"] = {"basis": 5}
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "out of range" in str(err.value)
    data["initial_state"] = "maximally_mixed"
    cfg = parse_config(data, base_dir=str(tmp_path))
    assert np.allclose(cfg.initial_state, np.eye(2) / 2)
    data["initial_state"] = {"preset": "unknown_thing"}
    with pytest.raises(ConfigError):
        parse_config(data, base_dir=str(tmp_path))
    data["initial_state"] = {"file": "rho.txt"}
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    write_matrix(tmp_path / "rho.txt", rho)
    assert np.array_equal(parse_config(data, base_dir=str(tmp_path)).initial_state, rho)
    write_matrix(tmp_path / "rho.txt", np.eye(3) / 3)
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert str(err.value).startswith("initial_state.file: state is 3 x 3, expected 2 x 2")
    write_matrix(tmp_path / "rho.txt", np.diag([1.5, -0.5]))
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert str(err.value).startswith("initial_state.file: density matrix has negative eigenvalue")


def test_build_distribution_kinds():
    assert build_distribution({"kind": "gaussian"}, 2.0, 0.1) == Gaussian(variance=2.0)
    trunc = build_distribution({"kind": "truncated_gaussian"}, 1.0, 0.01)
    assert isinstance(trunc, TruncatedGaussian)
    assert abs(trunc.cutoff - cutoff(1.0, 0.01)) < 1e-15
    cp = build_distribution({"kind": "compound_poisson",
                             "base": {"kind": "dirac", "location": 2.0}}, 3.0, 0.1)
    assert cp == CompoundPoisson(rate=3.0, base=Dirac(2.0))
    cp = build_distribution({"kind": "compound_poisson",
                             "base": {"kind": "gaussian", "variance": 0.5}}, 3.0, 0.1)
    assert cp == CompoundPoisson(rate=3.0, base=Gaussian(0.5))
    with pytest.raises(ConfigError) as err:
        build_distribution({"kind": "compound_poisson", "base": {"kind": "gaussian"}}, 3.0, 0.1)
    assert str(err.value).startswith("evolution.distribution.base.variance:")
    with pytest.raises(ConfigError):
        build_distribution({"kind": "dirac"}, 1.0, 0.1)
    with pytest.raises(ConfigError):
        build_distribution({"kind": "nope"}, 1.0, 0.1)
    with pytest.raises(ConfigError):
        build_distribution({"kind": "mixture", "atoms": [[0.5, -1.0], [1.0, 2.0]]}, 1.0, 0.1)
    with pytest.raises(ConfigError):
        build_distribution({"kind": "compound_poisson",
                            "base": {"kind": "dirac", "location": 0.0}}, 1.0, 0.1)


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------

def run_simulate(tmp_path, cfg, extra_args=()):
    cfg = dict(cfg)
    cfg.setdefault("outputs", {"state": "state.txt", "metrics": "metrics.csv"})
    path = write_config(tmp_path, cfg)
    code = main(["simulate", "--config", path, *extra_args])
    return code, tmp_path / "state.txt", tmp_path / "metrics.csv"


def test_simulate_exact_gaussian(tmp_path):
    code, state_path, metrics_path = run_simulate(tmp_path, base_config())
    assert code == 0
    produced = read_matrix(state_path)
    expected = gaussian_evolution(HermitianOperator(Z), plus_state(1), 1.0)
    assert np.array_equal(produced, expected)
    rows = read_csv(metrics_path)
    assert rows[0] == METRICS_HEADER
    mode, t, eps, s_cut, shots, sim_time, dist, tv, wall = rows[1]
    assert mode == "exact"
    assert float(t) == 1.0 and float(eps) == 0.01
    assert s_cut == "" and shots == "" and sim_time == "" and dist == "" and tv == ""
    assert float(wall) >= 0.0


def test_simulate_zero_time_identity_round_trip(tmp_path):
    for distribution in ({"kind": "gaussian"}, {"kind": "truncated_gaussian", "cutoff": 1.0}):
        cfg = base_config()
        cfg["evolution"]["t"] = 0.0
        cfg["evolution"]["distribution"] = distribution
        code, state_path, _ = run_simulate(tmp_path, cfg)
        assert code == 0
        reference = tmp_path / "input.txt"
        write_matrix(reference, plus_state(1))
        assert state_path.read_bytes() == reference.read_bytes()


def test_simulate_exact_dirac(tmp_path):
    cfg = base_config()
    cfg["evolution"]["distribution"] = {"kind": "dirac", "location": 0.7}
    code, state_path, _ = run_simulate(tmp_path, cfg)
    assert code == 0
    h = HermitianOperator(Z)
    u = h.unitary_at(0.7)
    expected = u @ plus_state(1) @ u.conj().T
    assert np.abs(read_matrix(state_path) - expected).max() < 1e-15


def test_simulate_sampled_gaussian_metrics(tmp_path):
    cfg = base_config(sampler={"shots": 3000, "seed": 11})
    code, state_path, metrics_path = run_simulate(tmp_path, cfg)
    assert code == 0
    rows = read_csv(metrics_path)
    assert rows[0] == METRICS_HEADER
    mode, t, eps, s_cut, shots, sim_time, dist, tv, wall = rows[1]
    assert mode == "sampled_gaussian"
    assert int(shots) == 3000
    assert abs(float(s_cut) - cutoff(1.0, 0.01)) < 1e-12
    assert 0.0 < float(dist) < 0.2
    assert 0.0 < float(tv) < 0.005
    assert float(sim_time) > 0.0
    state = read_matrix(state_path)
    assert abs(np.trace(state) - 1.0) < 1e-10


def test_simulate_sampled_deterministic_across_runs_and_threads(tmp_path):
    cfg = base_config(sampler={"shots": 2000, "seed": 42})
    _, state1, metrics1 = run_simulate(tmp_path, cfg)
    state_bytes = state1.read_bytes()
    rows1 = read_csv(metrics1)
    _, state2, metrics2 = run_simulate(tmp_path, cfg)
    assert state2.read_bytes() == state_bytes
    rows2 = read_csv(metrics2)
    wall_col = METRICS_HEADER.index("wall_seconds")
    assert rows1[0] == rows2[0]
    assert rows1[1][:wall_col] == rows2[1][:wall_col]


def test_simulate_compound_poisson(tmp_path):
    cfg = base_config(sampler={"shots": 4000, "seed": 6})
    cfg["evolution"]["distribution"] = {
        "kind": "compound_poisson",
        "base": {"kind": "dirac", "location": math.pi},
    }
    code, state_path, metrics_path = run_simulate(tmp_path, cfg)
    assert code == 0
    rows = read_csv(metrics_path)
    assert rows[1][0] == "sampled_compound"
    # every kick is a multiple of pi, so the channel is the identity
    assert np.abs(read_matrix(state_path) - plus_state(1)).max() < 1e-12


def test_simulate_compound_poisson_at_rate_1000(tmp_path):
    # about 1000 kicks of pi per shot; each is a full turn of the Z coherence
    cfg = base_config(sampler={"shots": 50, "seed": 6})
    cfg["evolution"]["distribution"] = {
        "kind": "compound_poisson",
        "base": {"kind": "dirac", "location": math.pi},
    }
    code, state_path, _ = run_simulate(tmp_path, cfg, ["--t", "1000"])
    assert code == 0
    assert np.abs(read_matrix(state_path) - plus_state(1)).max() < 1e-9


class SamplerReached(Exception):
    """Raised by the sampler stand-ins: the run got past every input check."""


def stand_in_samplers(monkeypatch):
    def reached(*args, **kwargs):
        raise SamplerReached
    for name in ("estimate_channel", "estimate_compound_channel", "resolve_spectrum",
                 "estimate_lambda"):
        monkeypatch.setattr(cli, name, reached)


@pytest.mark.parametrize("command", ["simulate", "qpe"])
def test_shots_capped_before_any_draw(tmp_path, monkeypatch, capsys, command):
    stand_in_samplers(monkeypatch)
    path = write_config(tmp_path, base_config(
        sampler={"shots": MAX_SHOTS, "seed": 1},
        outputs={"state": "state.txt", "metrics": "metrics.csv"}))
    with pytest.raises(SamplerReached):
        main([command, "--config", path])
    assert main([command, "--config", path, "--shots", str(MAX_SHOTS + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: sampler.shots:")


def test_compound_kick_total_capped_before_any_draw(tmp_path, monkeypatch, capsys):
    stand_in_samplers(monkeypatch)
    rate = 1000
    cfg = base_config(sampler={"seed": 1},
                      outputs={"state": "state.txt", "metrics": "metrics.csv"})
    cfg["evolution"]["t"] = rate
    cfg["evolution"]["distribution"] = {"kind": "compound_poisson",
                                        "base": {"kind": "dirac", "location": 1.0}}
    path = write_config(tmp_path, cfg)
    with pytest.raises(SamplerReached):
        main(["simulate", "--config", path, "--shots", str(MAX_RUN_DRAWS // rate)])
    assert main(["simulate", "--config", path,
                 "--shots", str(MAX_RUN_DRAWS // rate + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: sampler.shots:")


@pytest.mark.parametrize("distribution", [
    {"kind": "gaussian"},
    {"kind": "truncated_gaussian", "cutoff": 3.0},
    {"kind": "compound_poisson", "base": {"kind": "dirac", "location": 1.0}},
], ids=["gaussian", "truncated", "compound"])
def test_sampled_work_capped_before_any_draw(tmp_path, monkeypatch, capsys, distribution):
    stand_in_samplers(monkeypatch)
    dim = 2 ** 9
    cfg = base_config(system={"qubits": 9}, hamiltonian={"pauli": "1.0 ZIIIIIIII"},
                      evolution=_evolution(1.0, **distribution), sampler={"seed": 1},
                      outputs={"state": "state.txt", "metrics": "metrics.csv"})
    path = write_config(tmp_path, cfg)
    at_limit = MAX_RUN_WORK // dim ** 2
    assert at_limit <= MAX_SHOTS
    with pytest.raises(SamplerReached):
        main(["simulate", "--config", path, "--shots", str(at_limit)])
    monkeypatch.setattr(cli, "exact_channel", lambda *args: pytest.fail("multiplier built"))
    before = files_under(tmp_path)
    assert main(["simulate", "--config", path, "--shots", str(at_limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: sampler.shots: {at_limit + 1} shots at d={dim} take "
                                   f"{(at_limit + 1) * dim ** 2} phase products")
    assert captured.out == ""
    assert files_under(tmp_path) == before


def test_compound_rate_capped_before_any_draw(tmp_path, monkeypatch, capsys):
    stand_in_samplers(monkeypatch)
    cfg = base_config(sampler={"shots": 1, "seed": 1},
                      outputs={"state": "state.txt", "metrics": "metrics.csv"})
    cfg["evolution"]["distribution"] = {"kind": "compound_poisson",
                                        "base": {"kind": "dirac", "location": 1.0}}
    path = write_config(tmp_path, cfg)
    with pytest.raises(SamplerReached):
        main(["simulate", "--config", path, "--t", str(MAX_SAMPLED_RATE)])
    assert main(["simulate", "--config", path, "--t", str(2 * MAX_SAMPLED_RATE)]) == 2
    assert capsys.readouterr().err.startswith("error: evolution.t:")


def test_qpe_outcome_total_capped_before_any_draw(tmp_path, monkeypatch, capsys):
    stand_in_samplers(monkeypatch)
    qubits = 7
    dim = 2 ** qubits
    cfg = base_config(system={"qubits": qubits}, hamiltonian={"pauli": "1.0 ZIIIIII"},
                      sampler={"seed": 1})
    path = write_config(tmp_path, cfg)
    at_limit = MAX_RUN_DRAWS // dim
    assert at_limit <= MAX_SHOTS
    with pytest.raises(SamplerReached):
        main(["qpe", "--config", path, "--shots", str(at_limit)])
    assert main(["qpe", "--config", path, "--shots", str(at_limit + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: sampler.shots:")
    # one eigenvalue draws only its own shots, so the total cap does not apply
    with pytest.raises(SamplerReached):
        main(["qpe", "--config", path, "--shots", str(at_limit + 1), "--eigen-index", "5"])


def test_simulate_truncated_gaussian_narrow_cutoff_terminates(tmp_path):
    # the window [-1e-7, 1e-7] holds 8e-9 of the N(0, 100) mass
    cfg = base_config(sampler={"shots": 50, "seed": 6})
    cfg["evolution"]["distribution"] = {"kind": "truncated_gaussian", "cutoff": 1e-7}
    code, state_path, metrics_path = run_simulate(tmp_path, cfg, ["--t", "100"])
    assert code == 0
    assert float(read_csv(metrics_path)[1][METRICS_HEADER.index("S")]) == 1e-7
    # each shot's phase exp(-2is) on the coherence is within 2S of 1
    assert np.abs(read_matrix(state_path) - plus_state(1)).max() <= 0.5 * 2e-7


def test_simulate_six_qubit_sampled_fills_distance(tmp_path):
    rng = np.random.default_rng(5)
    terms = [f"{rng.uniform(-1.0, 1.0):.6f} " + "".join(rng.choice(list("IXYZ"), size=6))
             for _ in range(8)]
    cfg = base_config(system={"qubits": 6}, hamiltonian={"pauli": terms},
                      sampler={"shots": 300, "seed": 4})
    code, state_path, metrics_path = run_simulate(tmp_path, cfg)
    assert code == 0
    dist = read_csv(metrics_path)[1][METRICS_HEADER.index("choi_distance_to_exact")]
    assert dist != "" and math.isfinite(float(dist))
    assert read_matrix(state_path).shape == (64, 64)


def test_simulate_truncated_gaussian_zero_time_names_key(tmp_path, capsys):
    cfg = base_config()
    cfg["evolution"]["distribution"] = {"kind": "truncated_gaussian"}
    code, _, _ = run_simulate(tmp_path, cfg, ["--t", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: evolution.t:")
    # the sampled gaussian laws need t > 0 even when the config parses
    for distribution in ({"kind": "gaussian"}, {"kind": "truncated_gaussian", "cutoff": 1.0}):
        cfg["evolution"]["distribution"] = distribution
        code, state_path, _ = run_simulate(tmp_path, cfg, ["--t", "0", "--shots", "10",
                                                           "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: evolution.t:")
        assert not state_path.exists()


def test_simulate_rejects_non_finite_pauli_coefficient(tmp_path, capsys):
    code, state_path, _ = run_simulate(tmp_path, base_config(hamiltonian={"pauli": "nan Z"}))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: hamiltonian.pauli:")
    assert not state_path.exists()


def test_simulate_rejects_non_finite_number(tmp_path, capsys):
    # 1e400 parses as inf; an integer literal that long overflows float()
    path = tmp_path / "run.json"
    for literal in ("1e400", "1" + "0" * 400):
        path.write_text(json.dumps(base_config()).replace('"t": 1.0', f'"t": {literal}'))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: evolution.t:")


def test_simulate_rejects_non_finite_matrix_entry(tmp_path, capsys):
    (tmp_path / "h.txt").write_text("2 2\n1+0j 0+0j\n0+0j inf+0j\n")
    code, _, _ = run_simulate(tmp_path, base_config(hamiltonian={"matrix_file": "h.txt"}))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: hamiltonian.matrix_file:")


def test_simulate_rejects_non_hermitian_matrix_file(tmp_path, capsys):
    (tmp_path / "h.txt").write_text("2 2\n1+0j 2+0j\n0+0j 1+0j\n")
    code, _, _ = run_simulate(tmp_path, base_config(hamiltonian={"matrix_file": "h.txt"}))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: hamiltonian.matrix_file:")


@pytest.mark.parametrize("command", ["simulate", "qpe"])
@pytest.mark.parametrize("hamiltonian,key", [({"pauli": "1.0 Z"}, "hamiltonian.pauli"),
                                             ({"matrix_file": "h.txt"}, "hamiltonian.matrix_file")],
                         ids=["pauli", "matrix_file"])
def test_eigensolver_failure_names_its_key(tmp_path, monkeypatch, capsys, command,
                                           hamiltonian, key):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(linalg, "eig_hermitian", fail)
    write_matrix(tmp_path / "h.txt", Z)
    cfg = base_config(hamiltonian=hamiltonian, sampler={"shots": 10, "seed": 1},
                      outputs={"state": "state.txt", "metrics": "metrics.csv"})
    path = write_config(tmp_path, cfg)
    before = files_under(tmp_path)
    argv = [command, "--config", path] + (["--csv-out", str(tmp_path / "qpe.csv")]
                                          if command == "qpe" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}:")
    assert captured.err.endswith(": Eigenvalues did not converge\n")
    assert captured.out == ""
    assert files_under(tmp_path) == before


# eigh fails to converge on this sum with some LAPACK builds; its spectrum reaches 2e308
HARD_PAULI_SUM = ["0.035786967764803126 XII", "1e+308 YXX", "-0.27001039798862364 ZZX",
                  "1e+308 ZXZ", "5e-324 IXY", "0.0005024844545833684 IZI",
                  "-0.48986611197868063 ZYY", "0.0016659407140512403 YIY",
                  "0.7292817915893176 IYX"]


@pytest.mark.parametrize("command", ["simulate", "qpe"])
def test_hard_pauli_sum_gives_finite_output_or_names_its_key(tmp_path, capsys, command):
    cfg = base_config(system={"qubits": 3}, hamiltonian={"pauli": HARD_PAULI_SUM},
                      sampler={"shots": 10, "seed": 1},
                      outputs={"state": "state.txt", "metrics": "metrics.csv"})
    path = write_config(tmp_path, cfg)
    before = files_under(tmp_path)
    code = main([command, "--config", path, "--csv-out", str(tmp_path / "out.csv")]
                if command == "qpe" else ["simulate", "--config", path])
    captured = capsys.readouterr()
    if code == 2:
        assert captured.err.startswith("error: hamiltonian.pauli:")
        assert files_under(tmp_path) == before
        return
    assert code == 0
    if command == "qpe":
        numbers = [float(x) for row in read_csv(tmp_path / "out.csv")[1:] for x in row]
    else:
        numbers = [float(x) for x in read_csv(tmp_path / "metrics.csv")[1][1:] if x]
        numbers.extend(read_matrix(tmp_path / "state.txt").view(np.float64).ravel())
    assert all(math.isfinite(x) for x in numbers)


@pytest.mark.parametrize("header", ["1 100000000000", "1 10000000000000000000"])
def test_simulate_rejects_matrix_file_larger_than_its_body(tmp_path, capsys, header):
    (tmp_path / "h.txt").write_text(f"{header}\n0\n")
    cfg = base_config(system={"dim": 1}, hamiltonian={"matrix_file": "h.txt"},
                      initial_state="maximally_mixed")
    code, _, _ = run_simulate(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: hamiltonian.matrix_file:")


def _evolution(t, **distribution):
    return {"t": t, "epsilon": 0.01, "distribution": distribution}


OVERFLOWING_RUNS = {
    # sigma2 * t is 1e310
    "levy": ("simulate", {"evolution": _evolution(1e10, kind="levy", sigma2=1e300)},
             "evolution.distribution"),
    # the phase at gap 2 is 2e308
    "dirac": ("simulate", {"evolution": _evolution(1.0, kind="dirac", location=1e308)},
              "evolution.distribution"),
    "pauli": ("simulate", {"hamiltonian": {"pauli": ["1e308 Z", "1e308 Z"]}},
              "hamiltonian.pauli"),
    # finite entries, but the eigenvalue 2e308 overflows
    "pauli-spectrum": ("simulate", {"hamiltonian": {"pauli": ["1e308 I", "1e308 X"]}},
                       "hamiltonian.pauli"),
    "pauli-spectrum-qpe": ("qpe", {"hamiltonian": {"pauli": ["1e308 I", "1e308 X"]},
                                   "sampler": {"shots": 100, "seed": 1}},
                           "hamiltonian.pauli"),
    "compound": ("simulate", {"evolution": _evolution(1.0, kind="compound_poisson",
                                                      base={"kind": "dirac", "location": 1e308}),
                              "sampler": {"shots": 100, "seed": 1}},
                 "evolution.distribution"),
    # the outcome spread 1/(2 sqrt(t)) is 5e159, and its square overflows
    "qpe": ("qpe", {"evolution": _evolution(1e-320, kind="gaussian"),
                    "sampler": {"shots": 100, "seed": 1}},
            "evolution.t"),
}


@pytest.mark.parametrize("command,updates,key", OVERFLOWING_RUNS.values(),
                         ids=OVERFLOWING_RUNS.keys())
def test_overflow_is_named_and_nothing_non_finite_is_written(tmp_path, capsys,
                                                             command, updates, key):
    cfg = base_config(outputs={"state": "state.txt", "metrics": "metrics.csv"}, **updates)
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}:")
    assert captured.out == ""
    assert not (tmp_path / "state.txt").exists()
    assert not (tmp_path / "metrics.csv").exists()


def test_sampled_window_past_squared_overflow_gives_a_finite_bound(tmp_path, capsys):
    # S^2 overflows for S above about 1.3e154; the tail bound is then 0, not a traceback.
    # 2t overflows for t above about 9e307; at S = sqrt(t) the bound is sqrt(2/pi) exp(-1/2),
    # and gaps of 2e-300 keep that run's exact multiplier finite
    cases = [({}, 1.0, 1e160, "1e+160", "0"),
             ({"hamiltonian": {"pauli": "1e-300 Z"}}, 1e308, 1e154, "1e+154", "0.48394144903828673")]
    for n, (updates, t, s_cut, s_text, bound_text) in enumerate(cases):
        (tmp_path / str(n)).mkdir()
        cfg = base_config(evolution=_evolution(t, kind="truncated_gaussian", cutoff=s_cut),
                          sampler={"shots": 100, "seed": 3}, **updates)
        code, state_path, metrics_path = run_simulate(tmp_path / str(n), cfg)
        assert code == 0
        assert capsys.readouterr().err == ""
        header, row = read_csv(metrics_path)
        values = dict(zip(header, row))
        assert (values["S"], values["tv_bound"]) == (s_text, bound_text)
        assert all(math.isfinite(float(v)) for v in row[1:])
        assert np.isfinite(read_matrix(state_path)).all()


@pytest.mark.parametrize("t", [1.0, 3.0])
def test_sampled_compound_overflow_is_named_before_apply(tmp_path, capsys, recwarn, t):
    # the exact multiplier is finite at gaps of 2e-300, but two 1e308 kicks sum to inf
    (tmp_path / "h.txt").write_text("2 2\n1e-300+0j 0+0j\n0+0j -1e-300+0j\n")
    cfg = base_config(system={"dim": 2}, hamiltonian={"matrix_file": "h.txt"},
                      evolution=_evolution(t, kind="compound_poisson",
                                           base={"kind": "dirac", "location": 1e308}),
                      sampler={"shots": 100, "seed": 1})
    code, state_path, metrics_path = run_simulate(tmp_path, cfg)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: evolution.distribution:")
    assert captured.out == ""
    assert not any(issubclass(w.category, CPTPWarning) for w in recwarn)
    assert not state_path.exists() and not metrics_path.exists()


def test_simulate_rejects_json_nan_token(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_config()).replace('"epsilon": 0.01', '"epsilon": NaN'))
    assert main(["simulate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: config: NaN")


def test_simulate_dirac_with_shots_is_config_error(tmp_path, capsys):
    cfg = base_config(sampler={"shots": 10, "seed": 1})
    cfg["evolution"]["distribution"] = {"kind": "dirac", "location": 1.0}
    code, _, _ = run_simulate(tmp_path, cfg)
    assert code == 2
    assert "no sampler" in capsys.readouterr().err


def test_simulate_requires_outputs(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code = main(["simulate", "--config", path])
    assert code == 2
    assert "outputs" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_simulate_flag_overrides(tmp_path):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out_state = tmp_path / "other_state.txt"
    out_metrics = tmp_path / "other_metrics.csv"
    code = main(["simulate", "--config", path, "--t", "0.5",
                 "--state-out", str(out_state), "--metrics-out", str(out_metrics)])
    assert code == 0
    expected = gaussian_evolution(HermitianOperator(Z), plus_state(1), 0.5)
    assert np.array_equal(read_matrix(out_state), expected)
    rows = read_csv(out_metrics)
    assert float(rows[1][1]) == 0.5


# ---------------------------------------------------------------------------
# output paths: checked before anything is computed, written or printed
# ---------------------------------------------------------------------------

def files_under(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


@pytest.mark.parametrize("outputs,flags,key", [
    ({"state": "taken", "metrics": "metrics.csv"}, [], "outputs.state"),
    ({"state": "state.txt", "metrics": "taken"}, [], "outputs.metrics"),
    ({"state": "absent/state.txt", "metrics": "metrics.csv"}, [], "outputs.state"),
    ({}, ["--state-out", "{tmp}/taken", "--metrics-out", "{tmp}/metrics.csv"], "outputs.state"),
    ({}, ["--state-out", "{tmp}/state.txt", "--metrics-out", "{tmp}/taken"], "outputs.metrics"),
], ids=["state-dir", "metrics-dir", "missing-dir", "state-out-dir", "metrics-out-dir"])
def test_simulate_bad_output_path_exits_2_before_writing(tmp_path, capsys, outputs, flags, key):
    (tmp_path / "taken").mkdir()
    path = write_config(tmp_path, base_config(sampler={"shots": 10, "seed": 1},
                                              outputs=outputs))
    before = files_under(tmp_path)
    argv = ["simulate", "--config", path, *[f.format(tmp=tmp_path) for f in flags]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}:")
    assert captured.out == ""
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("outputs,flags", [
    ({"state": "same.txt", "metrics": "same.txt"}, []),
    ({}, ["--state-out", "a.txt", "--metrics-out", "./a.txt"]),
    ({"state": "a.txt"}, ["--metrics-out", "a.txt"]),
    ({"state": "a.txt"}, ["--metrics-out", "link/a.txt"]),
], ids=["file", "flags", "file-and-flag", "symlink"])
def test_simulate_same_state_and_metrics_file_exits_2(tmp_path, monkeypatch, capsys,
                                                      outputs, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path)
    path = write_config(tmp_path, base_config(outputs=outputs))
    before = files_under(tmp_path)
    assert main(["simulate", "--config", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: outputs.metrics:")
    assert captured.out == ""
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("updates,flags,key", [
    ({}, ["--metrics-out", "run.json"], "outputs.metrics"),
    ({"system": {"dim": 2}, "hamiltonian": {"matrix_file": "h.txt"}},
     ["--metrics-out", "./h.txt"], "outputs.metrics"),
    ({"initial_state": {"file": "rho.txt"},
      "outputs": {"state": "rho.txt", "metrics": "metrics.csv"}}, [], "outputs.state"),
], ids=["config-file", "matrix-file", "state-file"])
def test_simulate_output_naming_an_input_exits_2(tmp_path, monkeypatch, capsys,
                                                updates, flags, key):
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "h.txt", Z)
    write_matrix(tmp_path / "rho.txt", plus_state(1))
    path = write_config(tmp_path, base_config(**{
        "sampler": {"shots": 10, "seed": 1},
        "outputs": {"state": "state.txt", "metrics": "metrics.csv"}, **updates}))
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["simulate", "--config", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {key}:")
    assert "which the run reads" in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["qpe", "bench"])
@pytest.mark.parametrize("target", ["taken", "absent/out.csv"], ids=["dir", "missing-dir"])
def test_bad_csv_out_exits_2_before_any_draw(tmp_path, monkeypatch, capsys, command, target):
    stand_in_samplers(monkeypatch)
    monkeypatch.setattr(cli, "mean_sampled_cost", lambda *args: pytest.fail("bench drew"))
    (tmp_path / "taken").mkdir()
    path = write_config(tmp_path, base_config(sampler={"shots": 10, "seed": 1}))
    before = files_under(tmp_path)
    argv = ["qpe", "--config", path] if command == "qpe" else ["bench", "--draws", "10"]
    assert main([*argv, "--csv-out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --csv-out:")
    assert captured.out == ""
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("updates,target", [
    ({}, "run.json"),
    ({"system": {"dim": 2}, "hamiltonian": {"matrix_file": "h.txt"}}, "./h.txt"),
], ids=["config-file", "matrix-file"])
def test_qpe_csv_out_naming_an_input_exits_2(tmp_path, monkeypatch, capsys, updates, target):
    stand_in_samplers(monkeypatch)
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "h.txt", Z)
    path = write_config(tmp_path, base_config(**{"sampler": {"shots": 10, "seed": 1},
                                                 **updates}))
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["qpe", "--config", path, "--csv-out", target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --csv-out:")
    assert "which the run reads" in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_qpe_ignores_outputs_it_does_not_write(tmp_path, capsys):
    # qpe writes neither outputs.state nor outputs.metrics, so their paths go unresolved
    path = write_config(tmp_path, base_config(
        sampler={"shots": 10, "seed": 1},
        outputs={"state": "gone/state.txt", "metrics": "taken"}))
    (tmp_path / "taken").mkdir()
    csv_path = tmp_path / "qpe.csv"
    assert main(["qpe", "--config", path, "--csv-out", str(csv_path)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {csv_path}\n")
    assert len(read_csv(csv_path)) == 3
    assert main(["simulate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: outputs.state:")


def test_bench_draw_total_capped_before_any_draw(monkeypatch, capsys):
    def reached(*args):
        raise SamplerReached
    monkeypatch.setattr(cli, "mean_sampled_cost", reached)

    def bench(times, epsilons, draws):
        assert draws <= MAX_SHOTS
        return main(["bench", "--ts", ",".join(["1"] * times),
                     "--epsilons", ",".join(["0.01"] * epsilons), "--draws", str(draws)])
    assert 100 * 10 * 10 ** 6 == MAX_RUN_DRAWS
    with pytest.raises(SamplerReached):
        bench(100, 10, 10 ** 6)
    assert 77 * 13 * 999001 == MAX_RUN_DRAWS + 1
    assert bench(77, 13, 999001) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --draws:")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# verify, bench, qpe subcommands
# ---------------------------------------------------------------------------

def test_verify_passes(capsys):
    code = main(["verify", "--dims", "2,3", "--trials", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_inject_fault_fails(capsys):
    code = main(["verify", "--dims", "2", "--trials", "2", "--seed", "5",
                 "--inject-fault"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_bench_stdout_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--ts", "1,4,16", "--epsilons", "0.01", "--draws", "500",
                 "--seed", "2", "--csv-out", str(csv_path)])
    assert code == 0
    rows = read_csv(csv_path)
    assert rows[0] == ["t", "epsilon", "S", "S_over_sqrt_t", "mean_abs_s"]
    assert len(rows) == 4
    ratios = {row[3] for row in rows[1:]}
    assert len(ratios) == 1
    code = main(["bench", "--ts", "1,100", "--epsilons", "0.1", "--draws", "200"])
    assert code == 0
    assert "S_over_sqrt_t" in capsys.readouterr().out


def test_bench_stdout_is_its_csv_file(tmp_path, capsys):
    argv = ["bench", "--ts", "1e-300,1,7", "--epsilons", "0.01,0.3", "--draws", "50"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    csv_path = tmp_path / "bench.csv"
    assert main([*argv, "--csv-out", str(csv_path)]) == 0
    assert csv_path.read_bytes() == stdout.encode()


def test_qpe_runs_and_writes_csv(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    csv_path = tmp_path / "qpe.csv"
    code = main(["qpe", "--config", path, "--shots", "4000", "--seed", "8",
                 "--csv-out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "eigenvalue[0]" in out and "eigenvalue[1]" in out
    rows = read_csv(csv_path)
    assert rows[0] == ["index", "estimate", "stderr", "raw_mean", "ci5_low", "ci5_high"]
    est0, est1 = float(rows[1][1]), float(rows[2][1])
    assert abs(est0 + 1.0) < 0.05 and abs(est1 - 1.0) < 0.05
    low, high = float(rows[1][4]), float(rows[1][5])
    assert low < est0 < high


def test_qpe_seed_flag_completes_config_with_shots(tmp_path, capsys):
    path = write_config(tmp_path, base_config(sampler={"shots": 200}))
    assert main(["qpe", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: sampler.seed:")
    assert main(["qpe", "--config", path, "--seed", "3"]) == 0
    assert "eigenvalue[1]" in capsys.readouterr().out


BAD_FLAGS = [
    (["bench", "--ts", "1", "--draws", "0"], "--draws"),
    (["bench", "--ts", "1", "--draws", "-5"], "--draws"),
    (["bench", "--ts", "1", "--draws", str(MAX_SHOTS + 1)], "--draws"),
    (["bench", "--ts", "inf", "--draws", "10"], "--ts"),
    (["bench", "--ts", "0", "--draws", "10"], "--ts"),
    (["bench", "--ts", ",", "--draws", "10"], "--ts"),
    (["bench", "--ts", "1e308", "--draws", "10"], "--ts"),
    (["bench", "--ts", "1", "--epsilons", "5", "--draws", "10"], "--epsilons"),
    (["bench", "--ts", "1", "--epsilons", "nan", "--draws", "10"], "--epsilons"),
    (["verify", "--dims", "0"], "--dims"),
    (["verify", "--dims", ","], "--dims"),
    (["verify", "--dims", str(MAX_VERIFY_DIM + 1)], "--dims"),
    (["verify", "--dims", "2", "--trials", "0"], "--trials"),
    # subnormal times: S / sqrt(t) loses digits there
    (["bench", "--ts", "1e-320", "--draws", "10"], "--ts"),
    (["bench", "--ts", "1e-320,1", "--draws", "10"], "--ts"),
    # verify's caps: trials, then trials x sum of max(d, 8)^6 at one trial and in all
    (["verify", "--dims", "2", "--trials", str(MAX_VERIFY_TRIALS + 1)], "--trials"),
    (["verify", "--dims", "32", "--trials", "19"], "--trials"),
    (["verify", "--dims", ",".join(["32"] * 19), "--trials", "1"], "--dims"),
]


@pytest.mark.parametrize("argv,flag", BAD_FLAGS)
def test_bad_flag_is_named_with_exit_2(argv, flag, capsys, monkeypatch):
    def refused(**kwargs):
        raise AssertionError(f"verify started the work it refuses: {kwargs}")

    monkeypatch.setattr(cli, "run_verification", refused)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}:")
    assert captured.out == ""


def test_verify_cap_admits_the_largest_allowed_work(monkeypatch):
    calls = []

    def recorded(**kwargs):
        calls.append(kwargs)
        return "", True

    monkeypatch.setattr(cli, "run_verification", recorded)
    assert main(["verify", "--dims", "32", "--trials", "18"]) == 0
    assert main(["verify", "--dims", ",".join(["32"] * 18), "--trials", "1"]) == 0
    assert main(["verify", "--dims", "1", "--trials", str(MAX_VERIFY_TRIALS)]) == 0
    assert [call["trials"] for call in calls] == [18, 1, MAX_VERIFY_TRIALS]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = write_config(tmp_path, base_config(sampler={"shots": 200, "seed": 3}))
    runs = [["verify", "--dims", "2", "--trials", "1"],
            ["bench", "--ts", "1", "--draws", "0"],
            ["qpe", "--config", path],
            ["verify", "--seed", "5"]]

    def outcomes(fresh_parser: bool) -> list:
        build_parser.cache_clear()
        results = []
        for argv in runs:
            if fresh_parser:
                build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = outcomes(fresh_parser=False)
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert shared == outcomes(fresh_parser=True)
    assert build_parser() is build_parser()


def test_qpe_single_index_and_validation(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code = main(["qpe", "--config", path, "--shots", "100", "--seed", "3",
                 "--eigen-index", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "eigenvalue[1]" in out and "eigenvalue[0]" not in out
    assert main(["qpe", "--config", path, "--shots", "1", "--seed", "3"]) == 2
    assert main(["qpe", "--config", path, "--shots", "100", "--seed", "3",
                 "--eigen-index", "7"]) == 2
    assert main(["qpe", "--config", path, "--shots", "100"]) == 2
    capsys.readouterr()
    for flags, key in [([], "sampler.seed"), (["--seed", "3"], "sampler.shots"),
                       (["--shots", "100", "--seed", "3", "--t", "0"], "evolution.t")]:
        assert main(["qpe", "--config", path, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}:")


def test_qpe_eigen_index_draws_only_its_own_stream(tmp_path, capsys, monkeypatch):
    indices = []

    def recording(seed, index):
        indices.append(index)
        return derived_rng(seed, index)

    monkeypatch.setattr(cvqpe, "derived_rng", recording)
    path = write_config(tmp_path, base_config(
        system={"qubits": 2}, hamiltonian={"pauli": ["1.0 ZI", "0.5 IZ", "0.3 XX"]},
        sampler={"shots": 3000, "seed": 6}))
    full_csv = tmp_path / "full.csv"
    assert main(["qpe", "--config", path, "--csv-out", str(full_csv)]) == 0
    full_out = capsys.readouterr().out.splitlines()
    full_rows = full_csv.read_bytes().splitlines(keepends=True)
    assert sorted(indices) == [QPE_STREAMS + k for k in range(4)]
    for k in range(4):
        indices.clear()
        one_csv = tmp_path / f"one{k}.csv"
        assert main(["qpe", "--config", path, "--eigen-index", str(k),
                     "--csv-out", str(one_csv)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == full_out[k]
        assert one_csv.read_bytes().splitlines(keepends=True) == [full_rows[0], full_rows[k + 1]]
        assert indices == [QPE_STREAMS + k]
    indices.clear()
    assert main(["qpe", "--config", path, "--eigen-index", "4"]) == 2
    assert capsys.readouterr().err.startswith("error: --eigen-index:")
    assert indices == []


def test_module_entry_point_exit_codes():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "twirlsim", *args], env=env,
                              capture_output=True, text=True, timeout=300)

    assert run("verify", "--dims", "2", "--trials", "1").returncode == 0
    assert run("verify", "--dims", "2", "--trials", "1", "--inject-fault").returncode == 1
    bad = run("verify", "--dims", "0")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: --dims")
