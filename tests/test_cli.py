import csv
import json
import math

import numpy as np
import pytest

from twirlsim import (
    ConfigError,
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
from twirlsim import cli, pauli
from twirlsim.cli import MAX_VERIFY_DIM, METRICS_HEADER, main
from twirlsim.config import MAX_QUBITS
from twirlsim.distributions import CompoundPoisson, TruncatedGaussian
from twirlsim.sampling import MAX_SAMPLED_KICKS, MAX_SHOTS, cutoff

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
    assert cfg.dim == 2
    assert cfg.qubits == 1
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


def test_parse_pauli_dimension_mismatch(tmp_path):
    data = base_config()
    data["system"] = {"qubits": 2}
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert "dimension" in str(err.value)


def refuse_pauli_matrices(monkeypatch):
    def refuse(word):
        raise AssertionError(f"built a matrix for a {len(word)}-letter word")
    monkeypatch.setattr(pauli, "pauli_word_matrix", refuse)


def test_parse_word_length_checked_before_any_matrix(tmp_path, monkeypatch):
    refuse_pauli_matrices(monkeypatch)
    data = base_config(hamiltonian={"pauli": "1.0 " + "X" * 40})
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert err.value.location == "hamiltonian.pauli"
    assert "dimension" in str(err.value)


def test_parse_qubits_capped_before_any_matrix(tmp_path, monkeypatch):
    refuse_pauli_matrices(monkeypatch)
    qubits = MAX_QUBITS + 1
    data = base_config(system={"qubits": qubits}, hamiltonian={"pauli": "1.0 " + "Z" * qubits})
    with pytest.raises(ConfigError) as err:
        parse_config(data, base_dir=str(tmp_path))
    assert err.value.location == "system.qubits"


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
    assert cfg.qubits is None
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


def test_build_distribution_kinds():
    assert build_distribution({"kind": "gaussian"}, 2.0, 0.1) == Gaussian(variance=2.0)
    trunc = build_distribution({"kind": "truncated_gaussian"}, 1.0, 0.01)
    assert isinstance(trunc, TruncatedGaussian)
    assert abs(trunc.cutoff - cutoff(1.0, 0.01)) < 1e-15
    cp = build_distribution({"kind": "compound_poisson",
                             "base": {"kind": "dirac", "location": 2.0}}, 3.0, 0.1)
    assert cp == CompoundPoisson(rate=3.0, base=Dirac(2.0))
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
    cfg = base_config()
    cfg["evolution"]["t"] = 0.0
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
    for name in ("estimate_channel", "estimate_compound_channel", "resolve_spectrum"):
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
        main(["simulate", "--config", path, "--shots", str(MAX_SAMPLED_KICKS // rate)])
    assert main(["simulate", "--config", path,
                 "--shots", str(MAX_SAMPLED_KICKS // rate + 1)]) == 2
    assert capsys.readouterr().err.startswith("error: sampler.shots:")


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
]


@pytest.mark.parametrize("argv,flag", BAD_FLAGS)
def test_bad_flag_is_named_with_exit_2(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}:")
    assert captured.out == ""


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
