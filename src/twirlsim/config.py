"""Run configuration: a JSON file with nested sections, overridable by flags.

Example:

    {
      "system": {"qubits": 1},
      "hamiltonian": {"pauli": ["1.0 Z"]},
      "initial_state": "plus_all",
      "evolution": {"t": 1.0, "epsilon": 0.01,
                    "distribution": {"kind": "gaussian"}},
      "sampler": {"shots": 200000, "seed": 7},
      "outputs": {"state": "state.txt", "metrics": "metrics.csv"}
    }

Each section is read by one call that rejects unknown keys and names a
missing one. A flag replaces its file value before that value is validated.
Only the outputs a command writes are resolved. The state and metrics
outputs must be different files, and no output may be a file the run reads
(the config file, hamiltonian.matrix_file or initial_state.file). Every
validation failure raises ConfigError with the offending key path.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .channels import basis_state, check_density_matrix, maximally_mixed, plus_state
from .distributions import (
    CompoundPoisson,
    Dirac,
    DistributionSpec,
    FiniteMixture,
    Gaussian,
    LevyTriplet,
    TruncatedGaussian,
    scale_triplet,
)
from .errors import ConfigError, DistributionError, HermiticityError, ParseError
from .linalg import HermitianOperator
from .matio import read_matrix
from .pauli import parse_pauli_sum
from .sampling import MAX_SHOTS, cutoff

MAX_QUBITS = 10  # a 2^10 x 2^10 complex matrix is 16 MiB


@dataclass(frozen=True)
class RunConfig:
    hamiltonian: HermitianOperator
    initial_state: np.ndarray
    t: float
    epsilon: float
    law: DistributionSpec
    shots: int | None
    seed: int | None
    state_out: str | None
    metrics_out: str | None
    reads: dict[str, str]  # name -> path of each file the run reads; no output may be one


def _expect_mapping(node, location: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(location, f"expected an object, got {type(node).__name__}")
    return node


def _mapping(node, location: str, allowed: set[str], required=()) -> dict:
    """node as an object whose keys are all allowed and include every required one."""
    node = _expect_mapping(node, location)
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(location, f"unknown keys {sorted(unknown)}")
    for key in required:
        if key not in node:
            raise ConfigError(key if location == "config" else f"{location}.{key}", "missing")
    return node


def _number(node, location: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ConfigError(location, f"expected a number, got {node!r}")
    try:
        value = float(node)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(location, f"expected a finite number, got {node!r}")
    return value


def _integer(node, location: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ConfigError(location, f"expected an integer, got {node!r}")
    return node


def _reject_constant(token: str):
    raise ConfigError("config", f"{token} is not a finite number")


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}, "
                                    f"column {exc.colno}: {exc.msg}") from None
    return _expect_mapping(data, "config")


def _atom_pairs(node, location: str) -> list[tuple[float, float]]:
    if not isinstance(node, list) or not node:
        raise ConfigError(location, "expected a non-empty list of [value, weight] pairs")
    pairs = []
    for i, item in enumerate(node):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{location}[{i}]", "expected a [value, weight] pair")
        pairs.append((_number(item[0], f"{location}[{i}][0]"),
                      _number(item[1], f"{location}[{i}][1]")))
    return pairs


def _build_base_law(node, location: str):
    """A law that is not time-scaled: a compound Poisson base, or a dirac or mixture twirl."""
    node = _expect_mapping(node, location)
    kind = node.get("kind")
    if kind == "dirac":
        _mapping(node, location, {"kind", "location"}, required=("location",))
        return Dirac(location=_number(node["location"], f"{location}.location"))
    if kind == "mixture":
        _mapping(node, location, {"kind", "atoms"})
        return FiniteMixture(atoms=_atom_pairs(node.get("atoms"), f"{location}.atoms"))
    if kind == "gaussian":
        _mapping(node, location, {"kind", "variance"}, required=("variance",))
        return Gaussian(variance=_number(node["variance"], f"{location}.variance"))
    raise ConfigError(f"{location}.kind",
                      f"base law must be dirac, mixture or gaussian, got {kind!r}")


def build_distribution(node: dict, t: float, epsilon: float) -> DistributionSpec:
    """Concrete law for evolution time t from its config description.

    Time-scalable families (gaussian, truncated_gaussian, compound_poisson,
    levy) absorb t; dirac and mixture are fixed laws applied as given.
    """
    location = "evolution.distribution"
    node = _expect_mapping(node, location)
    kind = node.get("kind")
    if kind is None:
        raise ConfigError(f"{location}.kind", "missing")
    try:
        if kind == "gaussian":
            _mapping(node, location, {"kind"})
            return Gaussian(variance=t)
        if kind == "truncated_gaussian":
            _mapping(node, location, {"kind", "cutoff"})
            if "cutoff" in node:
                s_cut = _number(node["cutoff"], f"{location}.cutoff")
            elif t > 0.0:
                s_cut = cutoff(t, epsilon)
            else:
                raise ConfigError("evolution.t",
                                  f"truncated_gaussian without a cutoff needs t > 0, got {t}")
            return TruncatedGaussian(variance=t, cutoff=s_cut)
        if kind in ("dirac", "mixture"):
            return _build_base_law(node, location)
        if kind == "compound_poisson":
            _mapping(node, location, {"kind", "base"})
            base = _build_base_law(node.get("base"), f"{location}.base")
            return CompoundPoisson(rate=t, base=base)
        if kind == "levy":
            _mapping(node, location, {"kind", "sigma2", "gamma", "atoms", "compensated"})
            sigma2 = _number(node.get("sigma2", 0.0), f"{location}.sigma2")
            gamma = _number(node.get("gamma", 0.0), f"{location}.gamma")
            atoms = _atom_pairs(node["atoms"], f"{location}.atoms") if "atoms" in node else []
            compensated = node.get("compensated", False)
            if not isinstance(compensated, bool):
                raise ConfigError(f"{location}.compensated", "expected true or false")
            triplet = LevyTriplet(sigma2=sigma2, gamma=gamma, atoms=tuple(atoms),
                                  compensated=compensated)
            return scale_triplet(triplet, t)
    except DistributionError as exc:
        raise ConfigError(location, str(exc)) from None
    raise ConfigError(f"{location}.kind", f"unknown distribution kind {kind!r}")


def _resolve_input_path(path_value, location: str, base_dir: str) -> str:
    if not isinstance(path_value, str):
        raise ConfigError(location, f"expected a path string, got {path_value!r}")
    path = path_value if os.path.isabs(path_value) else os.path.join(base_dir, path_value)
    if not os.path.isfile(path):
        raise ConfigError(location, f"file not found: {path}")
    return path


def resolve_output_path(path_value, location: str, base_dir: str,
                        reads: dict[str, str] | None = None) -> str:
    """The output path, in an existing directory and not a directory itself.

    reads maps a name to each file the run reads; the path may name none of them.
    """
    if not isinstance(path_value, str):
        raise ConfigError(location, f"expected a path string, got {path_value!r}")
    path = path_value if os.path.isabs(path_value) else os.path.join(base_dir, path_value)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(location, f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise ConfigError(location, f"output path is a directory: {path}")
    for name, source in (reads or {}).items():
        if os.path.realpath(path) == os.path.realpath(source):
            raise ConfigError(location, f"{path} is {name}, which the run reads")
    return path


def _build_hamiltonian(node, dim: int, qubits: int | None, base_dir: str) -> HermitianOperator:
    node = _mapping(node, "hamiltonian", {"pauli", "matrix_file"})
    if ("pauli" in node) == ("matrix_file" in node):
        raise ConfigError("hamiltonian", "give exactly one of 'pauli' or 'matrix_file'")
    if "pauli" in node:
        if qubits is None:
            raise ConfigError("hamiltonian.pauli", "a Pauli sum needs system.qubits")
        text = node["pauli"]
        if not (isinstance(text, str)
                or (isinstance(text, list) and all(isinstance(x, str) for x in text))):
            raise ConfigError("hamiltonian.pauli", "expected a string or list of strings")
        try:
            return parse_pauli_sum(text, qubits=qubits)
        except (ParseError, HermiticityError, np.linalg.LinAlgError) as exc:
            raise ConfigError("hamiltonian.pauli", str(exc)) from None
    path = _resolve_input_path(node["matrix_file"], "hamiltonian.matrix_file", base_dir)
    try:
        mat = read_matrix(path)
        if mat.shape != (dim, dim):
            raise ConfigError("hamiltonian.matrix_file", f"matrix is {mat.shape[0]} x "
                              f"{mat.shape[1]}, expected {dim} x {dim}")
        return HermitianOperator(mat)
    except (ParseError, HermiticityError, np.linalg.LinAlgError) as exc:
        raise ConfigError("hamiltonian.matrix_file", f"{path}: {exc}") from None


def _build_initial_state(node, dim: int, base_dir: str) -> np.ndarray:
    if isinstance(node, str):
        node = {"preset": node}
    if isinstance(node, int) and not isinstance(node, bool):
        node = {"basis": node}
    node = _mapping(node, "initial_state", {"preset", "basis", "file"})
    given = [k for k in ("preset", "basis", "file") if k in node]
    if len(given) != 1:
        raise ConfigError("initial_state", "give exactly one of 'preset', 'basis' or 'file'")
    if "preset" in node:
        preset = node["preset"]
        if preset == "plus_all":
            qubits = dim.bit_length() - 1
            if 2 ** qubits != dim:
                raise ConfigError("initial_state.preset",
                                  f"'plus_all' needs a power-of-two dimension, got {dim}")
            return plus_state(qubits)
        if preset == "maximally_mixed":
            return maximally_mixed(dim)
        raise ConfigError("initial_state.preset", f"unknown preset {preset!r}")
    if "basis" in node:
        index = _integer(node["basis"], "initial_state.basis")
        if not 0 <= index < dim:
            raise ConfigError("initial_state.basis",
                              f"index {index} out of range for dimension {dim}")
        return basis_state(dim, index)
    path = _resolve_input_path(node["file"], "initial_state.file", base_dir)
    try:
        rho = read_matrix(path)
    except ParseError as exc:
        raise ConfigError("initial_state.file", f"{path}: {exc}") from None
    if rho.shape != (dim, dim):
        raise ConfigError("initial_state.file",
                          f"state is {rho.shape[0]} x {rho.shape[1]}, expected {dim} x {dim}")
    try:
        check_density_matrix(rho)
    except ValueError as exc:
        raise ConfigError("initial_state.file", str(exc)) from None
    return rho


def parse_config(data: dict, base_dir: str = ".", overrides: dict | None = None,
                 config_file: str | None = None,
                 writes: tuple[str, ...] = ("state", "metrics")) -> RunConfig:
    """Validate a configuration mapping into a RunConfig.

    overrides maps flat keys (t, epsilon, shots, seed, state_out, metrics_out)
    to values that replace the file's values before those are validated, so a
    flag's file value is never read. A None value, or any other key, is
    ignored, so a command's parsed flags can be passed as they are.
    config_file is the file data was read from, if any; no output may name it.
    writes names the outputs the command writes; only their paths are
    resolved, and the others are None.
    """
    data = _mapping(data, "config", {"system", "hamiltonian", "initial_state", "evolution",
                                     "sampler", "outputs"},
                    required=("system", "hamiltonian", "initial_state", "evolution"))
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}

    system = _mapping(data["system"], "system", {"qubits", "dim"})
    if ("qubits" in system) == ("dim" in system):
        raise ConfigError("system", "give exactly one of 'qubits' or 'dim'")
    if "qubits" in system:
        qubits = _integer(system["qubits"], "system.qubits")
        if not 1 <= qubits <= MAX_QUBITS:
            raise ConfigError("system.qubits", f"must be in [1, {MAX_QUBITS}], got {qubits}")
        dim = 2 ** qubits
    else:
        qubits = None
        dim = _integer(system["dim"], "system.dim")
        if dim < 1:
            raise ConfigError("system.dim", f"must be >= 1, got {dim}")

    hamiltonian = _build_hamiltonian(data["hamiltonian"], dim, qubits, base_dir)
    state = _build_initial_state(data["initial_state"], dim, base_dir)

    evolution = _mapping(data["evolution"], "evolution", {"t", "epsilon", "distribution"},
                         required=("t", "epsilon", "distribution"))
    t = _number(overrides.get("t", evolution["t"]), "evolution.t")
    epsilon = _number(overrides.get("epsilon", evolution["epsilon"]), "evolution.epsilon")
    if t < 0.0:
        raise ConfigError("evolution.t", f"must be >= 0, got {t}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("evolution.epsilon", f"must be in (0, 1), got {epsilon}")
    law = build_distribution(evolution["distribution"], t, epsilon)

    sampler = {**_mapping(data.get("sampler", {}), "sampler", {"shots", "seed"}),
               **{key: overrides[key] for key in ("shots", "seed") if key in overrides}}
    shots = _integer(sampler["shots"], "sampler.shots") if "shots" in sampler else None
    seed = _integer(sampler["seed"], "sampler.seed") if "seed" in sampler else None
    if shots is not None and shots < 1:
        raise ConfigError("sampler.shots", f"must be >= 1, got {shots}")
    if shots is not None and shots > MAX_SHOTS:
        raise ConfigError("sampler.shots", f"must be at most {MAX_SHOTS}, got {shots}")
    if shots is not None and seed is None:
        raise ConfigError("sampler.seed", "sampled runs need a seed")

    # no output may overwrite a file the run reads, nor the other output
    state_node = data["initial_state"]
    reads = {"hamiltonian.matrix_file": data["hamiltonian"].get("matrix_file"),
             "initial_state.file": isinstance(state_node, dict) and state_node.get("file")}
    reads = {name: os.path.join(base_dir, path) for name, path in reads.items() if path}
    if config_file is not None:
        reads["the config file"] = config_file
    # a flag's path is relative to the working directory, a file's to the config's
    outputs = _mapping(data.get("outputs", {}), "outputs", {"state", "metrics"})
    paths = {key: resolve_output_path(overrides[f"{key}_out"], f"outputs.{key}", ".", reads)
             if f"{key}_out" in overrides else
             resolve_output_path(outputs[key], f"outputs.{key}", base_dir, reads)
             for key in writes if f"{key}_out" in overrides or key in outputs}
    state_out, metrics_out = paths.get("state"), paths.get("metrics")
    if state_out and metrics_out and os.path.realpath(state_out) == os.path.realpath(metrics_out):
        raise ConfigError("outputs.metrics", f"{metrics_out} is the same file as the "
                                             f"state output {state_out}")

    return RunConfig(hamiltonian=hamiltonian,
                     initial_state=state, t=t, epsilon=epsilon, law=law,
                     shots=shots, seed=seed,
                     state_out=state_out, metrics_out=metrics_out, reads=reads)
