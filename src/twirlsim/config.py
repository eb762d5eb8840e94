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

Every validation failure raises ConfigError with the offending key path.
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


def _expect_mapping(node, location: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(location, f"expected an object, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], location: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(location, f"unknown keys {sorted(unknown)}")


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
        _reject_unknown(node, {"kind", "location"}, location)
        if "location" not in node:
            raise ConfigError(f"{location}.location", "missing")
        return Dirac(location=_number(node["location"], f"{location}.location"))
    if kind == "mixture":
        _reject_unknown(node, {"kind", "atoms"}, location)
        return FiniteMixture(atoms=_atom_pairs(node.get("atoms"), f"{location}.atoms"))
    if kind == "gaussian":
        _reject_unknown(node, {"kind", "variance"}, location)
        if "variance" not in node:
            raise ConfigError(f"{location}.variance", "missing")
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
            _reject_unknown(node, {"kind"}, location)
            return Gaussian(variance=t)
        if kind == "truncated_gaussian":
            _reject_unknown(node, {"kind", "cutoff"}, location)
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
            _reject_unknown(node, {"kind", "base"}, location)
            base = _build_base_law(node.get("base"), f"{location}.base")
            return CompoundPoisson(rate=t, base=base)
        if kind == "levy":
            _reject_unknown(node, {"kind", "sigma2", "gamma", "atoms", "compensated"}, location)
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


def resolve_output_path(path_value, location: str, base_dir: str) -> str:
    if not isinstance(path_value, str):
        raise ConfigError(location, f"expected a path string, got {path_value!r}")
    path = path_value if os.path.isabs(path_value) else os.path.join(base_dir, path_value)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(location, f"output directory does not exist: {parent}")
    if os.path.isdir(path):
        raise ConfigError(location, f"output path is a directory: {path}")
    return path


def _build_hamiltonian(node, dim: int, qubits: int | None, base_dir: str) -> HermitianOperator:
    node = _expect_mapping(node, "hamiltonian")
    _reject_unknown(node, {"pauli", "matrix_file"}, "hamiltonian")
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
        except (ParseError, HermiticityError) as exc:
            raise ConfigError("hamiltonian.pauli", str(exc)) from None
    path = _resolve_input_path(node["matrix_file"], "hamiltonian.matrix_file", base_dir)
    try:
        mat = read_matrix(path)
        if mat.shape != (dim, dim):
            raise ConfigError("hamiltonian.matrix_file", f"matrix is {mat.shape[0]} x "
                              f"{mat.shape[1]}, expected {dim} x {dim}")
        return HermitianOperator(mat)
    except (ParseError, HermiticityError) as exc:
        raise ConfigError("hamiltonian.matrix_file", f"{path}: {exc}") from None


def _build_initial_state(node, dim: int, base_dir: str) -> np.ndarray:
    if isinstance(node, str):
        node = {"preset": node}
    if isinstance(node, int) and not isinstance(node, bool):
        node = {"basis": node}
    node = _expect_mapping(node, "initial_state")
    _reject_unknown(node, {"preset", "basis", "file"}, "initial_state")
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


def parse_config(data: dict, base_dir: str = ".", overrides: dict | None = None) -> RunConfig:
    """Validate a configuration mapping into a RunConfig.

    overrides maps flat keys (t, epsilon, shots, seed, state_out, metrics_out)
    to values that win over the file contents. A None value, or any other
    key, is ignored, so a command's parsed flags can be passed as they are.
    """
    data = _expect_mapping(data, "config")
    overrides = {key: value for key, value in (overrides or {}).items() if value is not None}
    _reject_unknown(data, {"system", "hamiltonian", "initial_state", "evolution",
                           "sampler", "outputs"}, "config")

    system = _expect_mapping(data.get("system"), "system") if "system" in data else None
    if system is None:
        raise ConfigError("system", "missing")
    _reject_unknown(system, {"qubits", "dim"}, "system")
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

    if "hamiltonian" not in data:
        raise ConfigError("hamiltonian", "missing")
    hamiltonian = _build_hamiltonian(data["hamiltonian"], dim, qubits, base_dir)

    if "initial_state" not in data:
        raise ConfigError("initial_state", "missing")
    state = _build_initial_state(data["initial_state"], dim, base_dir)

    if "evolution" not in data:
        raise ConfigError("evolution", "missing")
    evolution = _expect_mapping(data["evolution"], "evolution")
    _reject_unknown(evolution, {"t", "epsilon", "distribution"}, "evolution")
    for key in ("t", "epsilon", "distribution"):
        if key not in evolution:
            raise ConfigError(f"evolution.{key}", "missing")
    t = _number(overrides.get("t", evolution["t"]), "evolution.t")
    epsilon = _number(overrides.get("epsilon", evolution["epsilon"]), "evolution.epsilon")
    if t < 0.0:
        raise ConfigError("evolution.t", f"must be >= 0, got {t}")
    if not 0.0 < epsilon < 1.0:
        raise ConfigError("evolution.epsilon", f"must be in (0, 1), got {epsilon}")
    law = build_distribution(evolution["distribution"], t, epsilon)

    shots = None
    seed = None
    if "sampler" in data:
        sampler = _expect_mapping(data["sampler"], "sampler")
        _reject_unknown(sampler, {"shots", "seed"}, "sampler")
        if "shots" in sampler:
            shots = _integer(sampler["shots"], "sampler.shots")
        if "seed" in sampler:
            seed = _integer(sampler["seed"], "sampler.seed")
    if "shots" in overrides:
        shots = int(overrides["shots"])
    if "seed" in overrides:
        seed = int(overrides["seed"])
    if shots is not None and shots < 1:
        raise ConfigError("sampler.shots", f"must be >= 1, got {shots}")
    if shots is not None and shots > MAX_SHOTS:
        raise ConfigError("sampler.shots", f"must be at most {MAX_SHOTS}, got {shots}")
    if shots is not None and seed is None:
        raise ConfigError("sampler.seed", "sampled runs need a seed")

    state_out = metrics_out = None
    if "outputs" in data:
        outputs = _expect_mapping(data["outputs"], "outputs")
        _reject_unknown(outputs, {"state", "metrics"}, "outputs")
        if "state" in outputs:
            state_out = resolve_output_path(outputs["state"], "outputs.state", base_dir)
        if "metrics" in outputs:
            metrics_out = resolve_output_path(outputs["metrics"], "outputs.metrics", base_dir)
    if "state_out" in overrides:
        state_out = resolve_output_path(overrides["state_out"], "outputs.state", ".")
    if "metrics_out" in overrides:
        metrics_out = resolve_output_path(overrides["metrics_out"], "outputs.metrics", ".")

    return RunConfig(hamiltonian=hamiltonian,
                     initial_state=state, t=t, epsilon=epsilon, law=law,
                     shots=shots, seed=seed,
                     state_out=state_out, metrics_out=metrics_out)
