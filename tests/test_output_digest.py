"""tools/output_digest.py: its case list covers the program, and its lines are reproducible."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from twirlsim import cli, config

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest = _load_tool()


def _kinds_compared_in(function) -> set[str]:
    """Every string that function compares its local `kind` against (== or in a tuple)."""
    kinds = set()
    for node in ast.walk(ast.parse(inspect.getsource(function))):
        if isinstance(node, ast.Compare) and getattr(node.left, "id", None) == "kind":
            for right in node.comparators:
                for const in ast.walk(right):
                    if isinstance(const, ast.Constant) and isinstance(const.value, str):
                        kinds.add(const.value)
    return kinds


def _laws(cases, sampled: bool):
    for _, argv, cfg in cases:
        if isinstance(cfg, dict) and argv[0] == "simulate" and ("sampler" in cfg) == sampled:
            yield cfg["evolution"]["distribution"]


def test_cases_cover_every_kind_and_subcommand():
    cases = digest.cases()
    names = [name for name, _, _ in cases]
    assert len(names) == len(set(names))
    kinds = _kinds_compared_in(config.build_distribution)
    base_kinds = _kinds_compared_in(config._build_base_law)
    assert {"gaussian", "truncated_gaussian", "compound_poisson", "levy"} <= kinds
    assert base_kinds == {"dirac", "mixture", "gaussian"}
    exact = list(_laws(cases, sampled=False))
    assert {law["kind"] for law in exact} >= kinds
    assert {law["base"]["kind"] for law in exact if law["kind"] == "compound_poisson"} \
        == base_kinds
    # every law that has a sampler, at each shot count and seed
    sampled = {}
    for name, argv, cfg in cases:
        if isinstance(cfg, dict) and "sampler" in cfg and argv[0] == "simulate":
            law = cfg["evolution"]["distribution"]
            key = (law["kind"], law.get("base", {}).get("kind"))
            sampled.setdefault(key, set()).add((cfg["sampler"]["shots"], cfg["sampler"]["seed"]))
    every = {(shots, seed) for shots in digest.SHOTS for seed in digest.SEEDS}
    for key in [("gaussian", None), ("truncated_gaussian", None)] + \
            [("compound_poisson", base) for base in base_kinds]:
        assert sampled[key] >= every, key
    parser = cli.build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if action.dest == "command")
    assert {argv[0] for _, argv, _ in cases} == set(subcommands)


def test_cases_cover_every_input_form():
    configs = [cfg[0] if isinstance(cfg, tuple) else cfg for _, _, cfg in digest.cases()]
    configs = [cfg for cfg in configs if isinstance(cfg, dict)]
    assert {key for cfg in configs for key in cfg["system"]} == {"qubits", "dim"}
    assert {key for cfg in configs for key in cfg["hamiltonian"]} == {"pauli", "matrix_file"}
    # a preset by name, a basis index bare or keyed, and a file
    forms = {next(iter(state)) if isinstance(state, dict) else
             state if isinstance(state, str) else type(state).__name__
             for state in (cfg["initial_state"] for cfg in configs)}
    assert forms >= {"plus_all", "maximally_mixed", "int", "basis", "file"}


def test_digest_lines_are_reproducible():
    # one case of each output shape: state and metrics files, stdout naming the
    # working directory, the qpe and bench CSVs, the verify report, an exit-2 message;
    # the second run goes in reverse order, so no case leans on one run before it
    # (CI compares two whole runs of the tool)
    from twirlsim.cli import main

    chosen = {"exact-q6-t4-truncated", "sampled-compound-mixture-shots4097-seed-9",
              "qpe-csv-out", "bench-csv-out", "verify-inject-fault", "exit2-outputs-same-file",
              "exact-dim3-matrix-file-state-file"}
    cases = [case for case in digest.cases() if case[0] in chosen]
    assert len(cases) == len(chosen)
    first = {name: digest.run_case(main, argv, cfg) for name, argv, cfg in cases}
    second = {name: digest.run_case(main, argv, cfg) for name, argv, cfg in reversed(cases)}
    assert first == second
    expected_exit = {"verify-inject-fault": 1, "exit2-outputs-same-file": 2}
    for name, line in first.items():
        assert line.startswith(f"exit={expected_exit.get(name, 0)} "), (name, line)
    assert "state.txt=" in first["exact-q6-t4-truncated"]
    assert "state.txt=" in first["exact-dim3-matrix-file-state-file"]
    assert "metrics.csv=" in first["sampled-compound-mixture-shots4097-seed-9"]
    assert "qpe.csv=" in first["qpe-csv-out"] and "bench.csv=" in first["bench-csv-out"]


def test_header_names_numpy_blas_and_thread_count():
    """The header reports the threads OpenBLAS runs, not only the variable that sets them."""
    import numpy as np

    line = digest.header()
    assert line.startswith(f"# numpy {np.__version__}, blas ")
    assert "\n" not in line
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    code = ("import importlib.util, sys; spec = importlib.util.spec_from_file_location("
            f"'output_digest', {str(TOOL)!r}); module = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(module); print(module.header())")
    one = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.strip()
    assert one.startswith(line.split(", blas threads ")[0] + ", blas threads ")
    assert one.endswith((", blas threads 1", "(OPENBLAS_NUM_THREADS=1)"))
