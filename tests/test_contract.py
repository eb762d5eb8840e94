"""The run contract of `simulate`, over boundary inputs drawn by hypothesis.

Every run does one of two things: it exits 0 and every number in its state
and metrics files is finite, or it exits 2 with a message that starts
`error: <key path>` and writes nothing. The draws are derandomized, so the
test reads the same inputs on every run.
"""

import contextlib
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twirlsim import read_matrix
from twirlsim.cli import main

# the smallest subnormal and normal doubles, the largest double, +-0 and the
# neighbours of 1: where float arithmetic breaks first
EDGES = (5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.0, 1.0 - 2.0 ** -53, 1.0,
         1.0 + 2.0 ** -52, 1e10, 1e300, 1.7976931348623157e308)
edge_floats = st.one_of(st.sampled_from(EDGES + tuple(-x for x in EDGES)),
                        st.floats(allow_nan=False, allow_infinity=False))


def floats_or_edges(low: float, high: float):
    """Boundary floats, or floats in [low, high], so that draws also reach the runs."""
    return st.one_of(edge_floats, st.floats(low, high))


params = floats_or_edges(-4.0, 4.0)
atoms = st.lists(st.tuples(params, params).map(list), min_size=1, max_size=2)
fixed_laws = st.one_of(st.builds(lambda x: {"kind": "dirac", "location": x}, params),
                       st.builds(lambda a: {"kind": "mixture", "atoms": a}, atoms))
base_laws = st.one_of(st.builds(lambda v: {"kind": "gaussian", "variance": v}, params),
                      fixed_laws)
laws = st.one_of(
    st.just({"kind": "gaussian"}),
    st.just({"kind": "truncated_gaussian"}),
    st.builds(lambda s: {"kind": "truncated_gaussian", "cutoff": s}, params),
    fixed_laws,
    st.builds(lambda b: {"kind": "compound_poisson", "base": b}, base_laws),
    st.builds(lambda s, g, a, c: {"kind": "levy", "sigma2": s, "gamma": g, "atoms": a,
                                  "compensated": c},
              params, params, atoms, st.booleans()))
HAMILTONIANS = {1: "1.0 Z", 2: ["1.0 ZI", "0.5 IZ", "0.3 XX", "0.2 YZ"]}
KEY_PATH = re.compile(r"error: [a-z_]+(\.[a-z_0-9]+|\[\d+\])*: ")


def _check_run(work: Path, config: dict) -> None:
    (work / "run.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(work / "run.json")])
    written = {path.name for path in work.iterdir()} - {"run.json"}
    if code == 2:
        assert KEY_PATH.match(err.getvalue()), err.getvalue()
        assert not written
        return
    assert code == 0, err.getvalue()
    assert written == {"state.txt", "metrics.csv"}
    assert np.isfinite(read_matrix(str(work / "state.txt"))).all()
    with open(work / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    numbers = [float(v) for k, v in rows[0].items() if k != "mode" and v != ""]
    assert numbers and all(math.isfinite(x) for x in numbers), rows[0]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(qubits=st.sampled_from(sorted(HAMILTONIANS)), t=floats_or_edges(0.0, 4.0),
       epsilon=floats_or_edges(0.0, 1.0),
       law=laws, shots=st.one_of(st.none(), st.integers(1, 5000)))
# 4/epsilon overflows for a subnormal epsilon, and the sampled window S was inf
@example(qubits=1, t=1.0, epsilon=5e-324, law={"kind": "gaussian"}, shots=10)
def test_simulate_exits_0_with_finite_outputs_or_2_naming_a_key(qubits, t, epsilon, law, shots):
    config = {"system": {"qubits": qubits}, "hamiltonian": {"pauli": HAMILTONIANS[qubits]},
              "initial_state": "plus_all",
              "evolution": {"t": t, "epsilon": epsilon, "distribution": law},
              "outputs": {"state": "state.txt", "metrics": "metrics.csv"}}
    if shots is not None:
        config["sampler"] = {"shots": shots, "seed": 7}
    with tempfile.TemporaryDirectory() as tmp:
        _check_run(Path(tmp), config)
