"""Digest of twirlsim's outputs over a fixed list of command-line cases.

Usage, from the root of a checkout:

    python3 tools/output_digest.py > digest.txt

Every case runs in-process through ``twirlsim.cli.main``, imported from this
checkout's ``src/``, in a fresh temporary directory. A first line, starting
with ``#``, names the numpy version, its BLAS and the number of threads
OpenBLAS runs (``OPENBLAS_NUM_THREADS`` where that cannot be read): outputs
are byte-stable only for the same build and BLAS thread count. Then it
prints one line per case: the name, the exit code, and the sha256 of stdout,
of stderr, of the warnings raised (category and message), and of each file
the case wrote.
Before hashing, the temporary directory's path is replaced by ``<work>`` and
the ``wall_seconds`` column of the metrics file, its last, is blanked: the
run's own timing is its one non-deterministic output. An empty stream prints
``-``.

To show that a change keeps every output byte, run the tool on the parent
and on the change and ``diff`` the two outputs: each differing line names a
case whose output moved. The case list covers every distribution kind, exact
and sampled, every subcommand, and the exit-2 cases of the input checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAULI_2 = ["1.0 ZI", "0.5 IZ", "0.3 XX", "0.2 YZ"]
PAULI_6 = ["0.9 ZIIIII", "-0.7 IZIZII", "0.55 XXIIII", "0.4 IIYYII", "-0.35 IIIXZI",
           "0.3 IIIIZX", "0.25 YIIIIY", "-0.2 ZXYIII", "0.15 IIZYXI", "0.1 XIIZIY"]
PAULI_7 = ["0.8 ZIIIIII", "-0.75 IZIIZII", "0.6 XXIIIII", "0.5 IIYYIII", "-0.45 IIIXZII",
           "0.4 IIIIZXI", "0.35 YIIIIYI", "-0.3 ZXYIIII", "0.25 IIZYXII", "0.2 XIIZIYI",
           "0.15 IIIIIZX", "-0.1 YIZIXIZ"]

BASES = {"dirac": {"kind": "dirac", "location": 1.25},
         "mixture": {"kind": "mixture", "atoms": [[0.8, 0.5], [-0.4, 0.5]]},
         "gaussian": {"kind": "gaussian", "variance": 0.5}}
LAWS = {
    "gaussian": {"kind": "gaussian"},
    "truncated": {"kind": "truncated_gaussian"},
    "truncated-cutoff": {"kind": "truncated_gaussian", "cutoff": 0.7},
    "dirac": BASES["dirac"],
    "mixture": BASES["mixture"],
    **{f"compound-{name}": {"kind": "compound_poisson", "base": base}
       for name, base in BASES.items()},
    "levy": {"kind": "levy", "sigma2": 0.4, "gamma": 0.2,
             "atoms": [[0.7, 0.5], [-1.5, 0.3]], "compensated": True},
    "levy-plain": {"kind": "levy", "gamma": -0.3, "atoms": [[0.7, 0.5]]},
}
SAMPLED_LAWS = ("gaussian", "truncated", "truncated-cutoff",
                "compound-dirac", "compound-mixture", "compound-gaussian")
SHOTS = (1, 4096, 4097)  # one shot, one full 4096-shot chunk, and one past it
SEEDS = (7, -9, 123456789)
OUTPUTS = {"state": "state.txt", "metrics": "metrics.csv"}


def _config(qubits=2, pauli=PAULI_2, t=1.0, law="gaussian", sampler=None, **sections):
    cfg = {"system": {"qubits": qubits}, "hamiltonian": {"pauli": pauli},
           "initial_state": "plus_all",
           "evolution": {"t": t, "epsilon": 0.01,
                         "distribution": LAWS[law] if isinstance(law, str) else law},
           "outputs": OUTPUTS}
    if sampler is not None:
        cfg["sampler"] = sampler
    cfg.update(sections)
    return cfg


def cases() -> list[tuple[str, list[str], object]]:
    """(name, argv, config) for every case; a config is a mapping, raw JSON text, or None.

    The config, when given, is written to run.json in the case's directory,
    which is also the working directory, so argv names files relative to it.
    """
    simulate = ["simulate", "--config", "run.json"]
    out = []
    for qubits, pauli in ((2, PAULI_2), (6, PAULI_6)):
        for law in LAWS:
            out.append((f"exact-q{qubits}-{law}", simulate, _config(qubits, pauli, 1.0, law)))
    # the truncated rule's two branches, and at 128 x 128 more distinct gaps than one block
    for law in ("gaussian", "truncated", "truncated-cutoff", "compound-gaussian"):
        out.append((f"exact-q6-t4-{law}", simulate, _config(6, PAULI_6, 4.0, law)))
    for t, law in ((1.0, "truncated"), (4.0, "truncated"), (4.0, "truncated-cutoff")):
        out.append((f"exact-q7-t{t:g}-{law}", simulate, _config(7, PAULI_7, t, law)))
    # H = 1.0 ZI has two doubly degenerate eigenvalues: zero gaps off the diagonal
    for law in ("truncated", "dirac", "mixture"):
        out.append((f"exact-q2-degenerate-{law}", simulate, _config(2, ["1.0 ZI"], 1.0, law)))
    for law in SAMPLED_LAWS:
        for shots in SHOTS:
            for seed in SEEDS:
                out.append((f"sampled-{law}-shots{shots}-seed{seed}", simulate,
                            _config(law=law, sampler={"shots": shots, "seed": seed})))
    out.append(("sampled-q6-gaussian", simulate,
                _config(6, PAULI_6, law="gaussian", sampler={"shots": 300, "seed": 4})))
    for law in ("dirac", "mixture", "levy"):
        out.append((f"sampled-{law}-has-no-sampler", simulate,
                    _config(law=law, sampler={"shots": 10, "seed": 7})))

    qpe = _config(sampler={"shots": 3000, "seed": 6})
    out += [("qpe", ["qpe", "--config", "run.json"], qpe),
            ("qpe-eigen-index", ["qpe", "--config", "run.json", "--eigen-index", "2"], qpe),
            ("qpe-csv-out", ["qpe", "--config", "run.json", "--csv-out", "qpe.csv"], qpe),
            ("qpe-seed-flag", ["qpe", "--config", "run.json", "--seed", "-9", "--t", "2.5"], qpe)]
    out += [("bench", ["bench"], None),
            ("bench-csv-out", ["bench", "--ts", "0.5,2", "--epsilons", "0.01,0.1",
                               "--draws", "4097", "--seed", "-9", "--csv-out", "bench.csv"],
             None),
            ("verify", ["verify"], None),
            ("verify-inject-fault", ["verify", "--inject-fault", "--dims", "2,3",
                                     "--trials", "4"], None)]

    exit2 = [
        ("unknown-kind", simulate, _config(law={"kind": "cauchy"})),
        ("missing-outputs", simulate, {**_config(), "outputs": {}}),
        ("output-is-directory", simulate + ["--state-out", "."], _config()),
        ("outputs-same-file", simulate + ["--state-out", "x", "--metrics-out", "x"], _config()),
        ("output-names-config", simulate + ["--state-out", "run.json"], _config()),
        ("pauli-nan", simulate, _config(pauli="nan Z")),
        ("json-nan-token", simulate, json.dumps(_config()).replace('"epsilon": 0.01',
                                                                    '"epsilon": NaN')),
        ("truncated-zero-time", simulate + ["--t", "0"], _config(law="truncated")),
        ("overflow-levy", simulate,
         _config(t=1e10, law={"kind": "levy", "sigma2": 1e300})),
        ("overflow-dirac", simulate, _config(law={"kind": "dirac", "location": 1e308})),
        ("overflow-pauli", simulate, _config(1, ["1e308 Z", "1e308 Z"])),
        ("overflow-spectrum", simulate, _config(1, ["1e308 I", "1e308 X"])),
        ("overflow-qpe", ["qpe", "--config", "run.json"],
         _config(t=1e-320, sampler={"shots": 100, "seed": 1})),
        ("pauli-work-cap", simulate, _config(10, ["0.5 XYZIIIIIIZ"] * 16385)),
        ("shots-cap", simulate + ["--shots", str(10 ** 7 + 1), "--seed", "1"], _config()),
        ("compound-rate-cap", simulate + ["--t", "2e6"],
         _config(law="compound-dirac", sampler={"shots": 10, "seed": 1})),
        ("qpe-no-seed", ["qpe", "--config", "run.json", "--shots", "100"], _config()),
        ("qpe-eigen-index-range", ["qpe", "--config", "run.json", "--eigen-index", "7"], qpe),
        ("bench-subnormal-ts", ["bench", "--ts", "1e-320,1", "--draws", "10"], None),
        ("bench-draws", ["bench", "--ts", "1", "--draws", "0"], None),
        ("verify-dims", ["verify", "--dims", "0"], None),
        ("verify-trials", ["verify", "--dims", "2", "--trials", "0"], None),
        ("verify-work-cap", ["verify", "--dims", "32", "--trials", "19"], None),
    ]
    # eigh fails on this sum with some LAPACK builds (exit 2), and converges with others
    out.append(("hard-pauli-sum", simulate,
                _config(3, ["0.035786967764803126 XII", "1e+308 YXX", "-0.27001039798862364 ZZX",
                            "1e+308 ZXZ", "5e-324 IXY", "0.0005024844545833684 IZI",
                            "-0.48986611197868063 ZYY", "0.0016659407140512403 YIY",
                            "0.7292817915893176 IYX"])))
    return out + [(f"exit2-{name}", argv, cfg) for name, argv, cfg in exit2]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest() if data else "-"


def _file_bytes(path: Path) -> bytes:
    """The file's bytes, with the last field of each row blanked under a wall_seconds header."""
    lines = path.read_bytes().split(b"\n")
    if lines[0].endswith(b",wall_seconds"):
        lines[1:] = [line.rsplit(b",", 1)[0] + b"," if line else line for line in lines[1:]]
    return b"\n".join(lines)


def run_case(main, argv: list[str], config) -> str:
    """' '-joined exit code and hashes of one case, run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if config is not None:
            (work / "run.json").write_text(config if isinstance(config, str)
                                           else json.dumps(config))
        before = set(work.iterdir())
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
        finally:
            os.chdir(cwd)
        fields = [f"exit={code}"]
        for name, text in (("out", out.getvalue()), ("err", err.getvalue()),
                           ("warn", "".join(f"{w.category.__name__}: {w.message}\n"
                                            for w in caught))):
            fields.append(f"{name}={_sha(text.replace(str(work), '<work>').encode())}")
        for path in sorted(set(work.iterdir()) - before):
            fields.append(f"{path.name}={_sha(_file_bytes(path))}")
    return " ".join(fields)


def digest_lines() -> list[str]:
    from twirlsim.cli import main
    return [f"{name} {run_case(main, argv, config)}" for name, argv, config in cases()]


def header() -> str:
    """One `#` line naming what the bytes depend on beyond the seed: numpy, its BLAS, its threads.

    The thread count is the one OpenBLAS reports, as in the benchmark's
    metadata; where it cannot be read, OPENBLAS_NUM_THREADS stands in.
    """
    import numpy as np

    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))
    from perfbench.run import _blas_name, _blas_threads
    return f"# numpy {np.__version__}, blas {_blas_name(np)}, blas threads {_blas_threads(np)}"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print(header(), flush=True)
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
