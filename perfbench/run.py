"""twirlsim benchmark: run one workload, or all of them, and print every metric.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sampled-d2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from the traced run. The lines before it repeat them for people, with
the run's metadata. ``--workload all`` runs each workload in its own process.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"  # scratch configs and trace files, inside the checkout
WORKLOAD_NAMES = ("exact-sweep", "sampled-d2", "sampled-d16", "cli")
SETUP_PROBES = 7  # fresh processes timed for setup_s, after one discarded warm-up probe
PROBE_TIMEOUT_S = 120
READY = "ready"


def _import_package():
    """Import twirlsim from this checkout's src/ and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "twirlsim" / "__init__.py").is_file():
        sys.exit(f"error: no twirlsim package under {src}; run from a checkout of the repository")
    sys.path[:0] = [str(src), str(ROOT)]
    import twirlsim
    if Path(twirlsim.__file__).resolve().parent != (src / "twirlsim").resolve():
        sys.exit(f"error: imported twirlsim from {twirlsim.__file__}, not from {src}")
    from perfbench import harness
    return harness


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=f"set up the workload, print '{READY}' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _workdir() -> Path:
    RUN_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"work-{os.getpid()}-", dir=RUN_DIR))


def probe(harness, name: str, seed: int) -> None:
    workdir = _workdir()
    try:
        harness.make_workload(name, seed, workdir)
        print(READY, flush=True)
    finally:
        shutil.rmtree(workdir)


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time fresh processes from spawn until the workload's inputs are ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", name, "--seed", str(seed)]
    times = []
    for attempt in range(SETUP_PROBES + 1):
        started = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != READY or code != 0:
            sys.exit(f"error: set-up probe for {name} failed (exit code {code})")
        if attempt > 0:
            times.append(ready - started)
    return times


def run_metadata() -> dict[str, str]:
    import numpy as np
    meta = {
        "nproc": str(os.cpu_count()),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": _blas_threads(np),
        "commit": _git_commit(),
        "TWIRLSIM_THREADS": os.environ.get("TWIRLSIM_THREADS", "unset"),
        "load": "closed loop, one caller in one process; the cli step with "
                "TWIRLSIM_THREADS=2 runs a 2-thread pool",
    }
    return meta


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _blas_threads(np) -> str:
    """OpenBLAS's own thread count, read through the library numpy bundles."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return "unknown (OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "unset") + ")"


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_one(harness, name: str, seed: int, seconds: float, trace: bool) -> int:
    print(f"# twirlsim benchmark: workload {name}, seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    for key, value in run_metadata().items():
        print(f"# {key}: {value}")
    setup = setup_seconds(name, seed) if not trace else []
    workdir = _workdir()
    try:
        workload = harness.make_workload(name, seed, workdir)
        result = harness.measure(workload, seconds, trace)
    finally:
        shutil.rmtree(workdir)
    for failure in result.failures[:5]:
        print(failure, file=sys.stderr)
    metrics = {}
    if trace:
        layers = result.per_layer()
        for key, (value, unit) in layers.items():
            metrics[key] = _metric(value, unit)
            print(f"{key} {value:.6g} {unit}")
        for line in harness.figures(result):
            print(f"# {line}")
        _write_trace(name, seed, result, layers)
    else:
        setup_s = statistics.median(setup)
        metrics["setup_s"] = _metric(setup_s, "s")
        print(f"setup_s {setup_s:.6g} s (median of {len(setup)} fresh processes)")
        for key, (value, unit, note) in result.end_to_end().items():
            if key in harness.GATED_END_TO_END:
                metrics[key] = _metric(value, unit)
            else:
                note += ", printed only"
            print(f"{key} {value:.6g} {unit} ({note})")
        for line in harness.figures(result):
            print(f"# {line}")
    print(f"error_rate {result.failed / result.attempted:.6g} ratio "
          f"({result.failed} of {result.attempted} ops failed)")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


def _write_trace(name: str, seed: int, result, layers: dict) -> None:
    """Write the kept spans and the per-section layer totals at the end of a traced run."""
    tracer = result.tracer
    record = {
        "workload": name,
        "seed": seed,
        "metadata": run_metadata(),
        "traced_ops": len(result.traced_op_s),
        "layers": {key: value for key, (value, _unit) in layers.items()},
        "sections": [{"section": section, "name": fn, "calls": calls,
                      "total_s": total, "self_s": own}
                     for (section, fn), (calls, total, own) in sorted(tracer.section_totals.items())],
        "spans": tracer.sample_records(),
    }
    RUN_DIR.mkdir(exist_ok=True)
    path = RUN_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps(record))
    print(f"# spans written to {path.relative_to(ROOT)}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print a combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
            rows.append((name, key, metric["value"], metric["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
    print("# summary")
    for name, key, value, unit in rows:
        print(f"{name:<12} {key:<44} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    harness = _import_package()
    if args.probe:
        probe(harness, args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(harness, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
