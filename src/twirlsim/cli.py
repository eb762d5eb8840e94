"""Command-line interface.

Subcommands:
  simulate  evolve a state exactly or by sampling; writes state and metrics
  verify    run randomized self-checks; nonzero exit on failure
  bench     tabulate the truncation window and sampled cost across times
  qpe       estimate eigenvalues from conjugate-basis readout statistics

Exit codes: 0 success, 1 verification or assertion failure, 2 configuration
or parse error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time

import numpy as np

from .config import RunConfig, load_config_file, parse_config, resolve_output_path
from .cvqpe import estimate_lambda, resolve_spectrum
from .distributions import CompoundPoisson, Gaussian, TruncatedGaussian
from .errors import ConfigError
from .linalg import trace_norm
from .matio import format_float, write_matrix
from .sampling import (
    MAX_RUN_DRAWS,
    MAX_RUN_WORK,
    MAX_SAMPLED_RATE,
    MAX_SHOTS,
    ShotPlan,
    cutoff,
    estimate_channel,
    estimate_compound_channel,
    mean_sampled_cost,
    scaling_table,
    tv_bound,
)
from .twirling import exact_channel
from .verify import run_verification

METRICS_HEADER = ["mode", "t", "epsilon", "S", "shots", "total_sim_time",
                  "choi_distance_to_exact", "tv_bound", "wall_seconds"]
BENCH_HEADER = ["t", "epsilon", "S", "S_over_sqrt_t", "mean_abs_s"]
QPE_HEADER = ["index", "estimate", "stderr", "raw_mean", "ci5_low", "ci5_high"]
MAX_VERIFY_DIM = 32  # verify eigendecomposes a d^2 x d^2 matrix at each --dims entry


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _write_rows(stream, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(fh, header, rows)


def _run_config(args, writes: tuple[str, ...]) -> RunConfig:
    """The config file args.config, with the command's flags as overrides.

    writes names the config outputs the command writes (see parse_config).
    """
    return parse_config(load_config_file(args.config),
                        base_dir=os.path.dirname(os.path.abspath(args.config)),
                        overrides=vars(args), config_file=args.config, writes=writes)


def cmd_simulate(args) -> int:
    cfg = _run_config(args, writes=("state", "metrics"))
    if cfg.state_out is None or cfg.metrics_out is None:
        raise ConfigError("outputs", "simulate needs outputs.state and outputs.metrics")
    started = time.perf_counter()

    law = cfg.law
    if cfg.shots is not None:
        if isinstance(law, (Gaussian, TruncatedGaussian)) and cfg.t <= 0.0:
            raise ConfigError("evolution.t", "sampled gaussian runs need t > 0")
        if isinstance(law, Gaussian):
            law = TruncatedGaussian(variance=cfg.t, cutoff=cutoff(cfg.t, cfg.epsilon))
        if isinstance(law, CompoundPoisson):
            if cfg.t > MAX_SAMPLED_RATE:
                raise ConfigError("evolution.t", f"rate {cfg.t:g} too large to sample "
                                                 f"(at most {MAX_SAMPLED_RATE:g})")
            kicks = cfg.shots * cfg.t
            if kicks > MAX_RUN_DRAWS:
                raise ConfigError("sampler.shots",
                                  f"{cfg.shots} shots at rate {cfg.t:g} draw about {kicks:.3g} "
                                  f"kicks; at most {MAX_RUN_DRAWS:.0e} are allowed")
        elif not isinstance(law, TruncatedGaussian):
            raise ConfigError("sampler.shots",
                              f"distribution {type(law).__name__} has no sampler; "
                              "run without shots")
        dim = cfg.hamiltonian.dim
        work = cfg.shots * dim ** 2
        if work > MAX_RUN_WORK:
            raise ConfigError("sampler.shots", f"{cfg.shots} shots at d={dim} take {work} phase "
                                               f"products; at most {MAX_RUN_WORK:.0e} are allowed")
    exact = exact_channel(cfg.hamiltonian, law)
    if not np.isfinite(exact.multiplier).all():
        raise ConfigError("evolution.distribution",
                          f"the {type(law).__name__} multiplier overflows at the "
                          "eigenvalue gaps of the Hamiltonian")

    if cfg.shots is None:
        final_state = exact.apply(cfg.initial_state)
        row = ["exact", cfg.t, cfg.epsilon, None, None, None, None, None]
    else:
        if isinstance(law, TruncatedGaussian):
            plan = ShotPlan(t=cfg.t, epsilon=cfg.epsilon, cutoff=law.cutoff,
                            shots=cfg.shots, seed=cfg.seed)
            empirical, ledger = estimate_channel(cfg.hamiltonian, plan)
            mode, s_cut, tv = "sampled_gaussian", law.cutoff, tv_bound(cfg.t, law.cutoff)
        else:
            empirical, ledger = estimate_compound_channel(
                cfg.hamiltonian, law.base, cfg.t, cfg.shots, cfg.seed)
            mode, s_cut, tv = "sampled_compound", None, None
        if not (np.isfinite(empirical.multiplier).all() and math.isfinite(ledger.total_time)):
            raise ConfigError("evolution.distribution",
                              f"the sampled {type(law).__name__} times or their total "
                              "cost overflow")
        final_state = empirical.apply(cfg.initial_state)
        # both multipliers live in the eigenbasis of cfg.hamiltonian, and the map
        # from a multiplier to its Choi matrix is an isometry, so the d x d trace
        # norm equals the Choi trace distance
        distance = trace_norm(empirical.multiplier - exact.multiplier)
        row = [mode, cfg.t, cfg.epsilon, s_cut, cfg.shots, ledger.total_time, distance, tv]
    row.append(time.perf_counter() - started)

    write_matrix(cfg.state_out, final_state)
    _write_csv(cfg.metrics_out, METRICS_HEADER, [row])
    print(f"wrote {cfg.state_out} and {cfg.metrics_out}")
    return 0


def cmd_verify(args) -> int:
    dims = _flag_list(args.dims, "--dims", int, lambda d: 1 <= d <= MAX_VERIFY_DIM,
                      f"an integer in [1, {MAX_VERIFY_DIM}]")
    if args.trials < 1:
        raise ConfigError("--trials", f"must be >= 1, got {args.trials}")
    report, ok = run_verification(dims=dims, trials=args.trials, seed=args.seed,
                                  inject_fault=args.inject_fault)
    print(report)
    return 0 if ok else 1


def cmd_bench(args) -> int:
    ts = _flag_list(args.ts, "--ts", float, lambda t: sys.float_info.min <= t < math.inf,
                    f"a finite number >= {sys.float_info.min!r}")
    epsilons = _flag_list(args.epsilons, "--epsilons", float, lambda e: 0.0 < e < 1.0,
                          "a number in (0, 1)")
    if not 1 <= args.draws <= MAX_SHOTS:
        raise ConfigError("--draws", f"must be in [1, {MAX_SHOTS}], got {args.draws}")
    total = len(ts) * len(epsilons) * args.draws
    if total > MAX_RUN_DRAWS:
        raise ConfigError("--draws", f"{len(ts)} times x {len(epsilons)} epsilons x {args.draws} "
                                     f"draws is {total}; at most {MAX_RUN_DRAWS:.0e} are allowed")
    if args.csv_out:
        resolve_output_path(args.csv_out, "--csv-out", ".")
    rows = []
    for eps in epsilons:
        for t, s_cut, ratio in scaling_table(ts, eps):
            if not math.isfinite(s_cut):
                raise ConfigError("--ts", f"the window S overflows at t={t:g}, epsilon={eps:g}")
            rows.append([t, eps, s_cut, ratio, mean_sampled_cost(t, eps, args.draws, args.seed)])
    if args.csv_out:
        _write_csv(args.csv_out, BENCH_HEADER, rows)
        print(f"wrote {args.csv_out}")
    else:
        _write_rows(sys.stdout, BENCH_HEADER, rows)
    return 0


def cmd_qpe(args) -> int:
    cfg = _run_config(args, writes=())
    if args.csv_out:
        resolve_output_path(args.csv_out, "--csv-out", ".", cfg.reads)
    if cfg.seed is None:
        raise ConfigError("sampler.seed", "qpe needs a seed (flag or config)")
    if cfg.shots is None:
        raise ConfigError("sampler.shots", "qpe needs a shot count (flag or config)")
    if cfg.shots < 2:
        raise ConfigError("sampler.shots",
                          f"need at least 2 shots for a standard error, got {cfg.shots}")
    if cfg.t <= 0:
        raise ConfigError("evolution.t", f"qpe needs t > 0, got {cfg.t}")
    k = args.eigen_index
    dim = cfg.hamiltonian.dim
    if k is None:
        outcomes = dim * cfg.shots
        if outcomes > MAX_RUN_DRAWS:
            raise ConfigError("sampler.shots",
                              f"{cfg.shots} shots for each of {dim} eigenvalues draw "
                              f"{outcomes} outcomes; at most {MAX_RUN_DRAWS:.0e} are allowed "
                              "(--eigen-index draws one eigenvalue's)")
        runs = enumerate(resolve_spectrum(cfg.hamiltonian, cfg.t, cfg.shots, cfg.seed))
    elif 0 <= k < dim:
        runs = [(k, estimate_lambda(cfg.hamiltonian, k, cfg.t, cfg.shots, cfg.seed))]
    else:
        raise ConfigError("--eigen-index", f"index {k} out of range for dimension {dim}")
    rows = []
    for index, run in runs:
        row = [index, run.estimate, run.stderr, run.raw_mean,
               run.estimate - 5 * run.stderr, run.estimate + 5 * run.stderr]
        if not np.isfinite(row).all():
            raise ConfigError("evolution.t", f"the estimate or its interval overflows at "
                                             f"t={cfg.t:g}; the outcome spread is 1/(2 sqrt(t))")
        rows.append(row)
    for index, estimate, stderr, raw_mean, low, high in rows:
        print(f"eigenvalue[{index}]: raw mean {_fmt(raw_mean)}, "
              f"estimate {_fmt(estimate)} +- {_fmt(stderr)}, "
              f"5-sigma interval [{_fmt(low)}, {_fmt(high)}]")
    if args.csv_out:
        _write_csv(args.csv_out, QPE_HEADER, rows)
        print(f"wrote {args.csv_out}")
    return 0


def _flag_list(text: str, flag: str, convert, valid, requirement: str) -> list:
    """The comma-separated values of a list flag: at least one, each converted and valid."""
    try:
        values = [convert(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values or not all(valid(v) for v in values):
        raise ConfigError(flag, f"expected comma-separated values, each {requirement}; "
                                f"got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twirlsim",
                                     description="Hamiltonian twirling channel toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="evolve a state exactly or by sampling")
    sim.add_argument("--config", required=True)
    sim.add_argument("--t", type=float, default=None)
    sim.add_argument("--epsilon", type=float, default=None)
    sim.add_argument("--shots", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--state-out", default=None)
    sim.add_argument("--metrics-out", default=None)
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run randomized self-checks")
    ver.add_argument("--dims", default="2,4,8")
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--inject-fault", action="store_true",
                     help="corrupt one multiplier diagonal to prove failures are caught")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="cutoff scaling and sampled cost table")
    ben.add_argument("--ts", default="1,10,100,1000")
    ben.add_argument("--epsilons", default="0.01")
    ben.add_argument("--draws", type=int, default=10000)
    ben.add_argument("--seed", type=int, default=7)
    ben.add_argument("--csv-out", default=None)
    ben.set_defaults(func=cmd_bench)

    qpe = sub.add_parser("qpe", help="eigenvalue estimation from readout statistics")
    qpe.add_argument("--config", required=True)
    qpe.add_argument("--t", type=float, default=None)
    qpe.add_argument("--shots", type=int, default=None)
    qpe.add_argument("--seed", type=int, default=None)
    qpe.add_argument("--eigen-index", type=int, default=None)
    qpe.add_argument("--csv-out", default=None)
    qpe.set_defaults(func=cmd_qpe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the commands test what they emit for finiteness and name the key at fault,
        # so numpy's overflow warnings on the way there would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ValueError as exc:  # ConfigError and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
