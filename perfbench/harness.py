"""Closed-loop measurement of one workload in the current process.

One caller runs operations back to back: each starts when the previous one
and its output gate have finished. Operations are grouped in passes of the
workload's fixed size, and passes repeat until the time budget is spent
(the last pass always completes). Only the operation itself is timed: input
generation and the output gate run outside the timed span. In a traced run
every other pass is traced, so the same run also gives the tracing overhead.

Just before each untraced operation a fixed numpy-only reference computation
is timed. A shared machine's speed drifts by tens of percent over seconds to
minutes, and both times drift together, so their ratio reads the program's
speed with the drift divided out.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twirlsim.channels import CPTPWarning

from .tracer import Tracer
from .workloads import WORKLOADS

# highest percentile with at least ten operations beyond it, at most the workload's own rung
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# CLI steps whose untraced time the traced run reports (thread pool off and on)
STEP_METRICS = ("simulate-gaussian", "simulate-gaussian-threads2")
# End-to-end metrics in the JSON result. The rest of end_to_end() is printed only:
# on a shared machine whose speed drifts between a fast and a slow mode, the raw
# times move with that drift (run-to-run spreads of wall_s, op_p50_ms and
# op_tail_ms up to 0.23-0.29, near or above the largest bound), while their
# ratio to the reference computation stays within a few percent.
GATED_END_TO_END = ("setup_s", "op_ref_ratio", "peak_rss_mb")
REFERENCE_SMALL = 300  # 2x2 eigvalsh calls, each on a fresh generator's draw
REFERENCE_LARGE = 4    # 64x64 eigh calls
REFERENCE_OUTER = 16   # 256x256 complex outer-product accumulates
_REFERENCE_MATRIX = None


def make_workload(name: str, seed: int, workdir: Path):
    """Set-up: build the workload's fixed inputs and operators, then warm up."""
    workload = WORKLOADS[name](seed, workdir)
    with warnings.catch_warnings():
        warnings.simplefilter("error", CPTPWarning)
        workload.warm_up()
    return workload


def reference_work() -> float:
    """Fixed numpy-only work, timed beside each operation to track the machine's speed.

    Its mix follows the workloads': per-call Python and numpy overhead with a
    generator per draw, as in sampled-d2; LAPACK on a 64x64 matrix, as in
    exact-sweep; and the d^4 outer-product accumulate of sampled-d16. It does
    not call twirlsim, so the program cannot change it.
    """
    global _REFERENCE_MATRIX
    if _REFERENCE_MATRIX is None:
        a = np.random.default_rng(0).normal(size=(64, 64))
        _REFERENCE_MATRIX = a + a.T
    acc = 0.0
    for i in range(REFERENCE_SMALL):
        x = np.random.default_rng(i).normal(size=3)
        m = np.array([[x[0], x[1] + 1j * x[2]], [x[1] - 1j * x[2], -x[0]]])
        acc += float(np.linalg.eigvalsh(m)[0])
    for _ in range(REFERENCE_LARGE):
        acc += float(np.linalg.eigh(_REFERENCE_MATRIX)[0][0])
    w = np.exp(1j * _REFERENCE_MATRIX[:4].ravel())
    total = np.zeros((w.size, w.size), dtype=np.complex128)
    for _ in range(REFERENCE_OUTER):
        total += np.outer(w, w.conj())
    return acc + float(total[0, 0].real)


def tail_percentile(count: int, ceiling: float) -> float:
    for p in TAIL_LADDER:
        if p <= ceiling and count * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)          # untraced operations
    ref_s: list[float] = field(default_factory=list)         # reference work before each
    pass_s: list[float] = field(default_factory=list)        # untraced passes
    traced_op_s: list[float] = field(default_factory=list)
    traced_pass_s: list[float] = field(default_factory=list)
    section_s: dict = field(default_factory=lambda: defaultdict(list))  # untraced, per op
    items_per_op: int = 1
    item: str = "items"
    tail_ceiling: float = 50.0
    tracer: Tracer | None = None

    def end_to_end(self) -> dict[str, tuple[float, str, str]]:
        """name -> (value, unit, note) for the untraced operations."""
        ops = np.asarray(self.op_s)
        p = tail_percentile(len(ops), self.tail_ceiling)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ratios = ops / np.asarray(self.ref_s)
        return {
            "op_ref_ratio": (float(np.median(ratios)), "ratio",
                             f"median over {len(ops)} ops of latency / reference time"),
            "ref_ms": (float(np.median(self.ref_s)) * 1e3, "ms",
                       "median reference time, the machine's speed"),
            "wall_s": (statistics.fmean(self.pass_s), "s", f"mean of {len(self.pass_s)} passes"),
            "op_p50_ms": (float(np.percentile(ops, 50.0)) * 1e3, "ms", f"{len(ops)} ops"),
            "op_tail_ms": (float(np.percentile(ops, p)) * 1e3, "ms", f"p{p:g} of {len(ops)} ops"),
            f"{self.item}_per_s": (self.items_per_op * len(ops) / float(ops.sum()), f"{self.item}/s",
                                   f"{self.items_per_op} {self.item} per op"),
            "peak_rss_mb": (rss_mib, "MiB", "ru_maxrss of this process"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """name -> (value, unit): per-pass layer counts and self times, coverage, overhead."""
        tracer = self.tracer
        passes = len(self.traced_pass_s)
        out = {}
        for name in tracer.functions:
            out[f"{name}.calls"] = (tracer.calls.get(name, 0) / passes, "count")
            out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / passes, "s")
        out["trace.coverage"] = (tracer.top_level_s / sum(self.traced_op_s), "ratio")
        out["trace.overhead"] = (statistics.median(self.traced_pass_s)
                                 / statistics.median(self.pass_s), "ratio")
        for step in STEP_METRICS:
            times = self.section_s.get(step)
            out[f"step.{step}.wall_s"] = (statistics.median(times) if times else 0.0, "s")
        return out


def measure(workload, seconds: float, trace: bool) -> Measurement:
    """Run passes of the workload for `seconds` and gate every operation."""
    result = Measurement(items_per_op=workload.items_per_op,
                         item=workload.item, tail_ceiling=workload.tail_percentile,
                         tracer=Tracer() if trace else None)
    tracer = result.tracer
    now = time.perf_counter
    index = 0
    passes = 0
    started = now()
    with warnings.catch_warnings():
        warnings.simplefilter("error", CPTPWarning)
        # in a traced run, alternate untraced and traced passes; at least one of each
        while now() - started < seconds or passes < (2 if trace else 1):
            traced = trace and passes % 2 == 1
            pass_time = 0.0
            for _ in range(workload.ops_per_pass):
                inp = workload.op_input(index)
                index += 1
                marks = []
                if traced:
                    mark = tracer.set_section
                    tracer.install()
                else:
                    r0 = now()
                    reference_work()
                    result.ref_s.append(now() - r0)

                    def mark(section, _marks=marks):
                        _marks.append((section, now()))
                result.attempted += 1
                t0 = now()
                try:
                    out = workload.run(inp, mark)
                except Exception:  # a failing operation is counted, never fatal
                    out = None
                    result.failures.append(traceback.format_exc(limit=3))
                t1 = now()
                if traced:
                    tracer.uninstall()
                    tracer.end_op()
                    result.traced_op_s.append(t1 - t0)
                else:
                    result.op_s.append(t1 - t0)
                    _record_sections(result.section_s, marks, t1)
                pass_time += t1 - t0
                if out is None:
                    result.failed += 1
                    continue
                try:
                    workload.check(inp, out)
                except Exception:  # wrong output, or the gate itself could not run
                    result.failed += 1
                    result.failures.append(traceback.format_exc(limit=3))
            (result.traced_pass_s if traced else result.pass_s).append(pass_time)
            passes += 1
    return result


def _record_sections(section_s, marks, end: float) -> None:
    per_op = defaultdict(float)
    for (section, start), (_, stop) in zip(marks, marks[1:] + [(None, end)]):
        per_op[section] += stop - start
    for section, seconds in per_op.items():
        section_s[section].append(seconds)


def figures(result: Measurement) -> list[str]:
    """Human-readable per-section lines: untraced medians and traced layer totals."""
    lines = []
    for section, times in sorted(result.section_s.items()):
        lines.append(f"section {section}: median {statistics.median(times) * 1e3:.3f} ms "
                     f"over {len(times)} untraced ops")
    tracer = result.tracer
    if tracer is not None:
        ops = len(result.traced_op_s)
        for (section, name), (calls, total, own) in sorted(tracer.section_totals.items()):
            lines.append(f"layer {section or '-'} {name}: {calls / ops:.1f} calls/op, "
                         f"total {total / ops * 1e3:.3f} ms/op, self {own / ops * 1e3:.3f} ms/op")
    return lines
