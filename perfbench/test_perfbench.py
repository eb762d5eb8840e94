"""Tests of the benchmark itself: metric names, input determinism, gates and spans.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, tracer, workloads
from twirlsim import channels, sampling, twirling
from twirlsim.distributions import Gaussian
from twirlsim.linalg import HermitianOperator

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return json.loads(BENCHMARK_JSON.read_text())


def test_metric_names_and_units(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(m["unit"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_reported_metrics_match_benchmark_json(spec, tmp_path):
    workload = harness.make_workload("sampled-d2", 3, tmp_path)
    untraced = harness.measure(workload, seconds=0.0, trace=False)
    assert untraced.failed == 0
    assert set(harness.GATED_END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert set(harness.GATED_END_TO_END) <= {"setup_s"} | set(untraced.end_to_end())
    traced = harness.measure(workload, seconds=0.0, trace=True)
    assert traced.failed == 0
    assert set(traced.per_layer()) == {m["name"] for m in spec["per_layer"]}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first, second = cls(11, tmp_path / "a"), cls(11, tmp_path / "b")
    other = cls(12, tmp_path / "c")

    def inputs(w):
        ops = [w.op_input(i) for i in range(3)]
        if name == "cli":  # configs are files; compare their contents, not their paths
            fixed = [p.read_text() for p in w.paths.values()]
            ops = [[argv[-1] for _, argv, _ in op if argv[-2] == "--seed"] for op in ops]
        else:
            fixed = getattr(w, "laws", None) or getattr(w, "hamiltonian")
        return fixed, ops

    assert _same(inputs(first), inputs(second))
    assert not _same(inputs(first)[1], inputs(other)[1])


def test_wrong_truncated_gaussian_reference_fails_the_gate(tmp_path, monkeypatch):
    workload = harness.make_workload("sampled-d2", 5, tmp_path)
    assert harness.measure(workload, seconds=0.0, trace=False).failed == 0
    # the identity channel in place of the dephasing one
    monkeypatch.setattr(workloads, "truncated_gaussian_char",
                        lambda variance, cut, gaps: np.ones(gaps.shape, dtype=np.complex128))
    workload = harness.make_workload("sampled-d2", 5, tmp_path)
    result = harness.measure(workload, seconds=0.0, trace=False)
    assert result.failed == result.attempted > 0
    assert "Choi distance" in result.failures[0]


def test_wrong_oracle_fails_the_exact_gate(tmp_path, monkeypatch):
    oracle = workloads.vectorized_oracle
    monkeypatch.setattr(workloads, "vectorized_oracle", lambda h, rho, t: oracle(h, rho, 2 * t))
    workload = harness.make_workload("exact-sweep", 5, tmp_path)
    result = harness.measure(workload, seconds=0.0, trace=False)
    assert result.failed == result.attempted > 0


def test_choi_of_multiplier_matches_package():
    rng = np.random.default_rng(0)
    op = HermitianOperator(workloads.random_hermitian(rng, 3))
    m = twirling.schur_multiplier_for(op, Gaussian(variance=0.7))
    expected = channels.choi_of_superoperator(channels.superoperator_of_schur(m))
    got = workloads.choi_of_multiplier(op.eigenvectors, m.multiplier)
    assert np.allclose(got, expected, atol=1e-13)


def test_choi_distance_bound_covers_typical_error():
    # the mean distance is far inside the bound, so a changed stream does not trip it
    op = HermitianOperator(np.diag([1.0, -1.0]))
    plan = sampling.ShotPlan.with_derived_cutoff(t=1.0, epsilon=0.01, shots=1000, seed=9)
    emp, _ = sampling.estimate_channel(op, plan)
    lam, vectors = np.linalg.eigh(op.matrix)
    gaps = lam[:, None] - lam[None, :]
    reference = workloads.choi_of_multiplier(
        vectors, workloads.truncated_gaussian_char(1.0, plan.cutoff, gaps))
    distance = workloads.trace_norm(emp.choi - reference)
    assert distance < workloads.choi_distance_bound(2, 1000) / 3


def test_spans_nest_and_self_time_is_within_total():
    t = tracer.Tracer()
    op = HermitianOperator(workloads.random_hermitian(np.random.default_rng(1), 4))
    t.install()
    try:
        sampling.estimate_compound_channel(op, Gaussian(variance=0.5), 2.0, 20, 3)
        twirling.exact_channel(op, Gaussian(variance=1.0)).apply(np.eye(4) / 4)
    finally:
        t.uninstall()
    spans = list(t._spans)
    assert spans
    for span, own in zip(spans, tracer.self_times(spans)):
        name, _, start, end, parent = span
        assert start <= end
        assert -1e-12 <= own <= end - start
        if parent is not None:
            assert parent[2] <= start and end <= parent[3]
    names = {s[0] for s in spans}
    assert {"sampling.estimate_compound_channel", "sampling.derived_rng",
            "channels.apply_schur", "channels.cptp_check"} <= names
    t.end_op()
    assert t.calls["sampling.derived_rng"] == 20


def test_uninstall_restores_every_binding():
    before = (twirling.char_minus, sampling.derived_rng, HermitianOperator.__dict__["unitary_at"])
    t = tracer.Tracer()
    t.install()
    assert twirling.char_minus is not before[0]
    t.uninstall()
    after = (twirling.char_minus, sampling.derived_rng, HermitianOperator.__dict__["unitary_at"])
    assert all(a is b for a, b in zip(before, after))


def test_self_time_subtracts_union_of_overlapping_children():
    parent = ["p", "", 0.0, 10.0, None]
    spans = [parent, ["a", "", 1.0, 5.0, parent], ["b", "", 3.0, 7.0, parent]]
    assert tracer.self_times(spans) == [4.0, 4.0, 4.0]


def test_tail_percentile_keeps_ten_ops_beyond():
    assert harness.tail_percentile(1000, 99.0) == 99.0
    assert harness.tail_percentile(150, 99.0) == 90.0
    assert harness.tail_percentile(30, 90.0) == 50.0


def test_op_ref_ratio_divides_each_op_by_its_reference(tmp_path):
    # the reference is the same work on every call, so it can stand for the machine's speed
    assert harness.reference_work() == harness.reference_work()
    workload = harness.make_workload("sampled-d2", 3, tmp_path)
    result = harness.measure(workload, seconds=0.0, trace=False)
    assert len(result.ref_s) == len(result.op_s) == workload.ops_per_pass
    ratio = result.end_to_end()["op_ref_ratio"][0]
    assert ratio == np.median(np.asarray(result.op_s) / np.asarray(result.ref_s)) > 0
