"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

The end-to-end cases run each workload in its ``--tiny`` form (small
circuits, short phases), about ten seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import loadgen
import speed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert np.isfinite(metric["value"]), name
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


@pytest.mark.parametrize("variable", ["REPRO_EVAL_BACKEND", "REPRO_FAULTS"])
def test_refuses_to_run_when_the_environment_changes_the_measurement(variable):
    env = dict(os.environ, **{variable: "levelized"})
    proc = run_benchmark(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", env=env
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert variable in proc.stderr


def test_fails_without_the_program_next_to_it():
    bare = ROOT / ".bench_out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__", "tests"),
        )
        proc = run_benchmark(
            "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reply_gate_rejects_a_corrupted_value():
    expected = np.linspace(1.0, 2.0, 12).reshape(4, 3)
    assert checks.check_replies(expected.copy(), expected, "replies") is None
    corrupted = expected.copy()
    corrupted[2, 1] += 1e-3
    failure = checks.check_replies(corrupted, expected, "replies")
    assert failure is not None and "1 of 12" in failure


def test_reply_gate_ignores_unanswered_requests():
    expected = np.ones((3, 1))
    values = np.array([[1.0], [np.nan], [1.0]])
    assert checks.check_replies(values, expected, "replies") is None


class _Lowered:
    """A model whose capacitance on one transition sits below the truth."""

    def __init__(self, model, row: int):
        self.model = model
        self.row = row

    def pair_capacitances(self, initial, final):
        values = self.model.pair_capacitances(initial, final).copy()
        values[self.row] -= 0.5
        return values


@pytest.fixture(scope="module")
def exact_x2():
    from repro.circuits.mcnc import load_circuit
    from repro.models.addmodel import build_add_model

    netlist = load_circuit("x2")
    return netlist, build_add_model(netlist)


def test_bound_gate_accepts_the_exact_model(exact_x2):
    netlist, model = exact_x2
    assert checks.check_upper_bound(model, netlist, seed=1, sample=256) is None


def test_bound_gate_rejects_a_value_below_the_reference(exact_x2):
    netlist, model = exact_x2
    failure = checks.check_upper_bound(
        _Lowered(model, row=12345), netlist, seed=1, sample=256
    )
    assert failure is not None and "below the reference" in failure


def test_average_gate_rejects_a_drifted_average(exact_x2):
    _, model = exact_x2
    average = model.average_capacitance_uniform()
    assert checks.check_average_kept(model, average, "x2") is None
    assert checks.check_average_kept(model, average * 1.001, "x2") is not None


def test_latency_is_timed_from_the_due_time_not_the_send_time():
    # Three requests due 1 ms apart; the generator queued the second 5 ms
    # late and the reply came 1 ms after that.  Its latency is 6 ms.
    due = np.array([0.000, 0.001, 0.002])
    queued = np.array([0.000, 0.006, 0.006])
    received = np.array([0.001, 0.007, 0.007])
    raw = {
        "due": due, "queued": queued, "received": received,
        "values": np.ones((3, 1)), "sent": 3, "ok": 3, "errors": 0,
        "ended": 0.007, "duration": 0.007, "in_flight_end": 0,
    }
    latencies = loadgen.latencies_ms(due, received, raw["ended"])
    assert latencies == pytest.approx([1.0, 6.0, 5.0])
    summary = loadgen.summarize(raw, rate=1000.0, limit_ms=25.0)
    assert summary["late_max_ms"] == pytest.approx(5.0)
    assert summary["p50_ms"] == pytest.approx(5.0)


def test_unanswered_requests_are_charged_until_the_phase_ends():
    due = np.array([0.0, 0.001])
    received = np.array([0.002, np.nan])
    assert loadgen.latencies_ms(due, received, ended=3.001) == pytest.approx(
        [2.0, 3000.0]
    )


def test_requests_are_seeded():
    first = loadgen.make_transitions(7, 2, 5, 3, 16)
    again = loadgen.make_transitions(7, 2, 5, 3, 16)
    other = loadgen.make_transitions(8, 2, 5, 3, 16)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])


def test_normalized_time_scales_by_the_references_around_each_step(monkeypatch):
    references = iter([2.0, 4.0, 2.0])
    monkeypatch.setattr(
        speed, "reference_seconds", lambda: speed.REFERENCE_S * next(references)
    )
    watch = speed.Stopwatch()
    for value in (7, 8):
        result, raw, normalized = watch.time(lambda: value)
        assert result == value
        assert normalized == pytest.approx(raw * 3.0 ** -speed.ELASTICITY)


def test_reference_workload_is_fixed():
    assert speed._comparator_size() == speed._comparator_size() > 20000
