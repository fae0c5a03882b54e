"""Correctness gates, run outside every timed region.

Each gate returns ``None`` when the outputs are right and a one-line
reason when they are not; a failed gate fails the run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Relative tolerance for comparing capacitances computed along different
#: summation orders (ADD leaves versus per-gate dot products).
RTOL = 1e-9
#: Rows per gate-level simulation call, to bound the gate's own memory.
SIM_CHUNK = 1 << 16


def _mismatch(label: str, got: np.ndarray, want: np.ndarray) -> Optional[str]:
    got = np.asarray(got, dtype=float).reshape(-1)
    want = np.asarray(want, dtype=float).reshape(-1)
    if got.shape != want.shape:
        return f"{label}: {got.size} values for {want.size} references"
    bad = ~(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want)))
    if bad.any():
        i = int(np.argmax(bad))
        return (
            f"{label}: {int(bad.sum())} of {want.size} values wrong, "
            f"first at row {i}: {got[i]!r} vs reference {want[i]!r}"
        )
    return None


def simulate_pairs(netlist, initial: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Gate-level capacitances of many transitions, in bounded chunks."""
    from repro.sim.power_sim import pair_switching_capacitances

    return np.concatenate([
        pair_switching_capacitances(
            netlist, initial[k:k + SIM_CHUNK], final[k:k + SIM_CHUNK]
        )
        for k in range(0, initial.shape[0], SIM_CHUNK)
    ])


def check_exact_trace(
    netlist, initial: np.ndarray, final: np.ndarray, values: np.ndarray
) -> Optional[str]:
    """An exact model equals gate-level simulation on every trace row."""
    return _mismatch(
        f"exact {netlist.name} trace",
        values,
        simulate_pairs(netlist, initial, final),
    )


def all_pairs(num_inputs: int):
    """Every ``(x_i, x_f)`` pair, row-major in the oracle-matrix order."""
    span = 1 << num_inputs
    bits = ((np.arange(span)[:, None] >> np.arange(num_inputs)) & 1).astype(bool)
    return np.repeat(bits, span, axis=0), np.tile(bits, (span, 1))


def check_upper_bound(
    model, netlist, seed: int, sample: int
) -> Optional[str]:
    """A max-strategy model is never below the gate-level reference.

    Exhaustive over all ``4**n`` transitions against the oracle matrix
    while it fits; otherwise on ``sample`` seeded random transitions
    against gate-level simulation.
    """
    from repro.testing.oracle import MAX_MATRIX_INPUTS, oracle_capacitance_matrix

    n = netlist.num_inputs
    if n <= MAX_MATRIX_INPUTS:
        initial, final = all_pairs(n)
        truth = oracle_capacitance_matrix(netlist).reshape(-1)
    else:
        rng = np.random.default_rng([seed, 104729])
        initial = rng.integers(0, 2, size=(sample, n)).astype(bool)
        final = rng.integers(0, 2, size=(sample, n)).astype(bool)
        truth = simulate_pairs(netlist, initial, final)
    bound = model.pair_capacitances(initial, final)
    slack = bound - truth
    tolerance = RTOL * np.maximum(1.0, np.abs(truth))
    below = slack < -tolerance
    if below.any():
        i = int(np.argmin(slack))
        return (
            f"max {netlist.name} model: {int(below.sum())} of {truth.size} "
            f"transitions below the reference, worst {bound[i]!r} < {truth[i]!r}"
        )
    return None


def check_average_kept(model, reference: float, label: str) -> Optional[str]:
    """An avg-strategy model keeps the exact uniform average."""
    got = model.average_capacitance_uniform()
    if abs(got - reference) > RTOL * max(1.0, abs(reference)):
        return f"avg {label} model: uniform average {got!r} vs exact {reference!r}"
    return None


def check_replies(values: np.ndarray, expected: np.ndarray, label: str) -> Optional[str]:
    """Every answered reply equals the in-process evaluation.

    Unanswered requests (NaN) are counted as failed by the generator and
    are not compared here.
    """
    values = np.asarray(values, dtype=float).reshape(expected.shape)
    answered = ~np.isnan(values).any(axis=1)
    return _mismatch(label, values[answered], expected[answered])
