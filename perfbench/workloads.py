"""The benchmark's workloads and their fixed parameters.

Every workload runs both end-to-end paths, so that every end-to-end
metric is measured on every workload:

- the build path: a budgeted avg + max model pair of one circuit (the
  collapse machinery), then exact models of other circuits (no collapse:
  apply does the work), each evaluated on a seeded trace in-process;
- the query path: ``repro serve parity`` with shipped defaults in its own
  process, driven open-loop by one generator process over two
  connections, at a low and a high fixed rate and up a rate ladder.

The two workloads stress different layers.  ``alu2_single`` collapses a
narrow, deep circuit (``dd.approx`` is most of its build), evaluates thin
exact models, and sends one transition per request, where per-request
overhead and the micro-batcher's timer dominate.  ``comp_bulk`` collapses
a 32-input circuit, builds and evaluates wide exact models, and sends 64
transitions per request, where per-row parsing and rows per kernel call
dominate and the batch timer barely matters.

These parameters were fixed when the benchmark was defined and are not
retuned by later changes.  The rates were chosen from a latency-versus-
rate sweep on a 2-core machine: single-transition requests saturated the
server between 14,000 and 34,000 req/s and 64-pair requests between 1,100
and 2,400 req/s, moving with the machine's other load.  Each ladder climbs
to twice the highest saturation rate seen, so a faster server still finds
its limit on the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: The served circuit; the server uses the CLI's shipped defaults.
SERVED = "parity"


@dataclass(frozen=True)
class Workload:
    """Fixed parameters of one workload."""

    #: Circuit of the budgeted avg + max pair, built with the circuit's
    #: ``SUGGESTED_MAX_NODES`` budgets.
    budgeted: str
    #: Circuits built exact and evaluated on one trace each.
    exact: Tuple[str, ...]
    #: Times the exact set is built in each untraced repeat (mean
    #: reported): a set that builds in well under a second is timed
    #: several times so that its time spans more of the machine's load.
    exact_repeats: int
    #: Transitions per exact-model trace.
    trace_rows: int
    #: Transitions per ``evaluate`` request (1: the single-transition form).
    pairs: int
    #: The two fixed rates, req/s.
    low_rps: float
    high_rps: float
    #: Probe rungs above the high rate (climbed while they pass) and below
    #: it (descended when the high rate itself fails).
    ladder_up: Tuple[float, ...]
    ladder_down: Tuple[float, ...]
    #: p99 latency limit (ms) a ladder rung must meet.
    p99_limit_ms: float = 100.0
    #: Cold server starts timed for ``setup_s`` (median reported).
    setup_starts: int = 5
    #: Times the in-process build + evaluate sequence runs, each in a fresh
    #: process (fresh models, first-call compile included); the mean
    #: repeat is reported.
    repeats: int = 3
    #: Slices each fixed-rate query phase is cut into, alternating low and
    #: high (lowest slice p50 reported).
    query_repeats: int = 6
    #: Transitions sampled for the upper-bound gate when the exhaustive
    #: oracle matrix does not fit.
    bound_sample: int = 1 << 17


WORKLOADS: Dict[str, Workload] = {
    "alu2_single": Workload(
        budgeted="alu2",
        exact=("parity", "pcle", "mux"),
        exact_repeats=3,
        trace_rows=1 << 20,
        pairs=1,
        low_rps=1000.0,
        high_rps=8000.0,
        ladder_up=(
            10000.0, 12000.0, 14000.0, 16000.0, 18000.0, 20000.0, 21000.0,
            22000.0, 23000.0, 24000.0, 25000.0, 26000.0, 27000.0, 28000.0,
            29000.0, 30000.0, 32000.0, 34000.0, 38000.0, 42000.0, 47000.0,
            52000.0, 58000.0, 64000.0, 70000.0,
        ),
        ladder_down=(6000.0, 4000.0, 2000.0),
    ),
    "comp_bulk": Workload(
        budgeted="comp",
        exact=("mux", "comp"),
        exact_repeats=1,
        trace_rows=1 << 20,
        pairs=64,
        low_rps=200.0,
        high_rps=500.0,
        ladder_up=(
            600.0, 800.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0,
            1600.0, 1700.0, 1800.0, 1900.0, 2000.0, 2200.0, 2400.0, 2700.0,
            3000.0, 3400.0, 3800.0, 4300.0, 5000.0,
        ),
        ladder_down=(400.0, 300.0),
    ),
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long variant for the benchmark's own tests.

    Same phases, metrics and gates on small circuits and short phases;
    its figures are not comparable with the real workload's.
    """
    return replace(
        workload,
        budgeted="x2",
        exact=("decod", "cm85"),
        trace_rows=4096,
        ladder_up=workload.ladder_up[:1],
        ladder_down=workload.ladder_down[:1],
        setup_starts=1,
        repeats=2,
        query_repeats=1,
        bound_sample=4096,
    )
