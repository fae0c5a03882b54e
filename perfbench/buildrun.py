"""One repeat of the build path, in a fresh process.

    python perfbench/buildrun.py SPEC.json OUT_PREFIX

Builds the workload's budgeted avg + max pair and its exact models with
``build_add_model``, one model at a time, and streams a seeded trace
through each exact model in fixed blocks with
``pair_capacitances(kernel="auto")``, timing each step.  A fresh process
per repeat pays what a user's fresh process pays (first-call compile and
warm-up included).

With ``"traced": true`` the sequence runs once plain and once with spans
recorded around every layer (see :mod:`spans`), and the per-layer figures
of the traced pass are returned.  Odd repeats run the traced pass first,
so that over an even number of repeats neither pass gets the warmer
process more often.  With ``"gate": true`` the outputs are
checked and the accuracy sweep is run after the timed work.

Output: ``OUT_PREFIX.json`` with the times, peak RSS, per-layer figures,
gate failures, accuracy, and a digest of each trace's values, so the
parent can require every repeat to reproduce the checked one.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from typing import Dict, List, Tuple

import numpy as np

import speed

#: Transitions per ``pair_capacitances`` call when a trace is evaluated:
#: a long trace is streamed through the model in blocks, as a trace-driven
#: estimator reads it.
BLOCK_ROWS = 1 << 16
#: Vectors per grid point of the accuracy sweep: the paper's sequence
#: length, long enough that a sequence's true peak varies little by seed.
SWEEP_LENGTH = 10000


def peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def make_trace(seed: int, index: int, rows: int, num_inputs: int):
    """One seeded trace of independent uniform transitions."""
    rng = np.random.default_rng([seed, 15485863, index])
    initial = rng.integers(0, 2, size=(rows, num_inputs), dtype=bool)
    final = rng.integers(0, 2, size=(rows, num_inputs), dtype=bool)
    return initial, final


def build_models(watch: speed.Stopwatch, jobs) -> Tuple[Dict[str, object], float, float]:
    """Build ``(label, netlist, max_nodes, strategy)`` jobs one at a time,
    timed as one step; returns the models and the raw and normalized
    seconds (see :mod:`speed`)."""
    from repro.models import addmodel

    return watch.time(lambda: {
        label: addmodel.build_add_model(
            netlist, max_nodes=max_nodes, strategy=strategy
        )
        for label, netlist, max_nodes, strategy in jobs
    })


def evaluate_traces(
    watch: speed.Stopwatch, models, traces
) -> Tuple[Dict[str, np.ndarray], float, float]:
    """Stream each exact model's trace through the auto kernel in blocks,
    timed as one step."""

    def evaluate():
        return {
            name: np.concatenate([
                model.pair_capacitances(
                    traces[name][0][k:k + BLOCK_ROWS],
                    traces[name][1][k:k + BLOCK_ROWS],
                    kernel="auto",
                )
                for k in range(0, traces[name][0].shape[0], BLOCK_ROWS)
            ])
            for name, model in models.items()
        }

    return watch.time(evaluate)


def run_pass(wl, netlists, traces, recorder=None) -> Dict[str, object]:
    """The budgeted build, the exact build and the trace evaluation.

    Times are normalized (see :mod:`speed`); ``raw`` holds the wall
    times.  The budgeted avg and max builds are timed one by one, each
    exact set as one step.  The traced pass builds the exact set once; the
    traces are evaluated on the last set built, so the evaluation pays the
    first-call compile.
    """
    from repro.circuits.mcnc import SUGGESTED_MAX_NODES

    avg_budget, max_budget = SUGGESTED_MAX_NODES[wl.budgeted]
    budgeted_jobs = [
        ("avg", netlists[wl.budgeted], avg_budget, "avg"),
        ("max", netlists[wl.budgeted], max_budget, "max"),
    ]
    exact_jobs = [(name, netlists[name], None, "avg") for name in wl.exact]
    watch = speed.Stopwatch()
    out: Dict[str, object] = {"budgeted": {}, "build_s": 0.0}
    raw: Dict[str, float] = {"build_s": 0.0}
    for job in budgeted_jobs:
        models, seconds, scaled = build_models(watch, [job])
        out["budgeted"].update(models)
        raw["build_s"] += seconds
        out["build_s"] += scaled
    if recorder is not None:
        out["budgeted_layers"] = recorder.take()
    exact_times = []
    for _ in range(wl.exact_repeats if recorder is None else 1):
        out["exact"], seconds, scaled = build_models(watch, exact_jobs)
        exact_times.append((seconds, scaled))
    raw["exact_build_s"] = statistics.fmean(t[0] for t in exact_times)
    out["exact_build_s"] = statistics.fmean(t[1] for t in exact_times)
    if recorder is not None:
        out["exact_layers"] = recorder.take()
    out["values"], raw["eval_s"], out["eval_s"] = evaluate_traces(
        watch, out["exact"], traces
    )
    if recorder is not None:
        out["trace_layers"] = recorder.take()
    out["raw"] = raw
    return out


def gate(wl, seed: int, netlists, traces, out) -> List[str]:
    """The build path's correctness gates; returns the failures."""
    import checks
    from repro.testing.oracle import MAX_TRUTH_TABLE_INPUTS, oracle_average_uniform

    failures = []
    for name, values in out["values"].items():
        initial, final = traces[name]
        failures.append(
            checks.check_exact_trace(netlists[name], initial, final, values)
        )
    netlist = netlists[wl.budgeted]
    failures.append(checks.check_upper_bound(
        out["budgeted"]["max"], netlist, seed, wl.bound_sample
    ))
    if netlist.num_inputs <= MAX_TRUTH_TABLE_INPUTS:
        reference = oracle_average_uniform(netlist)
    else:
        # Wider than the closed-form oracle: the exact model of the same
        # circuit, itself gated against gate-level simulation above.
        reference = out["exact"][wl.budgeted].average_capacitance_uniform()
    failures.append(checks.check_average_kept(
        out["budgeted"]["avg"], reference, wl.budgeted
    ))
    return [f for f in failures if f is not None]


def sweep_are(wl, seed: int, netlists, budgeted) -> Tuple[float, float]:
    """ARE (%) of the avg model and of the max bound on the (sp, st) sweep."""
    from repro.eval.runner import (
        SweepConfig,
        compute_truth_runs,
        evaluate_models_on_runs,
    )

    netlist = netlists[wl.budgeted]
    runs = compute_truth_runs(
        netlist, SweepConfig(sequence_length=SWEEP_LENGTH, seed=seed)
    )
    sweep = evaluate_models_on_runs(netlist.name, dict(budgeted), runs)
    return 100.0 * sweep.are_average("avg"), 100.0 * sweep.are_maximum("max")


def build_layer_metrics(prefix: str, layers, models) -> Dict[str, float]:
    """Per-layer figures of one build phase, from its recorded spans."""
    from spans import BUILD, BUILD_LAYERS

    totals, _ = layers

    def sums(layer: str):
        return totals.get(layer, [0, 0.0, 0.0])

    out: Dict[str, float] = {}
    for layer in BUILD_LAYERS:
        calls, seconds, self_s = sums(layer)
        out[f"{prefix}.{layer}.calls"] = calls
        out[f"{prefix}.{layer}.s"] = seconds
        out[f"{prefix}.{layer}.self_s"] = self_s
    calls, build_s, unaccounted = sums(BUILD)
    out[f"{prefix}.{BUILD}.calls"] = calls
    out[f"{prefix}.{BUILD}.s"] = build_s
    out[f"{prefix}.{BUILD}.unaccounted_s"] = unaccounted
    out[f"{prefix}.{BUILD}.accounted_pct"] = (
        100.0 * (1.0 - unaccounted / build_s) if build_s else 0.0
    )
    reports = [m.report for m in models.values()]
    hits = sum(r.cache_hits for r in reports)
    misses = sum(r.cache_misses for r in reports)
    out[f"{prefix}.dd.manager.cache_hit_ratio"] = hits / max(hits + misses, 1)
    collapses = sums("dd.approx.approximate")[0]
    out[f"{prefix}.dd.approx.rebuilds_per_collapse"] = (
        sums("dd.approx.rebuild")[0] / collapses if collapses else 0.0
    )
    out[f"{prefix}.dd.approx.peak_nodes"] = sum(r.peak_nodes for r in reports)
    out[f"{prefix}.dd.approx.final_nodes"] = sum(r.final_nodes for r in reports)
    return out


def trace_layer_metrics(layers) -> Dict[str, float]:
    """Per-layer figures of the trace evaluation."""
    from spans import BACKENDS

    totals, counts = layers

    def sums(layer: str):
        return totals.get(layer, [0, 0.0, 0.0])

    out = {
        "trace.models.addmodel.pack.calls": sums("models.addmodel.pack")[0],
        # pair_capacitances minus its children: the packing itself.
        "trace.models.addmodel.pack.s": sums("models.addmodel.pack")[2],
    }
    for layer in ("dd.compiled.compile", "dd.backends.warm", "dd.backends.kernel"):
        out[f"trace.{layer}.calls"] = sums(layer)[0]
        out[f"trace.{layer}.s"] = sums(layer)[1]
    out["trace.dd.backends.kernel.rows"] = counts.get("dd.backends.kernel.rows", 0)
    for name in BACKENDS:
        out[f"trace.dd.backends.selected.{name}"] = counts.get(
            f"dd.backends.selected.{name}", 0
        )
    return out


def run(spec: Dict, out_prefix: str) -> int:
    import spans
    from repro.circuits.mcnc import load_circuit
    from workloads import WORKLOADS, tiny

    wl = WORKLOADS[spec["workload"]]
    if spec["tiny"]:
        wl = tiny(wl)
    seed = spec["seed"]
    names = [wl.budgeted, *wl.exact]
    netlists = {name: load_circuit(name) for name in dict.fromkeys(names)}
    traces = {
        name: make_trace(seed, k, wl.trace_rows, netlists[name].num_inputs)
        for k, name in enumerate(wl.exact)
    }
    result: Dict[str, object] = {}
    if spec["traced"]:
        keys = ("build_s", "exact_build_s", "eval_s")
        recorder = spans.Recorder()

        def traced_pass():
            with spans.installed(recorder):
                return run_pass(wl, netlists, traces, recorder)

        if spec["repeat"] % 2:
            out = traced_pass()
            plain = run_pass(wl, netlists, traces)
        else:
            plain = run_pass(wl, netlists, traces)
            out = traced_pass()
        result["untraced"] = {key: plain[key] for key in keys}
        del plain
        plain_s = sum(result["untraced"].values())
        result["trace_overhead_pct"] = (
            100.0 * (sum(out[key] for key in keys) - plain_s) / plain_s
        )
        per_layer = {}
        per_layer.update(build_layer_metrics(
            "budgeted", out["budgeted_layers"], out["budgeted"]
        ))
        per_layer.update(build_layer_metrics(
            "exact", out["exact_layers"], out["exact"]
        ))
        per_layer.update(trace_layer_metrics(out["trace_layers"]))
        result["per_layer"] = per_layer
        recorder.write(out_prefix + "-spans.json")
    else:
        out = run_pass(wl, netlists, traces)
    result.update(
        build_s=out["build_s"],
        exact_build_s=out["exact_build_s"],
        eval_s=out["eval_s"],
        raw=out["raw"],
        rows=sum(traces[name][0].shape[0] for name in wl.exact),
        rss_mb=peak_rss_mb(),
    )
    if spec["gate"]:
        result["failures"] = gate(wl, seed, netlists, traces, out)
        result["are_pct"], result["bound_are_pct"] = sweep_are(
            wl, seed, netlists, out["budgeted"]
        )
    result["digests"] = {
        name: hashlib.sha256(values.tobytes()).hexdigest()
        for name, values in out["values"].items()
    }
    with open(out_prefix + ".json", "w") as handle:
        json.dump(result, handle)
    return 0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: buildrun.py SPEC.json OUT_PREFIX", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        spec = json.load(handle)
    return run(spec, argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
