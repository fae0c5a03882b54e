"""The repository benchmark: build path and query path, end to end.

    python3 perfbench/run.py --workload alu2_single --seed 1 --seconds 8 --trace 0

Run from the repository root.  Workloads and metrics are defined in
``BENCHMARK.json`` and ``perfbench/workloads.py``; ``perfbench/README.md``
maps each per-layer metric to the end-to-end metric it should move.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the in-process phases are run
once untraced and once with spans recorded around every layer, the server
runs with its wire layer timed, and the JSON carries every per-layer
metric.  Every output is checked outside the timed regions; a wrong value
fails the run (exit 1).  Exit 2 means the benchmark refused to run, exit 3
that the load generator could not keep its schedule (an invalid run).

All files the run writes (logs, spans, results, the C compiler's scratch
files) go under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Environment variables that silently change what is measured.
REFUSED_ENV = ("REPRO_EVAL_BACKEND", "REPRO_FAULTS")
#: Build repeats of a traced run: an even number, so that the traced and
#: untraced passes each run first in half of them.
TRACED_REPEATS = 2
#: Wall-clock limits on the benchmark's child processes.
CHILD_TIMEOUT_S = 150.0
SERVER_START_TIMEOUT_S = 60.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="length of the two fixed-rate query phases together",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="small circuits and short phases, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------
def source_digest() -> str:
    """sha256 over the program's source tree (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> Dict[str, object]:
    """Versions and machine facts recorded with every result."""
    import numpy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        git_sha = proc.stdout.strip() or None
    try:
        cc = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True
        ).stdout.splitlines()[0]
    except (OSError, IndexError):
        cc = None
    return {
        "git_sha": git_sha,
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "cc": cc,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------
class Server:
    """``repro serve`` in its own process, on an ephemeral port."""

    def __init__(self, traced: bool, workdir: Path, env: Dict[str, str]):
        from workloads import SERVED

        if traced:
            cmd = [sys.executable, str(HERE / "serve.py")]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        self.cmd = cmd + [SERVED, "--port", "0"]
        self.workdir = workdir
        self.env = env
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        """Start and wait for the first ok ``ping``."""
        log = self.workdir / "server.log"
        started = time.perf_counter()
        with open(log, "w") as out:
            self.proc = subprocess.Popen(
                self.cmd, cwd=ROOT, env=self.env, stdout=out,
                stderr=subprocess.STDOUT,
            )
        deadline = started + SERVER_START_TIMEOUT_S
        pattern = re.compile(rb" on [^ ]+:(\d+) ")
        while True:
            match = pattern.search(log.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(
                    "server did not start:\n" + log.read_text(errors="replace")
                )
            time.sleep(0.002)
        if self.call("ping") != "pong":
            raise RuntimeError("server answered ping wrongly")

    def call(self, op: str):
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as sock:
            sock.sendall(json.dumps({"id": 0, "op": op}).encode() + b"\n")
            reply = json.loads(sock.makefile("rb").readline())
        if not reply.get("ok"):
            raise RuntimeError(f"server {op} failed: {reply}")
        return reply["result"]

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.call("shutdown")
                self.proc.wait(timeout=10)
        except (OSError, RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
def run_child(script: str, spec: Dict, prefix: Path, env: Dict[str, str]) -> Dict:
    """Run ``perfbench/<script> SPEC OUT`` and load what it wrote.

    Arrays (``OUT.npz``, if any) are loaded and the file deleted, so runs
    leave only small logs behind.
    """
    spec_path = prefix.with_name(prefix.name + "-spec.json")
    spec_path.write_text(json.dumps(spec))
    log_path = prefix.with_name(prefix.name + ".log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / script), str(spec_path), str(prefix)],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RuntimeError(
            f"{script} failed:\n" + log_path.read_text(errors="replace")
        )
    result = json.loads(prefix.with_suffix(".json").read_text())
    arrays_path = prefix.with_suffix(".npz")
    if arrays_path.exists():
        with np.load(arrays_path) as arrays:
            result["arrays"] = {key: arrays[key] for key in arrays.files}
        arrays_path.unlink()
    return result


def build_repeat(args, k: int, workdir: Path, env: Dict[str, str]) -> Dict:
    """Repeat ``k`` of the build path in a fresh process; the first is gated."""
    spec = {
        "workload": args.workload,
        "tiny": args.tiny,
        "seed": args.seed,
        "traced": bool(args.trace),
        "repeat": k,
        "gate": k == 0,
    }
    return run_child("buildrun.py", spec, workdir / f"build{k}", env)


def summarize_builds(args, reps: List[Dict]) -> Dict:
    """Every later repeat must reproduce the gated repeat's trace values.

    Times (normalized, see :mod:`speed`) are the mean repeat: the time of
    all the repeats' work over the work done.  Peak RSS is the median
    repeat; per-layer figures are the mean repeat.
    """
    first = reps[0]
    out = {
        "failures": list(first["failures"]),
        "are_pct": first["are_pct"],
        "bound_are_pct": first["bound_are_pct"],
        "times": {
            key: [r[key] for r in reps] for key in ("build_s", "exact_build_s", "eval_s")
        },
        "raw_times": {
            key: [r["raw"][key] for r in reps]
            for key in ("build_s", "exact_build_s", "eval_s")
        },
    }
    for k, rep in enumerate(reps[1:], start=1):
        out["failures"] += [
            f"repeat {k} evaluated the {name} trace differently"
            for name, digest in rep["digests"].items()
            if digest != first["digests"][name]
        ]
    for key in ("build_s", "exact_build_s", "eval_s"):
        out[key] = statistics.fmean(r[key] for r in reps)
    out["rss_mb"] = statistics.median(r["rss_mb"] for r in reps)
    out["eval_rows_per_s"] = first["rows"] / out["eval_s"]
    if args.trace:
        out["untraced"] = {
            key: statistics.fmean(r["untraced"][key] for r in reps)
            for key in first["untraced"]
        }
        out["per_layer"] = {
            name: statistics.fmean(r["per_layer"][name] for r in reps)
            for name in first["per_layer"]
        }
        out["trace_overhead_pct"] = statistics.fmean(
            r["trace_overhead_pct"] for r in reps
        )
    return out


# ---------------------------------------------------------------------------
# Query phase
# ---------------------------------------------------------------------------
def pin(pid: int, cpus) -> None:
    """Restrict every thread of a process to ``cpus``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(tid), cpus)


def run_queries(wl, server: Server, args, workdir: Path, env: Dict[str, str],
                num_inputs: int) -> Dict:
    """The query phase: the load generator drives the running server.

    With two CPUs or more, the server is pinned to one, and the generator
    measures the machine's speed (see :mod:`speed`) on that CPU between
    phases, while the server is idle.
    """
    from workloads import SERVED

    cpus = sorted(os.sched_getaffinity(0))
    server_cpu = cpus[0] if len(cpus) > 1 else None
    if server_cpu is not None:
        pin(server.proc.pid, {server_cpu})
    spec = {
        "host": "127.0.0.1",
        "port": server.port,
        "pid": server.proc.pid,
        "server_cpu": server_cpu,
        "model": SERVED,
        "num_inputs": num_inputs,
        "pairs": wl.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "low_rps": wl.low_rps,
        "high_rps": wl.high_rps,
        "ladder_up": list(wl.ladder_up),
        "ladder_down": list(wl.ladder_down),
        "p99_limit_ms": wl.p99_limit_ms,
        "repeats": wl.query_repeats,
    }
    return run_child("loadgen.py", spec, workdir / "loadgen", env)


# ---------------------------------------------------------------------------
# Correctness gate and metrics of the query path
# ---------------------------------------------------------------------------
def gate_replies(wl, seed: int, query: Dict, served_model) -> List[str]:
    """Every reply equals the in-process evaluation of its request."""
    import checks
    from loadgen import make_transitions

    failures = []
    n = served_model.num_inputs
    for phase in query["phases"]:
        initial, final = make_transitions(
            seed, phase["index"], phase["count"], wl.pairs, n
        )
        expected = served_model.pair_capacitances(
            initial.reshape(-1, n).astype(bool), final.reshape(-1, n).astype(bool)
        ).reshape(phase["count"], wl.pairs)
        failures.append(checks.check_replies(
            query["arrays"][f"phase{phase['index']}"], expected,
            f"query phase {phase['name']}",
        ))
    return [f for f in failures if f is not None]


def server_layers(phases: List[Dict]) -> Dict[str, float]:
    """Per-request server figures of some phases, from their ``stats`` diffs.

    The phases' deltas are pooled (counters and histograms add), so the
    figures are per request over all of them.
    """
    from repro.obs.metrics import MetricsRegistry, histogram_quantile, merge_snapshots

    delta = merge_snapshots([
        MetricsRegistry.diff(p["stats_before"], p["stats_after"]) for p in phases
    ])

    def counter(name: str) -> float:
        return float(delta.get(name, {}).get("value", 0.0))

    def p50_ms(name: str) -> float:
        value = histogram_quantile(delta[name], 0.5) if name in delta else None
        return 1000.0 * (value or 0.0)

    def hist_sum(name: str) -> float:
        return float(delta.get(name, {}).get("sum", 0.0))

    requests = max(counter("serve.eval.requests"), 1.0)
    batches = counter("serve.eval.batches")
    proto = "serve.bench.protocol"
    decode_calls = max(counter(f"{proto}.decode.calls"), 1.0)
    encode_calls = max(counter(f"{proto}.encode.calls"), 1.0)
    parse_rows = max(counter(f"{proto}.parse.rows"), 1.0)
    cpu_us = cpu_us_per_req(phases)
    out = {
        "decode_us_per_req": 1e6 * counter(f"{proto}.decode.seconds") / decode_calls,
        "parse_us_per_row": 1e6 * counter(f"{proto}.parse.seconds") / parse_rows,
        "parse_us_per_req": 1e6 * counter(f"{proto}.parse.seconds") / requests,
        "encode_us_per_req": 1e6 * counter(f"{proto}.encode.seconds") / encode_calls,
        "kernel_us_per_req": 1e6 * hist_sum("serve.latency.kernel_seconds") / requests,
        "serialize_us_per_req": 1e6 * hist_sum("serve.latency.serialize_seconds") / requests,
        "batch_rows_mean": counter("serve.eval.rows") / batches if batches else 0.0,
        "batches": batches,
        "queue_wait_ms_p50": p50_ms("serve.latency.queue_wait_seconds"),
        "batch_wait_ms_p50": p50_ms("serve.latency.batch_wait_seconds"),
        "kernel_ms_p50": p50_ms("serve.latency.kernel_seconds"),
        "serialize_ms_p50": p50_ms("serve.latency.serialize_seconds"),
        "cpu_us_per_req": cpu_us,
    }
    # serialize covers the reply's encode; decode and parse precede it.
    timed = (
        out["decode_us_per_req"] + out["parse_us_per_req"]
        + out["kernel_us_per_req"] + out["serialize_us_per_req"]
    )
    out["unaccounted_us_per_req"] = cpu_us - timed
    return out


def cpu_us_per_req(phases: List[Dict], scale: float = 1.0) -> float:
    """Server CPU over the phases, times ``scale``, divided by the requests
    they answered."""
    answered = sum(p["ok"] for p in phases)
    return 1e6 * scale * sum(p["server_cpu_s"] for p in phases) / max(answered, 1)


def median_of(phases: List[Dict], key: str) -> float:
    return statistics.median(p[key] for p in phases)


def pooled_p99(query: Dict, phases: List[Dict]) -> float:
    """p99 latency (ms) over every request of one rate's slices."""
    latencies = np.concatenate(
        [query["arrays"][f"latency{p['index']}"] for p in phases]
    )
    return float(np.percentile(latencies, 99))


def query_layer_metrics(query: Dict, kinds: Dict[str, List[Dict]]) -> Dict[str, float]:
    """Server and generator figures of the low and high phases."""
    out: Dict[str, float] = {}
    for label, phases in kinds.items():
        server = server_layers(phases)
        out[f"serve.protocol.decode.us_per_req.{label}"] = server["decode_us_per_req"]
        out[f"serve.protocol.parse.us_per_row.{label}"] = server["parse_us_per_row"]
        out[f"serve.protocol.encode.us_per_req.{label}"] = server["encode_us_per_req"]
        out[f"serve.server.batch_rows.mean.{label}"] = server["batch_rows_mean"]
        out[f"serve.server.batches.{label}"] = server["batches"]
        for stage in ("queue_wait", "batch_wait", "kernel", "serialize"):
            out[f"serve.server.{stage}_ms.p50.{label}"] = server[f"{stage}_ms_p50"]
        out[f"serve.server.unaccounted_us_per_req.{label}"] = server["unaccounted_us_per_req"]
        for key in ("sent", "ok", "failed", "samples"):
            out[f"loadgen.{key}.{label}"] = sum(p[key] for p in phases)
        out[f"loadgen.p99_ms.{label}"] = pooled_p99(query, phases)
        out[f"loadgen.late_ms.p99.{label}"] = median_of(phases, "late_p99_ms")
        out[f"loadgen.in_flight.end.{label}"] = median_of(phases, "in_flight_end")
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def print_build_books(prefix: str, per_layer: Dict[str, float], build_s: float) -> None:
    """Build-layer self times against the traced build time they split."""
    from spans import BUILD, BUILD_LAYERS

    traced_s = per_layer[f"{prefix}.{BUILD}.s"]
    print(f"book {prefix} build: layer self times vs traced build "
          f"{traced_s:.4f} s (untraced build_s {build_s:.4f} s, normalized)")
    accounted = 0.0
    for layer in BUILD_LAYERS:
        calls = per_layer[f"{prefix}.{layer}.calls"]
        self_s = per_layer[f"{prefix}.{layer}.self_s"]
        accounted += self_s
        print(f"  {layer:30s} {calls:9.1f} calls {self_s:9.4f} s "
              f"{100.0 * self_s / traced_s:6.1f}%")
    unaccounted = per_layer[f"{prefix}.{BUILD}.unaccounted_s"]
    print(f"  {'unaccounted':30s} {'':15s} {unaccounted:9.4f} s "
          f"{100.0 * unaccounted / traced_s:6.1f}%")
    print(f"  {'sum of layers':30s} {'':15s} {accounted:9.4f} s "
          f"{100.0 * accounted / traced_s:6.1f}%")


def print_server_books(label: str, phases: List[Dict]) -> None:
    """Server-layer times per request against the server's CPU per request."""
    server = server_layers(phases)
    cpu = server["cpu_us_per_req"]
    print(f"book server {label} ({phases[0]['rate']:g} req/s): layer us/req vs "
          f"cpu_us_per_req {cpu:.1f}")
    for key in ("decode", "parse", "kernel", "serialize"):
        value = server[f"{key}_us_per_req"]
        print(f"  {key:12s} {value:9.2f} us {100.0 * value / cpu:6.1f}%")
    print(f"  {'(encode)':12s} {server['encode_us_per_req']:9.2f} us "
          "(inside serialize)")
    value = server["unaccounted_us_per_req"]
    print(f"  {'unaccounted':12s} {value:9.2f} us {100.0 * value / cpu:6.1f}%")


def print_phases(query: Dict) -> None:
    for phase in query["phases"]:
        print(
            f"query {phase['name']:>12s} {phase['rate']:8g} req/s: "
            f"sent {phase['sent']} ok {phase['ok']} failed {phase['failed']} "
            f"samples {phase['samples']} p50 {phase['p50_ms']:.3f} ms "
            f"p99 {phase['p99_ms']:.3f} ms late.p99 {phase['late_p99_ms']:.3f} ms "
            f"in_flight.end {phase['in_flight_end']} "
            f"reference {1000 * phase['reference_s']:.1f} ms "
            f"{'pass' if phase['passed'] else 'FAIL'}"
        )


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------
def run(args: argparse.Namespace, workdir: Path, env: Dict[str, str]) -> int:
    from buildrun import peak_rss_mb
    from loadgen import LATE_LIMIT_MS
    from repro.circuits.mcnc import load_circuit
    from repro.cli import build_parser
    from repro.models.addmodel import build_add_model
    from workloads import SERVED, WORKLOADS, tiny

    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    env_block = environment()
    print("environment " + json.dumps(env_block), flush=True)

    # The build repeats and the cold server starts are interleaved, with
    # the last build after the query phase, so that each figure samples
    # the whole run rather than one stretch of a shared machine's load.
    served_netlist = load_circuit(SERVED)
    server = Server(bool(args.trace), workdir, env)
    starts = 1 if args.trace else wl.setup_starts
    repeats = TRACED_REPEATS if args.trace else wl.repeats
    reps: List[Dict] = []
    setup: List[float] = []
    setup_raw: List[float] = []

    def start_server() -> None:
        _, seconds, scaled = speed.Stopwatch().time(server.start)
        setup_raw.append(seconds)
        setup.append(scaled)

    try:
        for k in range(max(repeats, starts) - 1):
            if k < repeats - 1:
                reps.append(build_repeat(args, k, workdir, env))
            if k < starts - 1:
                start_server()
                server.stop()
        start_server()
        query = run_queries(
            wl, server, args, workdir, env, served_netlist.num_inputs
        )
        server_rss = peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    reps.append(build_repeat(args, repeats - 1, workdir, env))
    built = summarize_builds(args, reps)

    print_phases(query)
    best = query["max_rate_phase"]
    if best is not None and query["phases"][best]["rate"] == wl.ladder_up[-1]:
        print(f"warning: the top ladder rung ({wl.ladder_up[-1]:g} req/s) "
              "passed; max_rate_rps is capped by the ladder, not the server")
    lows = [p for p in query["phases"] if p["name"].startswith("low")]
    highs = [p for p in query["phases"] if p["name"].startswith("high")]
    invalid = [
        label for label, phases in (("low", lows), ("high", highs))
        if median_of(phases, "late_p99_ms") > LATE_LIMIT_MS
    ]
    if invalid:
        print(f"invalid: the load generator fell behind its schedule at the "
              f"{' and '.join(invalid)} rate (median p99 lateness over "
              f"{LATE_LIMIT_MS} ms)")
        return 3

    # The served model, built here outside every timed region, is the
    # reference for the replies.
    defaults = build_parser().parse_args(["serve", SERVED])
    served_model = build_add_model(
        served_netlist, max_nodes=defaults.max_nodes, strategy=defaults.strategy,
    )
    failures = built["failures"] + gate_replies(wl, args.seed, query, served_model)

    fixed = lows + highs
    # One factor for the whole query phase, from the references the
    # generator ran on the server's CPU before every slice and rung.
    query_scale = speed.factor([p["reference_s"] for p in query["phases"]])
    # Builds and trace evaluations per repeat: a traced repeat makes a
    # plain and a traced pass, each building the exact set once.
    if args.trace:
        operations = 2 * (2 + 2 * len(wl.exact))
    else:
        operations = 2 + len(wl.exact) * (wl.exact_repeats + 1)
    attempted = repeats * operations + sum(p["sent"] for p in fixed)
    failed = sum(p["failed"] for p in fixed)
    e2e = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": built["rss_mb"],
        "server_rss_mb": server_rss,
        "build_s": built["build_s"],
        "exact_build_s": built["exact_build_s"],
        "are_pct": built["are_pct"],
        "bound_are_pct": built["bound_are_pct"],
        "eval_rows_per_s": built["eval_rows_per_s"],
        # The lowest slice: host stalls only ever raise a slice's p50.
        "p50_ms.low": min(p["p50_ms"] for p in lows),
        "p50_ms.high": min(p["p50_ms"] for p in highs),
        "max_rate_rps": (
            0.0 if best is None
            else query["phases"][best]["achieved_rps"] / query_scale
        ),
        "cpu_us_per_req.low": cpu_us_per_req(lows, query_scale),
        "cpu_us_per_req.high": cpu_us_per_req(highs, query_scale),
    }
    units = declared_units("end_to_end")
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for label, phases in (("low", lows), ("high", highs)):
        print(f"p99 {label}: {pooled_p99(query, phases):.4g} ms over "
              f"{sum(p['samples'] for p in phases)} requests")

    if args.trace:
        per_layer = dict(built["per_layer"])
        print_build_books("budgeted", per_layer, built["untraced"]["build_s"])
        print_build_books("exact", per_layer, built["untraced"]["exact_build_s"])
        print_server_books("low", lows)
        print_server_books("high", highs)
        per_layer.update(query_layer_metrics(query, {"low": lows, "high": highs}))
        per_layer["failed_share"] = failed / attempted
        per_layer["trace_overhead_pct"] = built["trace_overhead_pct"]
        print(f"trace overhead: {built['trace_overhead_pct']:.2f}% of the "
              "untraced build-path time")
        units = declared_units("per_layer")
        metrics = {
            name: {"value": float(value), "unit": units[name]}
            for name, value in per_layer.items()
        }
    else:
        metrics = {
            name: {"value": float(value), "unit": units[name]}
            for name, value in e2e.items()
        }

    for failure in failures:
        print(f"gate FAILED: {failure}")
    correct = not failures
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps({
        "environment": env_block,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_runs_s": setup,
        "setup_runs_raw_s": setup_raw,
        "query_factor": query_scale,
        "repeat_times_s": built["times"],
        "repeat_raw_times_s": built["raw_times"],
        "phases": [
            {k: v for k, v in p.items() if not k.startswith("stats")}
            for p in query["phases"]
        ],
        "end_to_end": e2e,
        "result": result,
    }, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def declared_units(kind: str) -> Dict[str, str]:
    """Unit of every ``end_to_end`` or ``per_layer`` metric of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"error: refusing to run with {', '.join(refused)} set; "
              "it changes what is measured", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC.name}/ next to the "
              "benchmark; run from a full checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    scratch = workdir / "tmp"
    scratch.mkdir(parents=True)
    # The C compiler and tempfile write here, not to the system temp dir.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        return run(args, workdir, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
