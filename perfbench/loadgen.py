"""Open-loop load generator for the power-query server.

Runs in its own process so it never shares the server's interpreter lock:

    python perfbench/loadgen.py SPEC.json OUT_PREFIX

``SPEC.json`` names the server (host, port, pid), the served model, the
request shape and the rate ladder.  Requests are sent on a fixed schedule
(request ``i`` of a phase is *due* at ``start + i / rate``) regardless of
how fast replies come back, and every latency is timed from the due time,
so a stall is charged to every request queued behind it.  The generator
records how late it itself ran against the schedule; a phase it could not
drive on time says nothing about the server.

Outputs: ``OUT_PREFIX.json`` (per-phase summaries plus the server's
``stats`` snapshots around each phase) and ``OUT_PREFIX.npz`` (the reply
values, for the correctness gate in the parent process).
"""

from __future__ import annotations

import gc
import json
import math
import os
import selectors
import socket
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import speed

#: Connections the generator spreads its requests over (the benchmark
#: machine's ``nproc``).
CONNECTIONS = 2
#: Every measured rate gets at least this many requests, so its p99 has
#: at least ten samples beyond it.
MIN_REQUESTS = 1000
#: Probe rungs of the ladder last at least this long.
PROBE_SECONDS = 1.0
#: Times a failing probe rung is measured before it counts as failed.
PROBE_ATTEMPTS = 2
#: After the last request is sent, wait this long for replies; a request
#: still unanswered then counts as failed.
GRACE_SECONDS = 3.0
#: The generator's own p99 lateness against the schedule may not exceed
#: this (a tenth of the p99 latency limit); a phase that does is invalid,
#: not slow.
LATE_LIMIT_MS = 10.0
#: How often the in-flight count is sampled.
SAMPLE_EVERY_S = 0.01
#: The in-flight count at the end of a phase is the median sample over
#: this last share of its send window, so one momentary stall does not
#: read as a growing backlog.
END_WINDOW = 0.25


def make_transitions(
    seed: int, phase_index: int, count: int, pairs: int, num_inputs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded ``(count, pairs, n)`` initial/final bit arrays of one phase."""
    rng = np.random.default_rng([seed, 7919, phase_index])
    shape = (count, pairs, num_inputs)
    initial = rng.integers(0, 2, size=shape, dtype=np.uint8)
    final = rng.integers(0, 2, size=shape, dtype=np.uint8)
    return initial, final


def phase_count(rate: float, seconds: float, minimum: int) -> int:
    """Requests one phase sends: ``rate * seconds``, at least ``minimum``."""
    return max(minimum, int(math.ceil(rate * seconds)))


def encode_requests(
    initial: np.ndarray, final: np.ndarray, model: str, single: bool
) -> List[bytes]:
    """Wire lines (JSON, one per request) for the given transitions."""
    count, pairs, _ = initial.shape
    ini = (initial + 48).astype(np.uint8)
    fin = (final + 48).astype(np.uint8)
    lines = []
    for i in range(count):
        if single:
            lines.append(
                b'{"id":%d,"op":"evaluate","model":"%s","initial":"%s","final":"%s"}\n'
                % (i, model.encode(), ini[i, 0].tobytes(), fin[i, 0].tobytes())
            )
        else:
            body = b",".join(
                b'["%s","%s"]' % (ini[i, p].tobytes(), fin[i, p].tobytes())
                for p in range(pairs)
            )
            lines.append(
                b'{"id":%d,"op":"evaluate","model":"%s","pairs":[%s]}\n'
                % (i, model.encode(), body)
            )
    return lines


def latencies_ms(
    due: np.ndarray, received: np.ndarray, ended: float
) -> np.ndarray:
    """Per-request latency from the *due* time, in ms.

    A request with no good reply (``received`` is NaN) is charged the time
    from its due time to the end of the phase: a lower bound on its
    latency, large enough to count as missing any limit it could miss.
    """
    done = np.where(np.isnan(received), ended, received)
    return (done - due) * 1000.0


def server_cpu_seconds(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


class _Connection:
    __slots__ = ("sock", "out", "inbuf")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.out = bytearray()
        self.inbuf = b""


class LoadGenerator:
    """Drives fixed-rate phases over CONNECTIONS pipelined connections."""

    def __init__(self, host: str, port: int):
        self.conns = []
        # select(2) sleeps to the microsecond; epoll rounds its timeout up
        # to whole milliseconds, which would make every send late.
        self.selector = selectors.SelectSelector()
        for _ in range(CONNECTIONS):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Connection(sock)
            self.conns.append(conn)
            self.selector.register(sock, selectors.EVENT_READ, conn)

    def close(self) -> None:
        for conn in self.conns:
            self.selector.unregister(conn.sock)
            conn.sock.close()
        self.selector.close()

    def call(self, op: str, timeout: float = 10.0) -> Dict:
        """One control request (``stats``, ``ping``) between phases."""
        conn = self.conns[0]
        conn.sock.sendall(b'{"id":"ctl","op":"%s"}\n' % op.encode())
        deadline = time.monotonic() + timeout
        while b"\n" not in conn.inbuf:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no reply to {op!r}")
            if self.selector.select(0.05):
                chunk = conn.sock.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                conn.inbuf += chunk
        line, conn.inbuf = conn.inbuf.split(b"\n", 1)
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(f"{op} failed: {reply}")
        return reply["result"]

    def run_phase(self, lines: Sequence[bytes], rate: float, width: int) -> Dict:
        """Send ``lines`` open-loop at ``rate`` req/s and collect replies.

        ``width`` is the number of values one reply carries (1 for a
        single transition).  Returns timing arrays, the reply values and
        counts; see :func:`summarize`.
        """
        n = len(lines)
        conns = self.conns
        nconn = len(conns)
        due = np.arange(n) / rate
        queued = np.full(n, np.nan)
        received = np.full(n, np.nan)
        values = np.full((n, width), np.nan)
        errors = 0
        answered = 0
        next_i = 0
        samples: List[Tuple[float, int]] = []
        next_sample = 0.0
        select = self.selector.select
        clock = time.perf_counter
        start = clock() + 0.005
        due += start
        send_end = start + n / rate
        ended = send_end
        while True:
            now = clock()
            if next_i < n:
                upto = min(n, math.floor((now - start) * rate) + 1)
                if upto > next_i:
                    for i in range(next_i, upto):
                        conns[i % nconn].out += lines[i]
                    queued[next_i:upto] = now
                    next_i = upto
            for conn in conns:
                if conn.out:
                    try:
                        sent = conn.sock.send(conn.out)
                    except BlockingIOError:
                        sent = 0
                    del conn.out[:sent]
            if now >= next_sample:
                samples.append((now, next_i - answered - errors))
                next_sample = now + SAMPLE_EVERY_S
            if next_i >= n:
                if answered + errors >= n:
                    ended = clock()
                    break
                if now > send_end + GRACE_SECONDS:
                    ended = now
                    break
                timeout = 0.002
            else:
                timeout = min(0.002, max(0.0, start + next_i / rate - clock()))
            for key, _ in select(timeout):
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                stamp = clock()
                parts = (conn.inbuf + chunk).split(b"\n")
                conn.inbuf = parts.pop()
                for line in parts:
                    reply = json.loads(line)
                    i = reply.get("id")
                    if not isinstance(i, int) or not 0 <= i < n:
                        errors += 1
                        continue
                    if reply.get("ok"):
                        result = reply["result"]
                        if width == 1:
                            values[i, 0] = result["capacitance_fF"]
                        else:
                            values[i] = result["capacitances_fF"]
                        received[i] = stamp
                        answered += 1
                    else:
                        errors += 1
        window_start = send_end - END_WINDOW * (send_end - start)
        tail = [
            count for stamp, count in samples
            if window_start <= stamp <= send_end
        ]
        in_flight_end = int(np.median(tail)) if tail else 0
        return {
            "due": due,
            "queued": queued,
            "received": received,
            "values": values,
            "sent": next_i,
            "ok": answered,
            "errors": errors,
            "ended": ended,
            "duration": ended - start,
            "in_flight_end": in_flight_end,
        }


def summarize(raw: Dict, rate: float, limit_ms: float) -> Dict:
    """Phase summary and the ladder's pass/fail verdict.

    A rung passes when the generator kept its schedule, p99 latency is
    within ``limit_ms``, no request failed, and the backlog did not grow:
    the number in flight over the end of the send window may not exceed
    what the latency limit allows at this rate (Little's law,
    ``rate * limit``).
    """
    lat = latencies_ms(raw["due"], raw["received"], raw["ended"])
    late = (raw["queued"] - raw["due"]) * 1000.0
    late = late[~np.isnan(late)]
    failed = int(raw["sent"] - raw["ok"])
    p50, p99 = (float(v) for v in np.percentile(lat, [50, 99]))
    late_p99 = float(np.percentile(late, 99)) if late.size else 0.0
    backlog_limit = max(1.0, rate * limit_ms / 1000.0)
    grew = raw["in_flight_end"] > backlog_limit
    valid = late_p99 <= LATE_LIMIT_MS
    return {
        "rate": rate,
        "sent": int(raw["sent"]),
        "ok": int(raw["ok"]),
        "failed": failed,
        "samples": int(lat.size),
        "p50_ms": p50,
        "p99_ms": p99,
        "late_p99_ms": late_p99,
        "late_max_ms": float(late.max()) if late.size else 0.0,
        "in_flight_end": int(raw["in_flight_end"]),
        "backlog_grew": bool(grew),
        "generator_valid": valid,
        # A rung the generator could not drive on time proves nothing.
        "passed": valid and failed == 0 and p99 <= limit_ms and not grew,
        "achieved_rps": raw["ok"] / max(raw["duration"], 1e-9),
    }


def reference_on(cpu: Optional[int]) -> float:
    """:func:`speed.reference_seconds` run on ``cpu`` (the server's, while
    the server is idle between phases), or wherever the generator runs."""
    if cpu is None:
        return speed.reference_seconds()
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return speed.reference_seconds()
    finally:
        os.sched_setaffinity(0, own)


def ladder_plan(spec: Dict):
    """(fixed phases, probe rungs above high, fallback rungs below high).

    Each rung is ``(name, rate, seconds, minimum requests)``.  The low and
    high phases are each measured in ``repeats`` slices, alternating, that
    share ``seconds`` and at least MIN_REQUESTS requests, so drift in
    machine speed hits both rates alike and one burst of noise spoils
    only some slices.
    """
    repeats = spec["repeats"]
    each = spec["seconds"] / (2.0 * repeats)
    share = -(-MIN_REQUESTS // repeats)
    fixed = []
    for k in range(1, repeats + 1):
        fixed.append((f"low{k}", spec["low_rps"], each, share))
        fixed.append((f"high{k}", spec["high_rps"], each, share))
    up = [(f"probe{r:g}", r, PROBE_SECONDS, MIN_REQUESTS) for r in spec["ladder_up"]]
    down = [(f"probe{r:g}", r, PROBE_SECONDS, MIN_REQUESTS) for r in spec["ladder_down"]]
    return fixed, up, down


def run(spec: Dict, out_prefix: str) -> int:
    """Drive the whole ladder described by ``spec``; write the results.

    The high rate passes when most of its repeats pass.  The ladder then
    climbs while rungs pass, or descends to the first passing rung when
    the high rate failed.  A failing probe rung is measured up to
    PROBE_ATTEMPTS times before it counts as failed, so one burst of
    noise does not end the climb.
    """
    single = spec["pairs"] == 1
    fixed, up, down = ladder_plan(spec)
    server_cpu = spec["server_cpu"]
    gen = LoadGenerator(spec["host"], spec["port"])
    phases: List[Dict] = []
    values: Dict[str, np.ndarray] = {}
    try:
        gen.call("ping")

        def measure(name: str, rate: float, seconds: float, minimum: int) -> Dict:
            index = len(phases)
            count = phase_count(rate, seconds, minimum)
            initial, final = make_transitions(
                spec["seed"], index, count, spec["pairs"], spec["num_inputs"]
            )
            lines = encode_requests(initial, final, spec["model"], single)
            reference_s = reference_on(server_cpu)
            before = gen.call("stats")["metrics"]
            cpu0 = server_cpu_seconds(spec["pid"])
            # The generator's own collector pauses would show up as
            # lateness; collect between phases, never during one.
            gc.collect()
            gc.disable()
            try:
                raw = gen.run_phase(lines, rate, spec["pairs"])
            finally:
                gc.enable()
            cpu1 = server_cpu_seconds(spec["pid"])
            after = gen.call("stats")["metrics"]
            summary = summarize(raw, rate, spec["p99_limit_ms"])
            summary.update(
                name=name,
                index=index,
                count=count,
                server_cpu_s=cpu1 - cpu0,
                reference_s=reference_s,
                stats_before=before,
                stats_after=after,
            )
            phases.append(summary)
            values[f"phase{index}"] = raw["values"]
            values[f"latency{index}"] = latencies_ms(
                raw["due"], raw["received"], raw["ended"]
            )
            values[f"late{index}"] = (raw["queued"] - raw["due"]) * 1000.0
            return summary

        def probe(rung) -> Dict:
            for _ in range(PROBE_ATTEMPTS):
                summary = measure(*rung)
                if summary["passed"]:
                    break
            return summary

        for rung in fixed:
            measure(*rung)
        highs = [p for p in phases if p["name"].startswith("high")]
        passing = [p for p in highs if p["passed"]]
        best: Optional[Dict] = None
        if 2 * len(passing) > len(highs):
            best = max(passing, key=lambda p: p["achieved_rps"])
            for rung in up:
                summary = probe(rung)
                if not summary["passed"]:
                    break
                best = summary
        else:
            for rung in down:
                summary = probe(rung)
                if summary["passed"]:
                    best = summary
                    break
        result = {
            "phases": phases,
            "max_rate_phase": None if best is None else best["index"],
        }
    finally:
        gen.close()
    np.savez(out_prefix + ".npz", **values)
    with open(out_prefix + ".json", "w") as handle:
        json.dump(result, handle)
    return 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: loadgen.py SPEC.json OUT_PREFIX", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        spec = json.load(handle)
    return run(spec, argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
