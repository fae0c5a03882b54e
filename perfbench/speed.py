"""The machine's speed, measured by a fixed reference workload.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes as other tenants load the host (on the
2-vCPU machine the benchmark was defined on, the same build took from 3.0
to 5.3 s within four minutes, with no steal time reported: the slowdown
is in the CPU, so CPU time drifts with it).  Raw times then mostly
measure the host.  So timed work is scaled by how fast a fixed reference
workload ran around it:

    normalized = raw * (REFERENCE_S / reference seconds) ** ELASTICITY

The reference is a small pure-Python decision-diagram build (hash-consed
nodes, a memoized recursive apply), the kind of work the program's build
and server do, and it lives here, outside the program, so a change to the
program cannot change it.  Rates are divided by the same factor.
``perfbench/README.md`` says which metrics are normalized and how; raw
times are kept in each run's ``result.json``.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Typical seconds of :func:`reference_seconds` on the machine the
#: benchmark was defined on (a 2-vCPU Xeon VM, Python 3.11), so
#: normalized times read as seconds on that machine.
REFERENCE_S = 0.07
#: How far the program's times move with the reference's.  On the machine
#: the benchmark was defined on, the log of an alu2 build's time against
#: the log of the references around it had slope 0.37 to 0.54 over 67
#: pairs: the reference, being short and small, swings about twice as far
#: as the build, so scaling by the full ratio would overcorrect.  Re-scoring
#: five runs, scaling by the square root cut the run-to-run spread of
#: ``build_s`` from 0.085 (raw) to 0.047, where the full ratio made it 0.12.
ELASTICITY = 0.5
#: Bits per operand of the reference comparator (about 25,000 nodes).
_BITS = 12


def _comparator_size() -> int:
    """Nodes of the BDD of ``a < b`` over ``_BITS``-bit operands, built bit
    by bit with a memoized apply on fresh tables.

    All of ``a``'s variables come before ``b``'s, an order under which
    the diagram grows as ``2 ** _BITS``, so the build is mostly table
    lookups and inserts, like the program's own builds.
    """
    unique: Dict[Tuple[int, int, int], int] = {}
    nodes = [(1 << 30, 0, 0), (1 << 30, 1, 1)]  # terminals 0 and 1

    def mk(var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = unique.get(key)
        if node is None:
            node = len(nodes)
            nodes.append(key)
            unique[key] = node
        return node

    memo: Dict[Tuple[str, int, int], int] = {}

    def apply(op: str, f: int, g: int) -> int:
        if f <= 1 and g <= 1:
            if op == "and":
                return f & g
            if op == "or":
                return f | g
            return f ^ g
        key = (op, f, g)
        hit = memo.get(key)
        if hit is not None:
            return hit
        fv, gv = nodes[f][0], nodes[g][0]
        var = min(fv, gv)
        f0, f1 = (nodes[f][1], nodes[f][2]) if fv == var else (f, f)
        g0, g1 = (nodes[g][1], nodes[g][2]) if gv == var else (g, g)
        result = mk(var, apply(op, f0, g0), apply(op, f1, g1))
        memo[key] = result
        return result

    def neg(f: int) -> int:
        return apply("xor", f, 1)

    less, equal = 0, 1
    for bit in range(_BITS - 1, -1, -1):
        a, b = mk(bit, 0, 1), mk(_BITS + bit, 0, 1)
        here = apply("and", neg(a), b)
        less = apply("or", less, apply("and", equal, here))
        equal = apply("and", equal, neg(apply("xor", a, b)))
    return len(nodes)


def reference_seconds() -> float:
    """Wall seconds of the reference workload, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _comparator_size()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def factor(references: Sequence[float]) -> float:
    """Scale from raw to normalized time for work the ``references`` were
    run around (their median)."""
    return (REFERENCE_S / statistics.median(references)) ** ELASTICITY


class Stopwatch:
    """Times consecutive steps, each between two references.

    A step's closing reference opens the next step, so ``n`` steps cost
    ``n + 1`` references.  Each step starts right after a full garbage
    collection, so that a collection owed by earlier work does not land in
    it.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()

    def time(self, step: Callable[[], T]) -> Tuple[T, float, float]:
        """``(step(), raw seconds, normalized seconds)``."""
        gc.collect()
        started = time.perf_counter()
        result = step()
        raw = time.perf_counter() - started
        after = reference_seconds()
        scaled = raw * factor([self.last, after])
        self.last = after
        return result, raw, scaled
