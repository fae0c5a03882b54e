"""Spans recorded from outside the program, around calls into each layer.

The traced run installs wrappers on the bindings callers actually look
up (``repro.models.addmodel.approximate``, not only
``repro.dd.approx.approximate``), records one span per outermost call of a
layer, and keeps the spans in memory until the workload ends.  A layer's
*self time* is its span's duration minus the part its child spans cover.

Nothing here is imported by the untraced run's timed code paths: the
wrappers exist only inside :func:`installed`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Root span of one model build; its self time is the build's
#: unaccounted remainder.
BUILD = "models.addmodel.build"
#: Layers a build's wall time is split into.
BUILD_LAYERS = (
    "netlist.symbolic.functions",
    "dd.manager.apply",
    "dd.manager.size",
    "dd.approx.approximate",
    "dd.approx.rebuild",
    "dd.stats.compute_stats",
    "models.addmodel.weights",
)
#: Backends registered at the commit that defined the benchmark; a
#: backend added later is counted under its own name in the span file.
BACKENDS = ("pointer", "levelized", "bitparallel", "codegen")


class Recorder:
    """In-memory span tree with per-layer call / time / self-time sums."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, s, self_s]
        self.counts: Dict[str, float] = {}
        self._stack: List[Tuple[int, List[float]]] = []
        self._active: Dict[str, bool] = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable[..., Dict[str, float]]] = None,
    ) -> Callable:
        """``fn`` timed as a span of layer ``name``.

        Re-entrant calls of the same layer (``bdd_not`` recursing through
        its public method) run unrecorded inside the outer span.  ``count``
        maps the call's arguments to counters to add (rows evaluated).
        """
        active = self._active
        stack = self._stack
        spans = self.spans
        totals = self.totals
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if active.get(name):
                return fn(*args, **kwargs)
            if count is not None:
                for key, amount in count(*args, **kwargs).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            active[name] = True
            index = len(spans)
            children = [0.0]
            start = clock()
            spans.append([name, start, None, stack[-1][0] if stack else None])
            stack.append((index, children))
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = False
                spans[index][2] = end
                duration = end - start
                if stack:
                    stack[-1][1][0] += duration
                entry = totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children[0]

        return wrapper

    def take(self) -> Tuple[Dict[str, List[float]], Dict[str, float]]:
        """Per-layer sums and counters since the last call; then reset."""
        totals, counts = dict(self.totals), dict(self.counts)
        self.totals.clear()
        self.counts.clear()
        return totals, counts

    def write(self, path: str) -> None:
        """All spans as JSON: name, start and end (s), parent index."""
        with open(path, "w") as handle:
            json.dump({"spans": self.spans}, handle)


def _patch_targets():
    """(owner, attribute, layer, counter) for every in-process wrapper."""
    from repro.dd import approx, backends
    from repro.dd.compiled import CompiledDD
    from repro.dd.manager import DDManager
    from repro.models import addmodel
    from repro.models.addmodel import AddPowerModel

    targets = [
        (addmodel, "build_add_model", BUILD, None),
        (addmodel, "build_node_functions", "netlist.symbolic.functions", None),
        (DDManager, "add_plus", "dd.manager.apply", None),
        (DDManager, "bdd_and", "dd.manager.apply", None),
        (DDManager, "bdd_not", "dd.manager.apply", None),
        (DDManager, "add_const_times", "dd.manager.apply", None),
        (DDManager, "size", "dd.manager.size", None),
        (addmodel, "approximate", "dd.approx.approximate", None),
        (approx, "approximate", "dd.approx.approximate", None),
        (approx, "rebuild_with_replacements", "dd.approx.rebuild", None),
        (approx, "compute_stats", "dd.stats.compute_stats", None),
        (addmodel, "compute_stats", "dd.stats.compute_stats", None),
        (addmodel, "markov_node_weights", "models.addmodel.weights", None),
        (AddPowerModel, "pair_capacitances", "models.addmodel.pack", None),
        (CompiledDD, "compile", "dd.compiled.compile", None),
    ]
    for name in backends.registered_names():

        def counted(_compiled, matrix, _name=name):
            return {
                "dd.backends.kernel.rows": int(matrix.shape[0]),
                f"dd.backends.selected.{_name}": 1,
            }

        backend = backends.get_backend(name)
        targets.append((backend, "warm", "dd.backends.warm", None))
        targets.append((backend, "evaluate", "dd.backends.kernel", counted))
    return targets


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every in-process layer binding for the duration of the block."""
    saved = []
    try:
        for owner, attr, layer, count in _patch_targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            # A backend instance gets a shadowing attribute; modules and
            # classes get their binding replaced.
            shadow = attr not in vars(owner)
            saved.append((owner, attr, raw, shadow))
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(layer, raw.__func__, count))
            else:
                wrapped = recorder.wrap(layer, raw, count)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, raw, shadow in reversed(saved):
            if shadow:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
