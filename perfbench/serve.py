"""Launch ``repro serve`` with the wire layer timed (traced runs only).

    python perfbench/serve.py <repro serve arguments>

Wraps ``repro.serve.protocol.decode_request``, ``parse_transitions`` and
``encode`` (the server looks them up on the module at call time) and
counts their calls, seconds and parsed rows in the server's own metrics
registry under ``serve.bench.protocol.*``, so the ``stats`` op returns
them over the wire alongside the server's own histograms.  Then runs the
unchanged ``repro serve`` command in this process.
"""

from __future__ import annotations

import sys
import time

PREFIX = "serve.bench.protocol"


def install() -> None:
    from repro.obs.metrics import get_metrics
    from repro.serve import protocol

    registry = get_metrics()
    clock = time.perf_counter

    def timed(name: str, fn, rows=None):
        calls = registry.counter(f"{PREFIX}.{name}.calls")
        seconds = registry.counter(f"{PREFIX}.{name}.seconds")
        counted_rows = registry.counter(f"{PREFIX}.{name}.rows")

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds.inc(clock() - start)
                calls.inc()
            if rows is not None:
                counted_rows.inc(rows(result))
            return result

        return wrapper

    protocol.decode_request = timed("decode", protocol.decode_request)
    protocol.parse_transitions = timed(
        "parse", protocol.parse_transitions, rows=lambda pair: pair[0].shape[0]
    )
    protocol.encode = timed("encode", protocol.encode)


def main(argv) -> int:
    install()
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
