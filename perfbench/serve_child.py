"""Runs ``repro serve`` for the benchmark, optionally with spans.

    python3 -u serve_child.py [--spans-out FILE] -- <repro serve args>

Without ``--spans-out`` this is exactly ``repro serve <args>``.  With it,
``AsyncWorkerPool.run`` and ``ResultCache.get`` are wrapped in spans
before the server starts, and the spans are written to FILE when the
server shuts down (SIGINT).
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out = Path(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.cli import main as repro_main

    if spans_out is None:
        return repro_main(["serve", *argv])

    from repro.runner.cache import ResultCache
    from repro.serve.pool import AsyncWorkerPool
    from spans import Tracer

    tracer = Tracer()
    try:
        with tracer.wrapping([
            (AsyncWorkerPool, "run", "serve.pool.run"),
            (ResultCache, "get", "serve.cache.get"),
        ]):
            return repro_main(["serve", *argv])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
