"""Worker-side task execution.

``execute_task`` is the function worker processes run; it must stay a
top-level importable so :mod:`concurrent.futures` can pickle it by
reference.  It returns a plain dict (the experiment result via
``to_dict`` plus timing) rather than rich objects, so the same payload
shape flows back from a subprocess, an in-process run, and a cache hit.
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.core.faults import crash_once
from repro.runner.tasks import TaskSpec

__all__ = ["execute_task"]

#: Test-only crash hook: ``"<exp_id>:<sentinel-path>"``.  The first
#: worker to pick up ``exp_id`` creates the sentinel file and dies
#: without cleanup (exit 17), letting the retry tests provoke a real
#: worker crash exactly once.  The reserved sentinel ``always`` crashes
#: on every attempt (retry-exhaustion tests).  Never set outside the
#: test suite.
CRASH_ONCE_ENV = "REPRO_RUNNER_CRASH_ONCE"


def _maybe_crash(exp_id: str) -> None:
    target, _, sentinel = os.environ.get(CRASH_ONCE_ENV, "").partition(":")
    if sentinel and exp_id == target:
        crash_once(sentinel)


def _shard_scope(spec: TaskSpec):
    """Pin the sharded-simulator worker count for this task, if any.

    Single-use (``forced_shards`` is a generator context manager), so
    each call site builds a fresh scope.
    """
    if spec.shards is None:
        return contextlib.nullcontext()
    from repro.sim.shard import forced_shards

    return forced_shards(spec.shards)


def execute_task(spec: TaskSpec) -> dict:
    """Run one experiment and return ``{"result": ..., "elapsed": ...}``.

    When ``spec.trace`` is set the experiment runs with the trace bus
    installed and the payload additionally carries ``"trace"``: the
    event stream (as plain dicts), its digest, and the flight
    recorder's drop count.  The digest is computed *here*, in the
    worker, so ``--jobs 1`` (in-process) and ``--jobs 4`` (subprocess)
    hash exactly the same bytes.
    """
    # Imported here, not at module top: the registry imports every
    # experiment module, and the runner package must stay importable
    # from lightweight contexts (analysis helpers, docs tooling).
    from repro.experiments.registry import run_experiment

    _maybe_crash(spec.exp_id)
    # wall-clock telemetry for the progress report, not simulated time
    start = time.perf_counter()  # repro: noqa-DET001
    trace_payload = None
    if spec.trace is None:
        with _shard_scope(spec):
            result = run_experiment(spec.exp_id, spec.config)
    else:
        from repro.trace.bus import TraceBus, tracing
        from repro.trace.events import events_digest

        sink = spec.trace.make_sink(
            stem=spec.artifact_stem,
            meta={
                "exp_id": spec.exp_id,
                "task": spec.label,
                "interval": spec.trace.interval,
            },
        )
        bus = TraceBus(sinks=[sink], probe_interval=spec.trace.interval)
        with _shard_scope(spec), tracing(bus):
            result = run_experiment(spec.exp_id, spec.config)
        if spec.trace.spill_dir is not None:
            # Spill mode: events already live on disk as a JSONL stream;
            # ship only the summary (path, incremental digest, counters)
            # back through the pool — the payload stays O(1) in event
            # count, which is the whole point for paper-profile runs.
            sink.finalize()
            trace_payload = {
                "jsonl": str(sink.path),
                "count": sink.written,
                "dropped": sink.dropped,
                "emitted": bus.emitted,
                "digest": sink.digest(),
                "peak_buffered": sink.peak_buffered,
            }
        else:
            events = [event.to_dict() for event in sink.events]
            trace_payload = {
                "events": events,
                "dropped": sink.dropped,
                "emitted": bus.emitted,
                "digest": events_digest(events),
            }
    payload = {
        "exp_id": spec.exp_id,
        "elapsed": time.perf_counter() - start,  # repro: noqa-DET001
        "result": result.to_dict(),
    }
    if trace_payload is not None:
        payload["trace"] = trace_payload
    return payload
