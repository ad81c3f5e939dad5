"""The campaign scheduler: pure core + pluggable transport.

``run_tasks`` fans :class:`~repro.runner.tasks.TaskSpec`\\ s out across
an execution transport and returns a
:class:`~repro.runner.tasks.RunReport` in submission order.  The
decisions live in :mod:`repro.runner.core` (what runs, what the cache
serves, how crashed tasks retry); the machinery lives in
:mod:`repro.runner.transport` (in-process, or one warm process pool
that is discarded and rebuilt when a worker dies).  Three properties
the test net locks down:

* **Determinism** — a task's rows depend only on (code, exp_id,
  config); worker count, transport choice, submission order, and
  completion order cannot change a single number.  Results are slotted
  back by submission index, never by completion order.
* **Cache transparency** — with the content-addressed cache enabled,
  hits skip execution entirely and return rows bit-identical to a
  fresh run (golden tests compare digests across serial, parallel, and
  cache-hit campaigns).
* **Crash containment** — a dying worker (OOM-killed, segfaulting
  native code) breaks a :mod:`concurrent.futures` pool; the transport
  reports the casualties, the core charges their attempts and prices
  the backoff (exponential with RngFactory-derived jitter), and the
  loop retries them.  Deterministic experiment *exceptions* are never
  retried — they propagate exactly as a serial run would raise them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.errors import ConfigurationError, RunnerError
from repro.experiments.base import ExperimentResult
from repro.runner.cache import (
    ResultCache,
    cache_entry,
    default_cache_dir,
    source_digest,
)
from repro.runner.core import RetryPolicy, SchedulerCore, plan_campaign
from repro.runner.tasks import RunReport, TaskResult, TaskSpec
from repro.runner.transport import InlineTransport, PoolRoundTransport
from repro.tools.harness import HarnessConfig
from repro.trace.bus import TraceSpec

__all__ = ["RunnerConfig", "run_tasks", "run_experiments"]


@dataclass(frozen=True)
class RunnerConfig:
    """Scheduling policy for one campaign."""

    #: Worker processes; 1 runs everything in-process (no pool at all).
    jobs: int = 1
    #: Cache location; ``None`` means :func:`default_cache_dir`.
    cache_dir: Path | None = None
    #: ``False`` disables both lookups and stores (``--no-cache``).
    use_cache: bool = True
    #: Total tries per task before the campaign fails (1 = no retry).
    max_attempts: int = 3
    #: Base backoff before a retry round; doubles each round.
    retry_backoff: float = 0.25
    #: Seed for scheduling-level randomness (backoff jitter) only —
    #: experiment rows draw from ``HarnessConfig.seed``, never this.
    seed: int = 2024
    #: When set, every spec in the campaign runs traced (see
    #: :meth:`run_experiments`); traced tasks never read the cache.
    trace: TraceSpec | None = None
    #: Where to persist per-task trace artifacts; ``None`` puts them
    #: under the cache directory's ``traces/`` subtree.
    trace_dir: Path | None = None
    #: When set, every task pins the sharded simulator to this many
    #: shard workers (``repro run --shards N``); ``None`` leaves the
    #: ambient ``REPRO_SIM_SHARDS`` selection in force.
    shards: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise RunnerError("need jobs >= 1")
        if self.shards is not None and self.shards < 1:
            raise RunnerError("need shards >= 1")
        # Delegates the retry-knob validation (same messages as ever).
        self.retry_policy()

    def retry_policy(self) -> RetryPolicy:
        """This config's crash-retry policy, in the core's terms."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff=self.retry_backoff,
            seed=self.seed,
        )


def _result_from_payload(payload: dict) -> ExperimentResult:
    return ExperimentResult.from_dict(payload["result"])


def _trace_meta(spec: TaskSpec, raw: dict) -> dict:
    """The ``otherData`` metadata both export paths stamp on artifacts."""
    return {
        "exp_id": spec.exp_id,
        "task": spec.label,
        "dropped": raw["dropped"],
        "emitted": raw["emitted"],
    }


def _trace_summary(spec: TaskSpec, payload: dict, store_dir: Path | None) -> dict | None:
    """Turn a worker's trace payload into the :class:`TaskResult` form.

    Handles both worker payload shapes.  In-memory mode (``"events"``):
    builds the Perfetto document here.  Spill mode (``"jsonl"``): the
    events live on disk; the Perfetto artifact, when persisted, is
    produced by the streaming exporter without materializing them.
    Either way the artifact file name comes from
    :attr:`TaskSpec.artifact_stem` — sanitized and content-keyed, so
    same-label specs cannot silently overwrite each other and labels
    cannot smuggle path separators — and lands via atomic rename, like
    the cache's own writes.  Returns ``{"doc", "events", "jsonl",
    "count", "digest", "dropped", "emitted", "peak_buffered", "path"}``.
    """
    raw = payload.get("trace")
    if raw is None:
        return None

    path = None
    if raw.get("jsonl") is not None:
        if store_dir is not None:
            from repro.trace.stream import stream_perfetto

            store_dir.mkdir(parents=True, exist_ok=True)
            path = store_dir / f"{spec.artifact_stem}.trace.json"
            tmp = path.with_name(path.name + ".tmp")
            stream_perfetto(raw["jsonl"], tmp, meta=_trace_meta(spec, raw))
            tmp.replace(path)
        return {
            "doc": None,
            "events": None,
            "jsonl": Path(raw["jsonl"]),
            "count": raw["count"],
            "digest": raw["digest"],
            "dropped": raw["dropped"],
            "emitted": raw["emitted"],
            "peak_buffered": raw["peak_buffered"],
            "path": path,
        }

    from repro.trace.export import dump_perfetto, to_perfetto

    doc = to_perfetto(raw["events"], meta=_trace_meta(spec, raw))
    if store_dir is not None:
        store_dir.mkdir(parents=True, exist_ok=True)
        path = store_dir / f"{spec.artifact_stem}.trace.json"
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(dump_perfetto(doc))
        tmp.replace(path)
    return {
        "doc": doc,
        "events": raw["events"],
        "jsonl": None,
        "count": len(raw["events"]),
        "digest": raw["digest"],
        "dropped": raw["dropped"],
        "emitted": raw["emitted"],
        "peak_buffered": None,
        "path": path,
    }


def _default_transport(runner: RunnerConfig):
    if runner.jobs == 1:
        return InlineTransport()
    return PoolRoundTransport(runner.jobs)


def run_tasks(
    specs: list[TaskSpec],
    runner: RunnerConfig | None = None,
    transport=None,
) -> RunReport:
    """Run a campaign of tasks; results come back in submission order.

    ``transport`` overrides the execution surface (default: in-process
    for ``jobs=1``, a :class:`~repro.runner.transport.PoolRoundTransport`
    otherwise).  A caller-owned transport is left open on return;
    transports built here are closed here.
    """
    runner = runner or RunnerConfig()
    # wall-clock here times the campaign for the report, never a
    # simulated quantity
    start = time.perf_counter()  # repro: noqa-DET001
    slots: list[TaskResult | None] = [None] * len(specs)

    cache = None
    src_digest = ""
    if runner.use_cache:
        cache = ResultCache(runner.cache_dir or default_cache_dir())
        src_digest = source_digest()

    store_dir = None
    if any(spec.trace is not None for spec in specs):
        if runner.trace_dir is not None:
            store_dir = runner.trace_dir
        elif cache is not None:
            store_dir = cache.root / "traces"

    plan = plan_campaign(specs, cache, src_digest)
    for index, doc in plan.cached:
        slots[index] = TaskResult(
            spec=specs[index],
            result=_result_from_payload(doc),
            cached=True,
            attempts=0,
            elapsed=0.0,
        )

    core = SchedulerCore(runner.retry_policy())
    owns_transport = transport is None
    if owns_transport:
        transport = _default_transport(runner)
    try:
        pending = plan.pending
        while pending:
            core.start_round([index for index, _, _ in pending])
            results, crashed = transport.run_round(pending)
            for index, spec, _key in pending:
                payload = results.get(index)
                if payload is None:
                    continue
                slots[index] = TaskResult(
                    spec=spec,
                    result=_result_from_payload(payload),
                    cached=False,
                    attempts=core.attempts(index),
                    elapsed=payload["elapsed"],
                    trace=_trace_summary(spec, payload, store_dir),
                )
            if not crashed:
                break
            delay = core.crash_delay(
                [(index, spec.exp_id) for index, spec, _ in crashed]
            )
            time.sleep(delay)
            pending = crashed
    finally:
        if owns_transport:
            transport.close()

    if cache is not None:
        for index, spec, key in plan.pending:
            task = slots[index]
            cache.put(
                key,
                cache_entry(
                    spec.exp_id,
                    spec.config,
                    src_digest,
                    task.elapsed,
                    task.result.to_dict(),
                ),
            )

    return RunReport(
        tasks=list(slots),
        jobs=runner.jobs,
        wall_time=time.perf_counter() - start,  # repro: noqa-DET001
    )


def run_experiments(
    exp_ids: list[str] | None = None,
    config: HarnessConfig | None = None,
    runner: RunnerConfig | None = None,
) -> RunReport:
    """Run registered experiments (all of them by default) as one campaign."""
    from repro.experiments.registry import REGISTRY, all_experiment_ids

    ids = list(exp_ids) if exp_ids else all_experiment_ids()
    unknown = [i for i in ids if i not in REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment ids {unknown}; have {all_experiment_ids()}"
        )
    config = config or HarnessConfig.bench()
    runner = runner or RunnerConfig()
    specs = [
        TaskSpec(
            exp_id=exp_id,
            config=config,
            trace=runner.trace,
            shards=runner.shards,
        )
        for exp_id in ids
    ]
    return run_tasks(specs, runner)
