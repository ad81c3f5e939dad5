"""Task and report types for the parallel experiment runner.

A :class:`TaskSpec` is the unit of scheduling: one experiment id plus
the :class:`~repro.tools.harness.HarnessConfig` it runs under.  Specs
are small frozen dataclasses so they pickle cheaply to worker
processes, and their labels feed the deterministic per-task seed
derivation (see :func:`task_seed`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.rng import RngFactory
from repro.experiments.base import ExperimentResult
from repro.runner.cache import cache_key
from repro.tools.harness import HarnessConfig
from repro.trace.bus import TraceSpec

__all__ = ["TaskSpec", "TaskResult", "RunReport", "sanitize_label", "task_seed"]

_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._@+=-]")


def sanitize_label(label: str) -> str:
    """Filesystem-safe form of a task label.

    Labels embed ``exp_id``\\ s, which ``run_tasks`` accepts as arbitrary
    strings — a ``/`` (or ``..``) in one must not turn an artifact
    write into a path escape.  Anything outside a conservative
    portable-filename set becomes ``_``, leading dots are stripped
    (no hidden files), and the result is length-capped.
    """
    safe = _UNSAFE_CHARS.sub("_", label).lstrip(".")
    return safe[:100] or "task"


def task_seed(root_seed: int, label: str) -> int:
    """Deterministic seed for one task, derived via :class:`RngFactory`.

    Forking the factory keyed by the task label gives every task its own
    collision-checked namespace — the same derivation the simulator uses
    for per-subsystem streams, so scheduling-level randomness (retry
    backoff jitter) stays reproducible however tasks are ordered or
    distributed across workers.
    """
    return RngFactory(seed=root_seed).fork(f"task:{label}").seed


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: an experiment id under a harness config."""

    exp_id: str
    config: HarnessConfig
    #: When set, the worker runs the experiment under the trace bus and
    #: ships the event stream back in its payload.  Traced tasks never
    #: read the result cache (cached payloads carry no events), though
    #: their results are still stored — tracing does not change them.
    trace: TraceSpec | None = None
    #: When set, the worker pins the sharded-simulator worker count
    #: (:func:`repro.sim.shard.forced_shards`) for the run.  Deliberately
    #: absent from the label and cache key: sharded results are
    #: byte-identical for every shard count (the parity invariant), so a
    #: cached 1-shard row set *is* the 4-shard row set.
    shards: int | None = None

    @property
    def label(self) -> str:
        cfg = self.config
        return (
            f"{self.exp_id}@r{cfg.repetitions}d{cfg.duration:g}"
            f"o{cfg.omit:g}t{cfg.tick:g}s{cfg.seed}"
        )

    @property
    def artifact_stem(self) -> str:
        """Collision-free filesystem stem for this spec's artifacts.

        The sanitized label (human-readable) plus the first 8 hex chars
        of the spec's content key — :func:`~repro.runner.cache.cache_key`
        over (exp_id, config) with an empty source digest, so names stay
        stable across code edits.  Two specs whose labels collide after
        sanitization (or that differ only in fields the label omits)
        still get distinct artifact files instead of silently
        overwriting each other.
        """
        return (
            f"{sanitize_label(self.label)}-"
            f"{cache_key(self.exp_id, self.config, '')[:8]}"
        )


@dataclass
class TaskResult:
    """Outcome of one task, with provenance for the cache tests."""

    spec: TaskSpec
    result: ExperimentResult
    cached: bool = False
    attempts: int = 1
    elapsed: float = 0.0
    #: Traced tasks only: {"doc", "events", "digest", "dropped", "path"}
    #: — the Perfetto document, raw event dicts, stream digest, flight-
    #: recorder drop count, and the persisted artifact path (or None).
    trace: dict | None = None


@dataclass
class RunReport:
    """All task results of one campaign, in submission order."""

    tasks: list[TaskResult] = field(default_factory=list)
    jobs: int = 1
    wall_time: float = 0.0

    @property
    def results(self) -> list[ExperimentResult]:
        return [t.result for t in self.tasks]

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.tasks if t.cached)

    @property
    def executed(self) -> int:
        return sum(1 for t in self.tasks if not t.cached)

    @property
    def all_cached(self) -> bool:
        return bool(self.tasks) and self.executed == 0

    def by_id(self, exp_id: str) -> TaskResult:
        for t in self.tasks:
            if t.spec.exp_id == exp_id:
                return t
        raise KeyError(f"no task for experiment {exp_id!r} in this report")

    def summary(self) -> str:
        n = len(self.tasks)
        return (
            f"runner: {n} task{'s' if n != 1 else ''} | jobs={self.jobs} | "
            f"{self.executed} executed, {self.cache_hits} cached | "
            f"{self.wall_time:.1f}s"
        )
