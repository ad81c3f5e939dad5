"""Parallel experiment runner with a content-addressed result cache.

The paper's evaluation is a grid of independent, deterministic runs;
this package schedules them across worker processes and memoizes their
results on disk, keyed by (experiment id, canonical harness config,
source digest of ``src/repro``).  Entry points:

* :func:`run_experiments` / :func:`run_tasks` — campaign API used by
  ``repro run``, the EXPERIMENTS.md generator, and the benchmarks;
* :class:`InlineTransport` / :class:`PoolRoundTransport` — the two
  places a task can run: in-process, or on one warm process pool that
  ``repro run -j N`` and ``repro serve`` share;
* :mod:`repro.runner.cache` — the content-addressed store itself.

Parallelism is an implementation detail: the characterization tests in
``tests/test_runner_golden.py`` pin serial, parallel, and cache-hit
campaigns to identical per-experiment row digests.
"""

from repro.runner.cache import (
    ResultCache,
    cache_key,
    canonical_json,
    default_cache_dir,
    source_digest,
)
from repro.runner.core import (
    BackoffSchedule,
    CampaignPlan,
    RetryPolicy,
    SchedulerCore,
    plan_campaign,
)
from repro.runner.scheduler import RunnerConfig, run_experiments, run_tasks
from repro.runner.tasks import RunReport, TaskResult, TaskSpec, task_seed
from repro.runner.transport import InlineTransport, PoolRoundTransport

__all__ = [
    "BackoffSchedule",
    "CampaignPlan",
    "InlineTransport",
    "PoolRoundTransport",
    "RetryPolicy",
    "SchedulerCore",
    "plan_campaign",
    "ResultCache",
    "RunReport",
    "RunnerConfig",
    "TaskResult",
    "TaskSpec",
    "cache_key",
    "canonical_json",
    "default_cache_dir",
    "run_experiments",
    "run_tasks",
    "source_digest",
    "task_seed",
]
