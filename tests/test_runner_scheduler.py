"""Scheduler behaviour: retries, errors, seed derivation."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, RunnerError
from repro.runner import (
    RunnerConfig,
    TaskSpec,
    run_experiments,
    run_tasks,
    task_seed,
)
from repro.runner.worker import CRASH_ONCE_ENV

from tests._golden import GOLDEN_CONFIG, load_golden


class TestRunnerConfig:
    def test_rejects_zero_jobs(self):
        with pytest.raises(RunnerError):
            RunnerConfig(jobs=0)

    def test_rejects_zero_attempts(self):
        with pytest.raises(RunnerError):
            RunnerConfig(max_attempts=0)

    def test_rejects_negative_retry_backoff(self):
        # A negative backoff used to slip through and reach time.sleep,
        # which raises deep inside the retry loop mid-campaign.
        with pytest.raises(RunnerError, match="retry_backoff"):
            RunnerConfig(retry_backoff=-0.25)

    def test_zero_retry_backoff_is_allowed(self):
        assert RunnerConfig(retry_backoff=0.0).retry_backoff == 0.0


class TestValidation:
    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(ConfigurationError, match="fig99"):
            run_experiments(["fig05", "fig99"], config=GOLDEN_CONFIG)

    def test_empty_campaign(self):
        report = run_tasks([], RunnerConfig(use_cache=False))
        assert report.tasks == [] and not report.all_cached


class TestCrashRetry:
    def test_crashed_worker_is_retried_and_recovers(
        self, tmp_path, monkeypatch
    ):
        sentinel = tmp_path / "crashed-once"
        monkeypatch.setenv(CRASH_ONCE_ENV, f"var:{sentinel}")
        report = run_experiments(
            ["var"],
            config=GOLDEN_CONFIG,
            runner=RunnerConfig(jobs=2, use_cache=False, retry_backoff=0.01),
        )
        assert sentinel.exists()  # the crash really happened
        task = report.by_id("var")
        assert task.attempts == 2
        # and the retried result is still bit-identical to golden
        assert task.result.digest() == load_golden("var")["digest"]

    def test_crash_exhaustion_raises_runner_error(self, monkeypatch):
        monkeypatch.setenv(CRASH_ONCE_ENV, "var:always")
        with pytest.raises(RunnerError, match="var"):
            run_experiments(
                ["var"],
                config=GOLDEN_CONFIG,
                runner=RunnerConfig(
                    jobs=2, use_cache=False, max_attempts=2, retry_backoff=0.01
                ),
            )

    def test_deterministic_experiment_error_propagates_unwrapped(self):
        # an unknown id raises before any pool is built; a worker-side
        # ConfigurationError would pickle back and re-raise the same way
        with pytest.raises(ConfigurationError):
            run_tasks(
                [TaskSpec("no-such-exp", GOLDEN_CONFIG)],
                RunnerConfig(jobs=2, use_cache=False),
            )


class TestTaskSeed:
    def test_deterministic_and_label_sensitive(self):
        assert task_seed(2024, "a") == task_seed(2024, "a")
        assert task_seed(2024, "a") != task_seed(2024, "b")
        assert task_seed(2024, "a") != task_seed(2025, "a")

    def test_spec_labels_distinguish_config(self):
        import dataclasses

        a = TaskSpec("fig05", GOLDEN_CONFIG)
        b = TaskSpec(
            "fig05", dataclasses.replace(GOLDEN_CONFIG, repetitions=3)
        )
        assert a.label != b.label
