"""The pure scheduling core, pinned to the pre-split scheduler.

The refactor that produced :mod:`repro.runner.core` and
:mod:`repro.runner.transport` must not change a single scheduling
decision: which slots the cache serves, what order pending work is
submitted in, how attempts are charged, when a campaign gives up, and
exactly how long each retry round backs off.  These tests replay the
pre-split ``_run_pool`` loop as an inline "legacy model" and require
the core to agree with it across seeds, policies, crash histories, and
``jobs`` ∈ {1, 2, 4}.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import RunnerError
from repro.core.rng import RngFactory
from repro.experiments.base import ExperimentResult
from repro.runner import (
    BackoffSchedule,
    PoolRoundTransport,
    RetryPolicy,
    RunnerConfig,
    SchedulerCore,
    TaskSpec,
    plan_campaign,
    run_tasks,
)
from repro.runner.cache import ResultCache, cache_key
from repro.runner.core import JITTER_FRACTION, JITTER_STREAM
from repro.runner.transport import InlineTransport
from repro.runner.worker import CRASH_ONCE_ENV
from repro.tools.harness import HarnessConfig
from repro.trace.bus import TraceSpec

from tests._golden import GOLDEN_CONFIG, load_golden

CFG = HarnessConfig(repetitions=2, duration=4.0, omit=1.0, tick=0.008)


# -- the legacy model ------------------------------------------------------
#
# A faithful inline replay of the decision-making of the pre-split
# scheduler's ``_run_pool`` (git history: the loop that owned attempts,
# the jitter stream, and the dead-task check before this module
# existed).  ``crash_counts[i]`` = how many times task i's worker dies
# before succeeding.


def legacy_decisions(
    exp_ids: list[str], crash_counts: list[int], policy: RetryPolicy
) -> tuple[dict[int, int], list[float]]:
    pending = list(range(len(exp_ids)))
    attempts = {i: 0 for i in pending}
    jitter_rng = RngFactory(seed=policy.seed).stream(JITTER_STREAM)
    retry_round = 0
    delays: list[float] = []
    round_no = 0
    while pending:
        for i in pending:
            attempts[i] += 1
        crashed = [i for i in pending if crash_counts[i] > round_no]
        if not crashed:
            break
        dead = [
            exp_ids[i] for i in crashed
            if attempts[i] >= policy.max_attempts
        ]
        if dead:
            raise RunnerError(
                f"worker crashed {policy.max_attempts} times running "
                f"{', '.join(sorted(set(dead)))}; giving up"
            )
        retry_round += 1
        delay = policy.backoff * 2 ** (retry_round - 1)
        delay *= 1.0 + 0.25 * float(jitter_rng.random())
        delays.append(delay)
        pending = crashed
        round_no += 1
    return attempts, delays


def core_decisions(
    exp_ids: list[str], crash_counts: list[int], policy: RetryPolicy
) -> tuple[dict[int, int], list[float]]:
    core = SchedulerCore(policy)
    pending = list(range(len(exp_ids)))
    delays: list[float] = []
    round_no = 0
    while pending:
        core.start_round(pending)
        crashed = [i for i in pending if crash_counts[i] > round_no]
        if not crashed:
            break
        delays.append(
            core.crash_delay([(i, exp_ids[i]) for i in crashed])
        )
        pending = crashed
        round_no += 1
    return {i: core.attempts(i) for i in range(len(exp_ids))}, delays


policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=5),
    backoff=st.floats(
        min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

crash_histories = st.lists(
    st.integers(min_value=0, max_value=6), min_size=1, max_size=8
)


class TestBackoffSchedule:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        backoff=st.floats(
            min_value=0.0, max_value=4.0,
            allow_nan=False, allow_infinity=False,
        ),
        rounds=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_legacy_formula(self, seed, backoff, rounds):
        schedule = BackoffSchedule(RetryPolicy(backoff=backoff, seed=seed))
        jitter_rng = RngFactory(seed=seed).stream(JITTER_STREAM)
        for retry_round in range(1, rounds + 1):
            expected = backoff * 2 ** (retry_round - 1)
            expected *= 1.0 + 0.25 * float(jitter_rng.random())
            assert schedule.next_delay() == expected

    def test_jitter_constants_are_the_legacy_ones(self):
        # The formula's magic numbers are part of the determinism
        # contract — changing either silently re-times every recorded
        # crash history.
        assert JITTER_STREAM == "runner:retry-jitter"
        assert JITTER_FRACTION == 0.25


class TestSchedulerCoreEquivalence:
    @given(policy=policies, crash_counts=crash_histories)
    @settings(max_examples=100, deadline=None)
    def test_decisions_match_legacy_model(self, policy, crash_counts):
        # Duplicate exp_ids on purpose: the give-up message sorts and
        # dedups names, and both models must agree on that too.
        exp_ids = [f"exp{i % 3}" for i in range(len(crash_counts))]
        try:
            legacy = legacy_decisions(exp_ids, crash_counts, policy)
        except RunnerError as exc:
            with pytest.raises(RunnerError) as caught:
                core_decisions(exp_ids, crash_counts, policy)
            assert str(caught.value) == str(exc)
            return
        assert core_decisions(exp_ids, crash_counts, policy) == legacy

    @given(
        policy=policies,
        crash_counts=crash_histories,
        jobs=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=50, deadline=None)
    def test_decisions_are_jobs_invariant(self, policy, crash_counts, jobs):
        # The core never sees the worker count: retry timing depends
        # only on (seed, backoff, crash rounds).  `jobs` is drawn and
        # deliberately unused by the model — this documents (and the
        # equivalence above enforces) that no decision can depend on it.
        exp_ids = [f"exp{i}" for i in range(len(crash_counts))]
        baseline = None
        outcome = None
        try:
            outcome = core_decisions(exp_ids, crash_counts, policy)
        except RunnerError as exc:
            outcome = ("error", str(exc))
        try:
            baseline = legacy_decisions(exp_ids, crash_counts, policy)
        except RunnerError as exc:
            baseline = ("error", str(exc))
        assert outcome == baseline


# -- plan_campaign against the legacy cache split --------------------------


def _fake_payload(exp_id: str) -> dict:
    result = ExperimentResult(
        exp_id=exp_id, title="T", paper_ref="Fig. 0",
        columns=["v"], rows=[{"v": 1.0}],
    )
    return {"exp_id": exp_id, "result": result.to_dict(), "elapsed": 0.0}


class TestPlanCampaign:
    @given(
        cached_mask=st.lists(st.booleans(), min_size=1, max_size=6),
        traced_mask=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_legacy_split(self, tmp_path_factory, cached_mask,
                                  traced_mask):
        tmp_path = tmp_path_factory.mktemp("plan")
        cache = ResultCache(tmp_path)
        src = "src0"
        specs = []
        for i, is_cached in enumerate(cached_mask):
            spec = TaskSpec(
                exp_id=f"exp{i}",
                config=CFG,
                trace=TraceSpec() if traced_mask[i] else None,
            )
            specs.append(spec)
            if is_cached:
                cache.put(
                    cache_key(spec.exp_id, spec.config, src),
                    _fake_payload(spec.exp_id),
                )

        plan = plan_campaign(specs, cache, src)

        # The legacy split, inline: submission order, traced tasks
        # always execute, untraced hits serve from storage.
        legacy_cached, legacy_pending = [], []
        for index, spec in enumerate(specs):
            key = cache_key(spec.exp_id, spec.config, src)
            if spec.trace is None:
                doc = ResultCache(tmp_path).get(key)
                if doc is not None:
                    legacy_cached.append((index, doc))
                    continue
            legacy_pending.append((index, spec, key))

        assert [(i, d) for i, d in plan.cached] == legacy_cached
        assert plan.pending == legacy_pending

    def test_no_cache_means_everything_pends_with_empty_keys(self):
        specs = [TaskSpec(exp_id=f"exp{i}", config=CFG) for i in range(3)]
        plan = plan_campaign(specs, None, "")
        assert plan.cached == []
        assert plan.pending == [(i, specs[i], "") for i in range(3)]


# -- the full loop through run_tasks, transport injected -------------------


class ScriptedTransport:
    """Transport double: task *i* crashes ``crash_counts[i]`` rounds."""

    def __init__(self, crash_counts: dict[int, int]) -> None:
        self.crash_counts = dict(crash_counts)
        self.rounds: list[list[int]] = []
        self.round_no = 0
        self.closed = False

    def run_round(self, pending: list) -> tuple[dict, list]:
        self.rounds.append([index for index, _, _ in pending])
        results, crashed = {}, []
        for index, spec, key in pending:
            if self.crash_counts.get(index, 0) > self.round_no:
                crashed.append((index, spec, key))
            else:
                results[index] = _fake_payload(spec.exp_id)
        self.round_no += 1
        return results, crashed

    def close(self) -> None:
        self.closed = True


class TestRunTasksScheduleParity:
    CRASHES = {0: 2, 2: 1}  # task 0 dies twice, task 2 once, others never

    def _campaign(self, jobs: int, monkeypatch) -> tuple:
        sleeps: list[float] = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        specs = [TaskSpec(exp_id=f"exp{i}", config=CFG) for i in range(4)]
        transport = ScriptedTransport(self.CRASHES)
        report = run_tasks(
            specs,
            RunnerConfig(jobs=jobs, use_cache=False),
            transport=transport,
        )
        return report, transport, sleeps

    def test_identical_schedule_across_jobs_levels(self, monkeypatch):
        outcomes = {}
        for jobs in (1, 2, 4):
            report, transport, sleeps = self._campaign(jobs, monkeypatch)
            outcomes[jobs] = {
                "digests": [t.result.digest() for t in report.tasks],
                "attempts": [t.attempts for t in report.tasks],
                "rounds": transport.rounds,
                "sleeps": sleeps,
            }
        assert outcomes[1] == outcomes[2] == outcomes[4]
        # And the shape is the legacy one: three rounds, slots in
        # submission order, crashers re-queued in submission order.
        assert outcomes[1]["rounds"] == [[0, 1, 2, 3], [0, 2], [0]]
        assert outcomes[1]["attempts"] == [3, 1, 2, 1]

    def test_sleeps_follow_the_legacy_backoff_sequence(self, monkeypatch):
        _report, _transport, sleeps = self._campaign(2, monkeypatch)
        policy = RunnerConfig().retry_policy()
        jitter_rng = RngFactory(seed=policy.seed).stream(JITTER_STREAM)
        expected = []
        for retry_round in (1, 2):
            delay = policy.backoff * 2 ** (retry_round - 1)
            expected.append(delay * (1.0 + 0.25 * float(jitter_rng.random())))
        assert sleeps == expected

    def test_exhaustion_raises_the_legacy_message(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _d: None)
        specs = [TaskSpec(exp_id="doomed", config=CFG)]
        with pytest.raises(
            RunnerError,
            match=r"worker crashed 2 times running doomed; giving up",
        ):
            run_tasks(
                specs,
                RunnerConfig(jobs=2, use_cache=False, max_attempts=2),
                transport=ScriptedTransport({0: 99}),
            )

    def test_caller_owned_transport_stays_open(self, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _d: None)
        transport = ScriptedTransport({})
        run_tasks(
            [TaskSpec(exp_id="exp0", config=CFG)],
            RunnerConfig(jobs=1, use_cache=False),
            transport=transport,
        )
        assert not transport.closed  # the daemon keeps its pool


# -- transports against real workers ---------------------------------------


class TestTransports:
    def test_inline_transport_runs_in_submission_order(self):
        specs = [TaskSpec(exp_id="var", config=GOLDEN_CONFIG)]
        results, crashed = InlineTransport().run_round(
            [(0, specs[0], "")]
        )
        assert crashed == []
        digest = ExperimentResult.from_dict(results[0]["result"]).digest()
        assert digest == load_golden("var")["digest"]

    def test_persistent_pool_is_reused_across_rounds(self):
        transport = PoolRoundTransport(jobs=2)
        try:
            spec = TaskSpec(exp_id="var", config=GOLDEN_CONFIG)
            first, _ = transport.run_round([(0, spec, "")])
            pool = transport._pool
            second, _ = transport.run_round([(0, spec, "")])
            assert transport._pool is pool  # same warm pool, no rebuild
            assert transport.rebuilds == 0
            assert transport.dispatched == 2
            a = ExperimentResult.from_dict(first[0]["result"]).digest()
            b = ExperimentResult.from_dict(second[0]["result"]).digest()
            assert a == b == load_golden("var")["digest"]
        finally:
            transport.close()

    def test_persistent_pool_discards_on_crash_and_recovers(
        self, tmp_path, monkeypatch
    ):
        sentinel = tmp_path / "crashed-once"
        monkeypatch.setenv(CRASH_ONCE_ENV, f"var:{sentinel}")
        transport = PoolRoundTransport(jobs=2)
        try:
            spec = TaskSpec(exp_id="var", config=GOLDEN_CONFIG)
            pending = [(0, spec, "")]
            results, crashed = transport.run_round(pending)
            assert sentinel.exists()  # the crash really happened
            assert results == {} and crashed == pending
            assert transport.rebuilds == 1  # broken pool discarded
            results, crashed = transport.run_round(pending)
            assert crashed == []
            digest = ExperimentResult.from_dict(
                results[0]["result"]
            ).digest()
            assert digest == load_golden("var")["digest"]
        finally:
            transport.close()

    def test_run_tasks_digest_parity_across_transports(self):
        # The acceptance invariant, at the runner level: the persistent
        # warm pool (the daemon's transport) must produce byte-identical
        # results to the inline baseline.
        specs = [TaskSpec(exp_id="var", config=GOLDEN_CONFIG)]
        inline = run_tasks(specs, RunnerConfig(jobs=1, use_cache=False))
        persistent = PoolRoundTransport(jobs=2)
        try:
            warm = run_tasks(
                specs,
                RunnerConfig(jobs=2, use_cache=False),
                transport=persistent,
            )
        finally:
            persistent.close()
        assert (
            inline.tasks[0].result.digest()
            == warm.tasks[0].result.digest()
            == load_golden("var")["digest"]
        )
