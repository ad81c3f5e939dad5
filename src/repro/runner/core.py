"""The pure scheduling core — no process machinery.

``run_tasks`` used to interleave three concerns in one loop: deciding
*what* runs (cache interplay, submission-order slotting), deciding
*when* a crashed task runs again (attempt accounting, exponential
backoff with RngFactory-derived jitter), and actually *running* things
on a process pool.  This module owns the first two as plain data and a
small state machine, so every execution surface — ``repro run``'s
campaign rounds, the ``repro serve`` daemon's one-task-at-a-time
dispatch, and any future remote executor — schedules identically:

* :func:`plan_campaign` — given specs and the cache, decide which
  slots are served from storage and which become pending work, in
  submission order;
* :class:`SchedulerCore` — the attempt ledger and retry policy: which
  crashed tasks may go around again, which exhaust the campaign, and
  exactly how long to back off before the next round.

Determinism contract: the backoff schedule depends only on
(``seed``, ``retry_backoff``) and the *number* of crash rounds — never
on worker count, wall-clock time, or completion order.  The property
tests in ``tests/test_runner_core.py`` pin this module's decisions to
the pre-split scheduler's behaviour across seeds and jobs levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import RunnerError
from repro.core.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runner.cache import ResultCache
    from repro.runner.tasks import TaskSpec

__all__ = [
    "RetryPolicy",
    "BackoffSchedule",
    "SchedulerCore",
    "CampaignPlan",
    "plan_campaign",
]

#: The scheduling-level RNG stream label (backoff jitter only —
#: experiment rows draw from ``HarnessConfig.seed``, never this).
JITTER_STREAM = "runner:retry-jitter"

#: Jitter amplitude: each delay stretches by up to +25%.
JITTER_FRACTION = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """How a campaign responds to worker crashes.

    Mirrors the retry knobs of
    :class:`~repro.runner.scheduler.RunnerConfig`; kept separate so the
    daemon (which has no RunnerConfig) can share the exact policy
    object.
    """

    #: Total tries per task before the campaign fails (1 = no retry).
    max_attempts: int = 3
    #: Base backoff before a retry round; doubles each round.
    backoff: float = 0.25
    #: Seed for the jitter stream.
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RunnerError("need max_attempts >= 1")
        if self.backoff < 0:
            raise RunnerError(f"need retry_backoff >= 0, got {self.backoff}")


class BackoffSchedule:
    """Deterministic exponential-backoff delay sequence with jitter.

    ``next_delay()`` yields the pre-split scheduler's exact formula:
    round *r* (1-based) waits ``backoff * 2**(r-1)`` stretched by up to
    +25% from the ``runner:retry-jitter`` stream of ``RngFactory(seed)``.
    One instance per campaign (or per daemon) — the stream advances one
    draw per crash round, which is what makes retry timing reproducible
    for a given crash history.
    """

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._jitter = RngFactory(seed=policy.seed).stream(JITTER_STREAM)
        self.rounds = 0

    def next_delay(self) -> float:
        self.rounds += 1
        delay = self.policy.backoff * 2 ** (self.rounds - 1)
        return delay * (1.0 + JITTER_FRACTION * float(self._jitter.random()))


class SchedulerCore:
    """Attempt ledger + retry decisions for one campaign.

    Drive it round by round::

        core.start_round(indices)          # every pending task tries once
        ... transport executes ...
        delay = core.crash_delay(crashed)  # 0+ seconds, or RunnerError

    The core never sleeps and never touches a pool — the caller applies
    ``delay`` with whatever waiting primitive its world has
    (``time.sleep`` in the process runner, ``asyncio.sleep`` in the
    daemon).
    """

    def __init__(self, policy: RetryPolicy | None = None) -> None:
        self.policy = policy or RetryPolicy()
        self.schedule = BackoffSchedule(self.policy)
        self._attempts: dict[int, int] = {}

    def attempts(self, index: int) -> int:
        return self._attempts.get(index, 0)

    def start_round(self, indices: list[int]) -> None:
        """Charge one attempt to every task in this round."""
        for index in indices:
            self._attempts[index] = self._attempts.get(index, 0) + 1

    def crash_delay(self, crashed: list[tuple[int, str]]) -> float:
        """Backoff before retrying ``crashed`` ``(index, exp_id)`` pairs.

        Raises :class:`RunnerError` naming every experiment that has
        exhausted its attempts; otherwise returns the next delay in the
        schedule.
        """
        dead = [
            exp_id
            for index, exp_id in crashed
            if self._attempts.get(index, 0) >= self.policy.max_attempts
        ]
        if dead:
            raise RunnerError(
                f"worker crashed {self.policy.max_attempts} times running "
                f"{', '.join(sorted(set(dead)))}; giving up"
            )
        return self.schedule.next_delay()


@dataclass
class CampaignPlan:
    """What :func:`plan_campaign` decided, in submission order."""

    #: ``(index, payload)`` — slots served straight from the cache.
    cached: list[tuple[int, dict]] = field(default_factory=list)
    #: ``(index, spec, key)`` — slots that must execute (``key`` is
    #: ``""`` when the cache is disabled).
    pending: list[tuple[int, "TaskSpec", str]] = field(default_factory=list)


def plan_campaign(
    specs: list["TaskSpec"],
    cache: "ResultCache | None",
    src_digest: str,
) -> CampaignPlan:
    """Split a campaign into cache hits and pending work.

    Pure given the cache's contents: iterates specs in submission
    order, keys each against (exp_id, config, source digest), and
    serves untraced hits from storage.  Traced tasks must actually
    execute — a cached payload has the rows but not the event stream —
    yet still keep their key so the (trace-independent) results are
    stored for later untraced campaigns.
    """
    from repro.runner.cache import cache_key

    plan = CampaignPlan()
    for index, spec in enumerate(specs):
        key = ""
        if cache is not None:
            key = cache_key(spec.exp_id, spec.config, src_digest)
            if spec.trace is None:
                doc = cache.get(key)
                if doc is not None:
                    plan.cached.append((index, doc))
                    continue
        plan.pending.append((index, spec, key))
    return plan
