"""Asyncio façade over the runner's warm process pool.

The daemon dispatches one task at a time (requests arrive singly, not
as campaigns), so instead of the scheduler's round protocol it wraps
:meth:`PoolRoundTransport.submit` futures with
``asyncio.wrap_future`` and applies the *same* crash-retry policy the
process runner uses — :class:`~repro.runner.core.RetryPolicy` pricing
delays through :class:`~repro.runner.core.BackoffSchedule` — with
``await asyncio.sleep`` instead of ``time.sleep``.  One scheduler
brain, two waiting primitives.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool

from repro.core.errors import RunnerError
from repro.runner.core import BackoffSchedule, RetryPolicy
from repro.runner.tasks import TaskSpec
from repro.runner.transport import PoolRoundTransport

__all__ = ["AsyncWorkerPool"]


class AsyncWorkerPool:
    """Awaitable task execution on a shared warm process pool."""

    def __init__(self, transport: PoolRoundTransport) -> None:
        self.transport = transport
        self.policy = RetryPolicy()
        self._schedule = BackoffSchedule(self.policy)

    async def run(self, spec: TaskSpec) -> dict:
        """Execute one task; returns the worker payload.

        A worker-process death (``BrokenProcessPool``) discards the
        pool and retries after the deterministic backoff, up to the
        policy's attempt budget; deterministic experiment exceptions
        propagate on the first try, exactly like the process runner.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                # A pool another request's crash broke, and that request
                # has not discarded yet, raises from submit itself.
                future = self.transport.submit(spec)
                return await asyncio.wrap_future(future)
            except BrokenProcessPool:
                self.transport.discard_pool()
                if attempts >= self.policy.max_attempts:
                    raise RunnerError(
                        f"worker crashed {self.policy.max_attempts} times "
                        f"running {spec.exp_id}; giving up"
                    ) from None
                await asyncio.sleep(self._schedule.next_delay())
