"""Execution transports: where pending tasks actually run.

The scheduling core (:mod:`repro.runner.core`) decides *what* runs and
*when to retry*; a transport decides *where*.  Both transports
implement the same two-method surface::

    run_round(pending) -> (results, crashed)
    close()

``pending`` is the core's ``(index, spec, key)`` triple list;
``results`` maps index → worker payload for every task that finished
this round (successfully or by raising — deterministic experiment
exceptions propagate out of ``run_round`` exactly as a serial run would
raise them); ``crashed`` lists the triples whose worker *process* died
(OOM killer, segfaulting native code) and that the core may schedule
again.

* :class:`InlineTransport` — no processes at all (``--jobs 1``): the
  behavioural baseline.
* :class:`PoolRoundTransport` — one warm process pool, built on first
  dispatch and reused across rounds (and, for a caller-owned transport
  such as the ``repro serve`` daemon's, across campaigns), with a
  ``submit()`` surface for request-at-a-time dispatch.  ``repro run
  -j N`` and ``repro serve`` both run on it.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.core.errors import RunnerError
from repro.runner.worker import execute_task

__all__ = [
    "InlineTransport",
    "PoolRoundTransport",
    "pool_context",
    "warm_worker",
]


def pool_context():
    """The multiprocessing context the runner uses for worker pools.

    ``fork`` where available (Linux): workers inherit the parent's
    modules and ``sys.path``.  Elsewhere, the platform default.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


def warm_worker() -> None:
    """Pool initializer: pre-import the heavy modules a task touches.

    Under the ``fork`` start method children inherit the parent's
    modules anyway; this keeps the warm-pool guarantee explicit (and
    real on spawn platforms): by the time a worker accepts its first
    task, numpy, every experiment class, and the vector kernels are
    already imported.
    """
    import numpy  # noqa: F401

    import repro.experiments.registry  # noqa: F401
    import repro.sim.kernels  # noqa: F401
    import repro.tcp.cc.batch  # noqa: F401


class InlineTransport:
    """Run everything in-process, in submission order (``--jobs 1``)."""

    def run_round(self, pending: list) -> tuple[dict, list]:
        results = {}
        for index, spec, _key in pending:
            results[index] = execute_task(spec)
        return results, []

    def close(self) -> None:  # nothing to tear down
        pass


class PoolRoundTransport:
    """One warm process pool, reused until it breaks or is closed.

    The pool is built lazily on first dispatch: :meth:`run_round`
    sizes it to ``min(jobs, len(pending))``, :meth:`submit` to
    ``jobs``.  It then survives until :meth:`close`, so every round
    after the first is served by workers that have already paid
    interpreter start-up and imports.  A dying worker breaks the pool
    (``BrokenProcessPool``); the transport discards it and the next
    dispatch builds a fresh one (``rebuilds`` counts how often — the
    daemon's ``/stats`` surfaces it).

    Two surfaces:

    * :meth:`run_round` — the scheduler-core round protocol used by
      :func:`~repro.runner.scheduler.run_tasks`;
    * :meth:`submit` — request-at-a-time dispatch returning the raw
      :class:`~concurrent.futures.Future`, which the asyncio daemon
      wraps with ``asyncio.wrap_future``.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise RunnerError("need jobs >= 1")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        #: Tasks handed to a worker process over this transport's life.
        self.dispatched = 0
        #: Times a broken pool was discarded.
        self.rebuilds = 0

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=pool_context(),
                initializer=warm_worker,
            )
        return self._pool

    def submit(self, spec) -> Future:
        """Dispatch one task to the warm pool."""
        self.dispatched += 1
        return self._ensure_pool(self.jobs).submit(execute_task, spec)

    def discard_pool(self) -> None:
        """Drop a (presumed broken) pool; the next dispatch rebuilds."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self.rebuilds += 1

    def run_round(self, pending: list) -> tuple[dict, list]:
        """Fan ``pending`` out on the pool; separate finishers from crashes.

        Deterministic exceptions raised *by the experiment* re-raise
        here, exactly as a serial run would, and leave the (healthy)
        pool in place; only a dying worker process lands a task in the
        crashed list.
        """
        pool = self._ensure_pool(min(self.jobs, len(pending)))
        self.dispatched += len(pending)
        try:
            futures = {
                pool.submit(execute_task, spec): (index, spec, key)
                for index, spec, key in pending
            }
        except BrokenProcessPool:  # submit() on an already-broken pool
            self.discard_pool()
            raise
        results: dict[int, dict] = {}
        crashed: list = []
        not_done = set(futures)
        while not_done:
            done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
            for fut in done:
                index, spec, key = futures[fut]
                try:
                    results[index] = fut.result()
                except BrokenProcessPool:
                    crashed.append((index, spec, key))
        if crashed:
            self.discard_pool()
        return results, crashed

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
