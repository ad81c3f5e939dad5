"""Discrete-event simulation kernel.

A small, dependency-free event engine in the style of SimPy, sized for
the micro-level simulations in this package (pause-frame exchanges, NIC
ring dynamics, pacing release schedules) and for driving the tick-based
fluid flow simulator.

Design notes
------------
* Events are ``(time, priority, seq, callback)`` tuples in a binary heap.
  ``seq`` is a monotonically increasing tie-breaker so simultaneous
  events run in schedule order, which keeps runs deterministic.
* Time is a float in seconds.  The engine refuses to schedule into the
  past; that is always a bug in the caller.
* Callbacks are plain callables; a caller that needs a sequence of steps
  schedules the next one from inside the current callback.
* The engine is deliberately single-threaded: determinism and
  reproducibility matter more here than parallel speedup, and the hot
  paths of the package (the fluid simulator) are vectorized with numpy
  rather than parallelized.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.errors import SimulationError
from repro.trace.bus import active as trace_active

__all__ = ["Event", "Engine"]


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by (time, priority, seq)."""

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes.

        Cancelling is O(1); the dead entry is discarded lazily when it
        reaches the top of the heap.
        """
        self.cancelled = True


class Engine:
    """The event loop.

    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(1.5, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.5]
    """

    def __init__(self, sanitize: bool | None = None) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0
        # Imported at construction time, not module time: repro.sim
        # depends on repro.core, so the reverse import must stay lazy.
        from repro.sim.sanitizer import SimSanitizer, enabled

        want = enabled() if sanitize is None else sanitize
        self._sanitizer = SimSanitizer(context="engine") if want else None

    @property
    def sanitizer(self):
        """The attached :class:`~repro.sim.sanitizer.SimSanitizer`, or None."""
        return self._sanitizer

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def processed(self) -> int:
        """Total events executed since construction."""
        return self._processed

    # -- scheduling --------------------------------------------------------

    def schedule(
        self,
        when: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run at absolute time ``when``.

        Lower ``priority`` values run first among events at the same
        time.  Returns the :class:`Event`, which can be cancelled.
        """
        if math.isnan(when):
            raise SimulationError("cannot schedule at NaN time")
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past: now={self._now!r}, when={when!r}"
            )
        event = Event(when, priority, next(self._seq), callback)
        heapq.heappush(self._heap, event)
        return event

    def call_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.schedule(self._now + delay, callback, priority)

    # -- running -----------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event.  Returns False when none remain."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if self._sanitizer is not None:
                self._sanitizer.check_time(event.time)
            bus = trace_active()
            if bus is not None:
                bus.set_time(event.time)
                bus.emit(
                    "engine",
                    "engine.dispatch",
                    seq=event.seq,
                    priority=event.priority,
                )
            self._now = event.time
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        With ``until`` set, the clock is advanced to exactly ``until``
        when the run stops there, so a following ``run`` call resumes
        seamlessly.  ``max_events`` is a guard against runaway schedules
        in tests.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant")
        self._running = True
        executed = 0
        try:
            while self._heap:
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and head.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway schedule?)"
                    )
                if not self.step():
                    break
                executed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        self._heap.clear()
        self._now = 0.0
        if self._sanitizer is not None:
            self._sanitizer.reset_clock()
