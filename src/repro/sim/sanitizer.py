"""Opt-in runtime simulation sanitizer.

The static checks in :mod:`repro.lint` catch invariant violations that
are visible in the source; this module catches the ones that only show
up while a simulation is running.  When enabled it asserts, on every
tick/event:

* **monotonic time** — the simulation clock never moves backwards and
  never goes non-finite;
* **non-negative state** — queue occupancies, rates, allocations, drop
  volumes and congestion windows stay ≥ 0 (windows strictly > 0);
* **bytes conservation per link** — for every queue,
  ``offered + queue_before == delivered + dropped + queue_after`` up to
  float tolerance, with a non-negative *held-back* residual allowed only
  on IEEE 802.3x flow-control links (pause frames push excess upstream);
* **RNG stream hygiene** — :class:`~repro.core.rng.RngFactory` already
  raises on crc32 label collisions unconditionally; the sanitizer's
  :meth:`SimSanitizer.check_stream_registry` re-audits a factory's
  issued labels as a belt-and-braces pass.

Enabling
--------
Three equivalent switches:

* environment: ``REPRO_SANITIZE=1`` (also ``true``/``yes``/``on``);
* CLI: ``repro iperf3 --sanitize ...`` / ``repro experiment --sanitize``;
* code: :func:`enable` / :func:`disable`, or the :func:`sanitized`
  context manager (used by the test suite).

It is wired into :class:`repro.core.engine.Engine` (event times) and the
flow engines' shared :class:`repro.sim.flowsim.RunSetup` (clock, streams,
link conservation; ``FlowSimulator`` adds per-flow state).  When off —
the default — neither pays more than one ``None`` check per tick/event.

Violations raise :class:`~repro.core.errors.SanitizerViolation`, a
:class:`~repro.core.errors.SimulationError`: they always indicate a bug
in the simulator, never bad user input.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.errors import SanitizerViolation
from repro.core.rng import label_entropy

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "sanitized",
    "SimSanitizer",
    "SanitizerViolation",
]

ENV_VAR = "REPRO_SANITIZE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Programmatic override: None defers to the environment variable.
_forced: bool | None = None


def enabled() -> bool:
    """Is the sanitizer currently active?

    :func:`enable`/:func:`disable` take precedence; otherwise the
    ``REPRO_SANITIZE`` environment variable decides.
    """
    if _forced is not None:
        return _forced
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def enable() -> None:
    """Force the sanitizer on, regardless of the environment."""
    global _forced
    _forced = True


def disable() -> None:
    """Force the sanitizer off, regardless of the environment."""
    global _forced
    _forced = False


def reset() -> None:
    """Drop any programmatic override; defer to ``REPRO_SANITIZE`` again."""
    global _forced
    _forced = None


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Context manager scoping :func:`enable`/:func:`disable`."""
    global _forced
    prev = _forced
    _forced = on
    try:
        yield
    finally:
        _forced = prev


@dataclass
class SimSanitizer:
    """Stateful invariant checker attached to one engine or simulator run.

    All ``check_*`` methods raise
    :class:`~repro.core.errors.SanitizerViolation` on failure and are
    silent on success; ``checks`` counts how many assertions ran, which
    the tests use to prove the sanitizer was actually active.
    """

    context: str = "sim"
    #: Relative tolerance for conservation sums (float accumulation).
    rel_tol: float = 1e-6
    #: Absolute slack in bytes/units for ≥0 and conservation checks.
    abs_tol: float = 1e-3
    checks: int = 0
    _last_time: float = field(default=float("-inf"), repr=False)

    # -- plumbing ---------------------------------------------------------

    def _fail(self, what: str) -> None:
        message = f"[{self.context}] {what}"
        # Post-mortem context: when a trace bus is installed, append
        # its flight-recorder tail.  Imported lazily so the sanitizer
        # stays importable without loading the trace package.
        from repro.trace.bus import flight_recorder_tail

        tail = flight_recorder_tail()
        if tail:
            message = f"{message}\n{tail}"
        raise SanitizerViolation(message)

    def reset_clock(self) -> None:
        """Forget the monotonicity watermark (engine ``reset()``)."""
        self._last_time = float("-inf")

    # -- checks -----------------------------------------------------------

    def check_time(self, now: float) -> None:
        """Simulation time must be finite and non-decreasing."""
        self.checks += 1
        if not np.isfinite(now):
            self._fail(f"non-finite simulation time {now!r}")
        if now < self._last_time:
            self._fail(
                f"time moved backwards: {self._last_time!r} -> {now!r}"
            )
        self._last_time = now

    def check_non_negative(self, label: str, value) -> None:
        """Scalar or array state that must never go negative."""
        self.checks += 1
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)):
            self._fail(f"{label} went non-finite: {arr!r}")
        low = float(arr.min()) if arr.size else 0.0
        if low < -self.abs_tol:
            self._fail(f"{label} went negative: min={low!r}")

    def check_positive(self, label: str, value) -> None:
        """Scalar or array state that must stay strictly positive."""
        self.checks += 1
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)):
            self._fail(f"{label} went non-finite: {arr!r}")
        low = float(arr.min()) if arr.size else 1.0
        if low <= 0.0:
            self._fail(f"{label} must be > 0: min={low!r}")

    def account_link(
        self,
        label: str,
        *,
        offered: float,
        delivered: float,
        dropped: float,
        queue_before: float,
        queue_after: float,
        flow_control: bool = False,
    ) -> None:
        """Bytes conservation across one queue/link over one step.

        Without flow control every offered byte must be delivered,
        dropped, or left in the queue.  With IEEE 802.3x the residual
        may additionally be *held back* upstream by pause frames, but it
        can never be negative — a link cannot mint bytes.
        """
        self.checks += 1
        held = (offered + queue_before) - (delivered + dropped + queue_after)
        tol = self.abs_tol + self.rel_tol * max(
            abs(offered), abs(queue_before), 1.0
        )
        if held < -tol:
            self._fail(
                f"link {label!r} created {-held:.3f} bytes: offered="
                f"{offered:.3f} q_before={queue_before:.3f} delivered="
                f"{delivered:.3f} dropped={dropped:.3f} q_after={queue_after:.3f}"
            )
        if held > tol and not flow_control:
            self._fail(
                f"link {label!r} lost {held:.3f} bytes without accounting "
                f"(no flow control to hold them back): offered={offered:.3f} "
                f"q_before={queue_before:.3f} delivered={delivered:.3f} "
                f"dropped={dropped:.3f} q_after={queue_after:.3f}"
            )

    def check_stream_registry(self, factory) -> None:
        """Audit an :class:`~repro.core.rng.RngFactory`'s issued labels.

        The factory raises on collision at ``stream()`` time on its own;
        this re-derives every label's entropy and confirms the registry
        is still injective (catches direct mutation of factory state).
        """
        self.checks += 1
        seen: dict[int, str] = {}
        for (label, _rep) in getattr(factory, "_cache", {}):
            entropy = label_entropy(label)
            owner = seen.setdefault(entropy, label)
            if owner != label:
                self._fail(
                    f"RNG labels {owner!r} and {label!r} share entropy "
                    f"{entropy}"
                )
