"""Tick kernels: the scalar reference path and the vectorized fast path.

The tick driver (:func:`repro.sim.engine.run_engine`, behind both
:class:`~repro.sim.flowsim.FlowSimulator` and the sharded engine) calls
four per-tick hooks — pacing caps, CPU rate limits, congestion
feedback, CPU cost accounting.  This module provides two
interchangeable implementations of those hooks:

* :class:`ScalarKernel` — the reference: per-flow Python loops over the
  scalar :class:`~repro.tcp.cc.base.CongestionControl` objects and
  :class:`~repro.sim.cpumodel.CpuCostModel` methods, exactly as the
  original simulator ran them;
* :class:`VectorKernel` — numpy array kernels
  (:class:`~repro.tcp.cc.batch.CcBatch`,
  :class:`~repro.sim.cpumodel.SenderCostBatch`,
  :class:`~repro.sim.cpumodel.ReceiverCostBatch`) doing O(1)
  Python-level work per tick regardless of the flow count — except
  congestion feedback for algorithms with fewer than
  :data:`~repro.tcp.cc.batch.OBJECT_LANES` flows, which steps their
  scalar objects in a loop because that beats an array stepper's flat
  per-group cost at such widths.

Parity guarantee
----------------
The two kernels are *byte-identical*: same `ExperimentResult.digest()`,
same trace ``events_digest``, on every golden config and on randomized
hypothesis configs (tests/test_kernel_parity.py).  This is provable, not
aspirational, because

* elementwise float64 ``+ - * / min max`` round identically whether
  evaluated by CPython or by a numpy ufunc, and every vector formula
  transcribes its scalar counterpart with the same association;
* everything stochastic (background samples, burst draws, drop
  placement) and every cross-flow reduction stays outside the kernel,
  in the tick driver and the :class:`~repro.sim.flowsim.RunSetup` link
  step, which run the same code under either kernel, so RNG
  consumption order and summation order cannot differ;
* rare per-event work (loss reactions needing a real cube root, BBR's
  windowed-max state) and narrow algorithm groups run the scalar code
  in both kernels.

Both are built from the run's per-flow cc kinds (the
:func:`~repro.tcp.cc.make_cc` names): :class:`ScalarKernel` makes one
object per flow, :class:`VectorKernel` takes the
:class:`~repro.tcp.cc.batch.CcBatch` built from the same kinds.
Selection mirrors the :mod:`repro.sim.sanitizer` opt-in pattern: the
``REPRO_SIM_KERNEL`` environment variable (``scalar`` | ``vector``),
with :func:`force_kernel` / :func:`forced_kernel` as programmatic
overrides for tests.  The default is ``vector``.  It reaches
FlowSimulator runs through :func:`make_kernel`; the sharded engine
names the vector kernel.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.sim.cpumodel import (
    CpuCostModel,
    ReceiverCostBatch,
    SenderCostBatch,
)
from repro.tcp.cc import make_cc
from repro.tcp.cc.batch import CcBatch

__all__ = [
    "ENV_VAR",
    "KERNEL_NAMES",
    "DEFAULT_KERNEL",
    "TickKernel",
    "ScalarKernel",
    "VectorKernel",
    "kernel_name",
    "force_kernel",
    "forced_kernel",
    "make_kernel",
]

ENV_VAR = "REPRO_SIM_KERNEL"
KERNEL_NAMES = ("scalar", "vector")
DEFAULT_KERNEL = "vector"

#: Programmatic override: None defers to the environment variable.
_forced: str | None = None


def kernel_name() -> str:
    """The kernel the next simulation run will use."""
    if _forced is not None:
        return _forced
    raw = os.environ.get(ENV_VAR, "").strip().lower()
    if not raw:
        return DEFAULT_KERNEL
    if raw not in KERNEL_NAMES:
        raise ConfigurationError(
            f"{ENV_VAR}={raw!r} is not a tick kernel; "
            f"choose one of {list(KERNEL_NAMES)}"
        )
    return raw


def force_kernel(name: str | None) -> None:
    """Override the environment selection (None restores it)."""
    global _forced
    if name is not None and name not in KERNEL_NAMES:
        raise ConfigurationError(
            f"{name!r} is not a tick kernel; choose one of {list(KERNEL_NAMES)}"
        )
    _forced = name


@contextmanager
def forced_kernel(name: str) -> Iterator[None]:
    """Scope a kernel selection (used by the parity tests)."""
    prev = _forced
    force_kernel(name)
    try:
        yield
    finally:
        force_kernel(prev)


class TickKernel:
    """Per-run state and per-tick hooks shared by both kernels.

    The kernel owns the warm-started per-flow arrays that persist
    across ticks: the congestion windows (``cwnd``, with the
    ``needs_validation`` flags of their algorithms) and the damped
    receiver CPU limit fixed point (``rcv_limit``).
    """

    name = "base"
    cwnd: np.ndarray
    needs_validation: np.ndarray

    def __init__(
        self,
        n: int,
        send_models: list[CpuCostModel],
        recv_models: list[CpuCostModel],
        *,
        run_noise: float,
        snd_app_share: float,
        rcv_app_share: float,
        rcv_irq_share: float,
        budget_rx: float,
        agg_rx_base: float,
    ) -> None:
        self.n = n
        self.send_models = send_models
        self.recv_models = recv_models
        self.run_noise = run_noise
        self.snd_app_share = snd_app_share
        self.rcv_app_share = rcv_app_share
        self.rcv_irq_share = rcv_irq_share
        self.budget_rx = budget_rx
        self.snd_limit = np.zeros(n)
        self.rcv_limit = np.full(n, agg_rx_base)

    def pacing(self, rtt: float, pace_eff: np.ndarray) -> np.ndarray:
        """Per-flow pacing caps: fq rate min'd with CC-internal pacing."""
        raise NotImplementedError

    def cpu_limits(
        self, rtt: float, footprint: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-flow sender/receiver CPU rate ceilings for this tick."""
        raise NotImplementedError

    def cc_feedback(
        self,
        now: float,
        dt: float,
        rtt: float,
        delivered: np.ndarray,
        loss_idx: np.ndarray,
        al_mask: np.ndarray,
        max_window: float,
    ) -> list[tuple[int, float, float]]:
        """Apply losses, window advance, and socket clamp; update
        ``self.cwnd``.  Returns (flow, before, after) per reacted loss."""
        raise NotImplementedError

    def cc_timeout(self, now: float, idx) -> list[tuple[int, float, float]]:
        """RTO collapse for the given flows; update ``self.cwnd``.
        Returns (flow, before, after) per flow.  The tick driver never
        invokes this (its flows cannot starve into an RTO) — it exists
        so the timeout path stays under scalar<->vector parity tests."""
        raise NotImplementedError

    def cpu_costs(
        self,
        alloc: np.ndarray,
        drate: np.ndarray,
        rtt: float,
        footprint: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Per-flow (tx app, tx irq, zc fraction, rx app, rx irq) at
        this tick's operating point — cyc/byte arrays plus fractions."""
        raise NotImplementedError


class ScalarKernel(TickKernel):
    """Reference kernel: the original per-flow Python loops, over one
    ``make_cc`` object per flow."""

    name = "scalar"

    def __init__(
        self,
        kinds: Sequence[str],
        mss: float,
        send_models: list[CpuCostModel],
        recv_models: list[CpuCostModel],
        **consts: float,
    ) -> None:
        super().__init__(len(kinds), send_models, recv_models, **consts)
        self.ccs = [make_cc(kind, mss=mss) for kind in kinds]
        self.cwnd = np.array([cc.cwnd_bytes for cc in self.ccs])
        self.needs_validation = np.array(
            [cc.needs_cwnd_validation for cc in self.ccs]
        )

    def pacing(self, rtt: float, pace_eff: np.ndarray) -> np.ndarray:
        pace = pace_eff.copy()
        for i, cc in enumerate(self.ccs):
            cc_rate = cc.pacing_rate(rtt)
            if cc_rate is not None:
                pace[i] = min(pace[i], cc_rate)
        return pace

    def cpu_limits(self, rtt, footprint):
        snd_limit, rcv_limit = self.snd_limit, self.rcv_limit
        for i in range(self.n):
            snd_limit[i] = self.send_models[i].sender_cpu_rate_limit(
                rtt, footprint[i], core_share=self.snd_app_share
            ) * self.run_noise
            # Receiver limit: pb falls as the GRO batch fills, then
            # is rate-independent; one damped step per tick converges.
            rm = self.recv_models[i]
            rcosts = rm.receiver_costs(max(rcv_limit[i], units.M), rtt)
            app_lim = (
                self.budget_rx * self.rcv_app_share
                / max(rcosts.app_cyc_per_byte, 1e-9)
            )
            irq_lim = (
                self.budget_rx * self.rcv_irq_share
                / max(rcosts.irq_cyc_per_byte, 1e-9)
            )
            rcv_limit[i] = 0.5 * rcv_limit[i] + 0.5 * min(app_lim, irq_lim)
        return snd_limit, rcv_limit

    def cc_feedback(self, now, dt, rtt, delivered, loss_idx, al_mask, max_window):
        reacted = []
        for i in loss_idx:
            cc = self.ccs[i]
            before = float(cc.cwnd_bytes)
            if cc.on_loss(now, rtt):
                reacted.append((int(i), before, float(cc.cwnd_bytes)))
        for i, cc in enumerate(self.ccs):
            if al_mask[i]:
                cc.on_app_limited(now, dt)
            else:
                cc.on_tick(now, dt, delivered[i], rtt)
            cc.clamp(max_window)
            self.cwnd[i] = cc.cwnd_bytes
        return reacted

    def cc_timeout(self, now, idx):
        reacted = []
        for i in idx:
            cc = self.ccs[i]
            before = float(cc.cwnd_bytes)
            cc.on_timeout(now)
            reacted.append((int(i), before, float(cc.cwnd_bytes)))
            self.cwnd[i] = cc.cwnd_bytes
        return reacted

    def cpu_costs(self, alloc, drate, rtt, footprint):
        n = self.n
        tx_app = np.zeros(n)
        tx_irq = np.zeros(n)
        zc_frac = np.zeros(n)
        rx_app = np.zeros(n)
        rx_irq = np.zeros(n)
        for i in range(n):
            costs = self.send_models[i].sender_costs(alloc[i], rtt, footprint[i])
            tx_app[i] = costs.app_cyc_per_byte
            tx_irq[i] = costs.irq_cyc_per_byte
            zc_frac[i] = costs.zc_fraction
            rcosts = self.recv_models[i].receiver_costs(drate[i], rtt)
            rx_app[i] = rcosts.app_cyc_per_byte
            rx_irq[i] = rcosts.irq_cyc_per_byte
        return tx_app, tx_irq, zc_frac, rx_app, rx_irq


class VectorKernel(TickKernel):
    """Fast kernel: batched array state, O(1) Python work per tick
    (per algorithm group in congestion feedback, see
    :mod:`repro.tcp.cc.batch`).

    Three bit-neutral shortcuts keep the per-tick ufunc count low:

    * ``cpu_limits`` and ``cpu_costs`` share the footprint-dependent
      copy+stack sub-expression within a tick (both hooks evaluate the
      identical formula on the identical array — the driver calls
      ``cpu_limits`` first each tick).
    * The damped receiver-limit step contracts to an exact float fixed
      point; once an update returns its input bit-for-bit, the old
      array object is kept and an identity check skips the replay —
      which would reproduce the same bits — until ``rtt`` changes.
    * Returned arrays are scratch buffers reused across ticks; the
      driver consumes every hook result within the tick and never
      mutates one, which is what makes the reuse safe.
    """

    name = "vector"

    def __init__(
        self,
        batch: CcBatch,
        send_models: list[CpuCostModel],
        recv_models: list[CpuCostModel],
        **consts: float,
    ) -> None:
        super().__init__(int(batch.cwnd.size), send_models, recv_models, **consts)
        self.batch = batch
        # The batch owns the authoritative window array.
        self.cwnd = batch.cwnd
        self.needs_validation = batch.needs_validation
        self.sender = SenderCostBatch(send_models)
        self.receiver = ReceiverCostBatch(recv_models)
        # Precomputed scalar coefficients (same association as the
        # scalar kernel's left-to-right evaluation).
        self._budget_app = self.budget_rx * self.rcv_app_share
        self._budget_irq = self.budget_rx * self.rcv_irq_share
        self._rcv_scratch = np.empty(self.n)
        # Within-tick share of the sender prep array, keyed by the
        # footprint array's identity.
        self._tick_foot: np.ndarray | None = None
        self._tick_prep: np.ndarray | None = None
        # Receiver-limit fixed point: (rtt, input array object).
        self._rl_rtt: float | None = None
        self._rl_obj: np.ndarray | None = None

    def pacing(self, rtt: float, pace_eff: np.ndarray) -> np.ndarray:
        if not self.batch.self_paced:
            # No flow imposes its own pacing rate (loss-based CCs return
            # None), so the caps pass through unchanged; the driver
            # never mutates the returned array.
            return pace_eff
        pace = pace_eff.copy()
        self.batch.pacing(rtt, pace)
        return pace

    def cpu_limits(self, rtt, footprint):
        prep = self.sender.prepare(footprint)
        self._tick_foot = footprint
        self._tick_prep = prep
        snd = self.sender.rate_limits(
            rtt, core_share=self.snd_app_share, copy_stack=prep
        )
        np.multiply(snd, self.run_noise, out=snd)
        self.snd_limit = snd

        rcv_in = self.rcv_limit
        if not (rtt == self._rl_rtt and rcv_in is self._rl_obj):
            np.maximum(rcv_in, units.M, out=self._rcv_scratch)
            rc_app, rc_irq = self.receiver.costs(self._rcv_scratch, rtt)
            np.maximum(rc_app, 1e-9, out=rc_app)
            np.divide(self._budget_app, rc_app, out=rc_app)
            np.maximum(rc_irq, 1e-9, out=rc_irq)
            np.divide(self._budget_irq, rc_irq, out=rc_irq)
            np.minimum(rc_app, rc_irq, out=rc_app)
            new = np.multiply(rcv_in, 0.5)
            np.multiply(rc_app, 0.5, out=rc_app)
            np.add(new, rc_app, out=new)
            self._rl_rtt = rtt
            if bool((new == rcv_in).all()):
                # Fixed point reached: keep the old object so the
                # identity check above short-circuits future ticks.
                # (Values here are strictly positive, so value equality
                # is bit equality — no ±0.0 ambiguity.)
                self._rl_obj = rcv_in
            else:
                self.rcv_limit = new
                self._rl_obj = None
        return self.snd_limit, self.rcv_limit

    def cc_feedback(self, now, dt, rtt, delivered, loss_idx, al_mask, max_window):
        return self.batch.feedback(
            now, dt, rtt, delivered, loss_idx, al_mask, max_window
        )

    def cc_timeout(self, now, idx):
        return self.batch.timeout(now, idx)

    def cpu_costs(self, alloc, drate, rtt, footprint):
        prep = self._tick_prep if footprint is self._tick_foot else None
        tx_app, tx_irq, zc_frac = self.sender.costs(
            alloc, rtt, footprint, copy_stack=prep
        )
        rx_app, rx_irq = self.receiver.costs(drate, rtt)
        return tx_app, tx_irq, zc_frac, rx_app, rx_irq


def make_kernel(
    name: str | None,
    kinds: Sequence[str],
    mss: float,
    send_models: list[CpuCostModel],
    recv_models: list[CpuCostModel],
    **consts: float,
) -> TickKernel:
    """The ``name``d kernel (None = ambient selection) over flows of the
    given cc ``kinds``; ``consts`` are :class:`TickKernel`'s run
    constants."""
    resolved = kernel_name() if name is None else name
    if resolved == "scalar":
        return ScalarKernel(kinds, mss, send_models, recv_models, **consts)
    if resolved == "vector":
        return VectorKernel(
            CcBatch(kinds, mss), send_models, recv_models, **consts
        )
    raise ConfigurationError(
        f"{resolved!r} is not a tick kernel; choose one of {list(KERNEL_NAMES)}"
    )
