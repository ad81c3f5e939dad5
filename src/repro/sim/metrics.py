"""Per-run metric accumulation and the RunResult record.

The simulator accumulates everything post-``omit`` (like ``iperf3 -O``:
the slow-start ramp is excluded from averages).  A :class:`RunResult`
corresponds to one iperf3 invocation; the harness aggregates many runs
into the mean/stdev/min/max the paper's tables report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import units

__all__ = ["MetricsAccumulator", "RunResult", "CpuUtil"]


@dataclass(frozen=True)
class CpuUtil:
    """CPU utilization as mpstat-style percentages of one core.

    ``total`` = app + irq and can exceed 100% — matching the paper's
    "TX/RX Cores" curves, which aggregate the iperf3 core and the NIC
    interrupt cores.
    """

    app_pct: float
    irq_pct: float

    @property
    def total_pct(self) -> float:
        return self.app_pct + self.irq_pct


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single simulated test (one iperf3 run)."""

    duration: float
    omit: float
    per_flow_goodput: np.ndarray  # bytes/s, post-omit mean
    retransmit_segments: float
    loss_events: int
    sender_cpu: CpuUtil
    receiver_cpu: CpuUtil
    zc_fraction_mean: float
    #: 1-second interval aggregate throughput samples (bytes/s), like
    #: iperf3's interval lines; used for within-run variability views.
    interval_goodput: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def total_goodput(self) -> float:
        return float(self.per_flow_goodput.sum())

    @property
    def total_gbps(self) -> float:
        return units.to_gbps(self.total_goodput)

    @property
    def per_flow_gbps(self) -> np.ndarray:
        return units.to_gbps(self.per_flow_goodput)

    @property
    def flow_range_gbps(self) -> tuple[float, float]:
        g = self.per_flow_gbps
        return float(g.min()), float(g.max())


class MetricsAccumulator:
    """Streaming accumulation during a simulation run.

    Per-flow delivered bytes stay with the tick driver, which keeps
    them in its lanes and hands them to :meth:`finalize`.
    """

    def __init__(self, duration: float, omit: float) -> None:
        self.duration = duration
        self.omit = omit
        self._retr = 0.0
        self._loss_events = 0
        # Tick counters; the clock values are closed forms (ticks * dt)
        # so a million-tick run accumulates zero float drift.
        self._ticks = 0
        self._measured_ticks = 0
        self._time = 0.0
        self._measured_time = 0.0
        # CPU core-seconds (tx app, tx irq, rx app, rx irq) as scalar
        # accumulators: each lane is the same `sum += frac * dt` chain
        # of IEEE adds the array version performed elementwise.
        self._cpu_tx_app = 0.0
        self._cpu_tx_irq = 0.0
        self._cpu_rx_app = 0.0
        self._cpu_rx_irq = 0.0
        self._zc_sum = 0.0
        self._interval_bytes = 0.0
        self._interval_marks: list[float] = []
        self._next_interval = omit + 1.0

    def record_tick(
        self,
        dt: float,
        retr_segments: float,
        loss_events: int,
        cpu_core_fracs: tuple[float, float, float, float],
        zc_fraction: float,
        delivered_sum: float,
    ) -> None:
        """Record one tick.  ``cpu_core_fracs`` are fractions of one core
        busy this tick for (tx app, tx irq, rx app, rx irq);
        ``delivered_sum`` is the bytes all flows delivered."""
        self._ticks += 1
        self._time = self._ticks * dt
        # ticks * dt rounds to exactly `omit` at the boundary for every
        # (tick, omit) pair in use, so no drift epsilon is needed: the
        # closed form made the comparison exact.
        if self._time <= self.omit:
            return
        self._measured_ticks += 1
        self._measured_time = self._measured_ticks * dt
        self._retr += retr_segments
        self._loss_events += loss_events
        self._cpu_tx_app += cpu_core_fracs[0] * dt
        self._cpu_tx_irq += cpu_core_fracs[1] * dt
        self._cpu_rx_app += cpu_core_fracs[2] * dt
        self._cpu_rx_irq += cpu_core_fracs[3] * dt
        self._zc_sum += zc_fraction * dt
        self._interval_bytes += delivered_sum
        if self._time >= self._next_interval:
            self._interval_marks.append(self._interval_bytes)
            self._interval_bytes = 0.0
            self._next_interval += 1.0

    def finalize(self, flow_bytes: np.ndarray) -> RunResult:
        """The run's result; ``flow_bytes`` are the bytes each flow
        delivered after ``omit``."""
        t = max(self._measured_time, 1e-9)
        cpu = (
            np.array(
                [
                    self._cpu_tx_app,
                    self._cpu_tx_irq,
                    self._cpu_rx_app,
                    self._cpu_rx_irq,
                ]
            )
            / t
        )
        return RunResult(
            duration=self.duration,
            omit=self.omit,
            per_flow_goodput=flow_bytes / t,
            retransmit_segments=self._retr,
            loss_events=self._loss_events,
            sender_cpu=CpuUtil(app_pct=100 * cpu[0], irq_pct=100 * cpu[1]),
            receiver_cpu=CpuUtil(app_pct=100 * cpu[2], irq_pct=100 * cpu[3]),
            zc_fraction_mean=self._zc_sum / t,
            interval_goodput=np.array(self._interval_marks),
        )
