"""Metrics accumulator and RunResult."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import units
from repro.sim.metrics import CpuUtil, MetricsAccumulator


def feed(acc: MetricsAccumulator, flow_bytes: np.ndarray, seconds: float,
         rate_per_flow: float, dt: float = 0.01, retr: float = 0.0,
         cpu=(0.5, 0.1, 0.8, 0.2)):
    """Record ``seconds`` of ticks; like the tick driver, add each flow's
    bytes to ``flow_bytes`` for the ticks after ``omit``."""
    n = flow_bytes.size
    for _ in range(int(round(seconds / dt))):
        acc.record_tick(
            dt,
            retr,
            0,
            cpu,
            zc_fraction=0.5,
            delivered_sum=n * (rate_per_flow * dt),
        )
        if acc._time > acc.omit:
            flow_bytes += rate_per_flow * dt


class TestOmit:
    def test_omit_window_excluded(self):
        acc = MetricsAccumulator(duration=10.0, omit=2.0)
        flow_bytes = np.zeros(1)
        # 2 s at high rate inside the omit window, then 8 s at low rate
        feed(acc, flow_bytes, 2.0, rate_per_flow=1e9)
        feed(acc, flow_bytes, 8.0, rate_per_flow=1e6)
        res = acc.finalize(flow_bytes)
        assert res.per_flow_goodput[0] == pytest.approx(1e6, rel=0.02)

    def test_retransmits_in_omit_not_counted(self):
        acc = MetricsAccumulator(10.0, 2.0)
        flow_bytes = np.zeros(1)
        feed(acc, flow_bytes, 2.0, 1e6, retr=100.0)
        feed(acc, flow_bytes, 8.0, 1e6, retr=1.0)
        res = acc.finalize(flow_bytes)
        assert res.retransmit_segments == pytest.approx(8.0 / 0.01 * 1.0)


class TestAggregation:
    def test_total_and_per_flow(self):
        acc = MetricsAccumulator(5.0, 1.0)
        flow_bytes = np.zeros(4)
        feed(acc, flow_bytes, 5.0, 2e8)
        res = acc.finalize(flow_bytes)
        assert res.total_goodput == pytest.approx(8e8, rel=0.01)
        assert res.total_gbps == pytest.approx(units.to_gbps(8e8), rel=0.01)
        lo, hi = res.flow_range_gbps
        assert lo == pytest.approx(hi)

    def test_cpu_util_time_average(self):
        acc = MetricsAccumulator(5.0, 1.0)
        flow_bytes = np.zeros(1)
        feed(acc, flow_bytes, 5.0, 1e6, cpu=(0.5, 0.25, 0.0, 0.0))
        res = acc.finalize(flow_bytes)
        assert res.sender_cpu.app_pct == pytest.approx(50.0, rel=0.01)
        assert res.sender_cpu.irq_pct == pytest.approx(25.0, rel=0.01)
        assert res.sender_cpu.total_pct == pytest.approx(75.0, rel=0.01)

    def test_interval_samples_roughly_per_second(self):
        acc = MetricsAccumulator(10.0, 2.0)
        flow_bytes = np.zeros(1)
        feed(acc, flow_bytes, 10.0, 1e8)
        res = acc.finalize(flow_bytes)
        assert 6 <= res.interval_goodput.size <= 9
        assert np.allclose(res.interval_goodput, 1e8, rtol=0.05)

    def test_zc_fraction_mean(self):
        acc = MetricsAccumulator(4.0, 1.0)
        flow_bytes = np.zeros(1)
        feed(acc, flow_bytes, 4.0, 1e6)
        assert acc.finalize(flow_bytes).zc_fraction_mean == pytest.approx(0.5, rel=0.01)


class TestCpuUtil:
    def test_total_can_exceed_100(self):
        u = CpuUtil(app_pct=95.0, irq_pct=40.0)
        assert u.total_pct == pytest.approx(135.0)


class TestClosedFormClock:
    def test_million_ticks_no_drift_no_epsilon(self):
        """Regression for the `now += dt` clock-drift bug: a million
        repeated float adds of dt=1e-4 drift the clock by ~1e-9 s,
        enough to flip the omit-boundary comparison by a whole tick.
        The accumulator derives its clocks as closed forms (ticks*dt),
        so every assertion below is EXACT equality — no epsilon."""
        dt = 1e-4
        acc = MetricsAccumulator(duration=100.0, omit=50.0)
        flow_bytes = np.zeros(1)
        for _ in range(1_000_000):
            acc.record_tick(dt, 0.0, 0, (0.0, 0.0, 0.0, 0.0), 0.0, 10.0)
            if acc._time > acc.omit:
                flow_bytes += 10.0  # bytes per tick
        # Exactly half the ticks fall inside the omit window: the tick
        # ending at t = 500000 * 1e-4 lands on exactly 50.0.
        assert acc._measured_ticks == 500_000
        assert acc._measured_time == 50.0
        assert acc._time == 100.0
        res = acc.finalize(flow_bytes)
        # 500000 exact adds of 10.0 bytes over exactly 50 s.
        assert res.per_flow_goodput[0] == 1e5
