"""Test harness aggregation and mpstat rendering."""

from __future__ import annotations

import pytest

from repro.core.errors import HarnessError
from repro.host.numa import CorePlacement
from repro.sim.metrics import CpuUtil
from repro.testbeds.amlight import AmLightTestbed
from repro.tools.harness import HarnessConfig, TestHarness
from repro.tools.iperf3 import Iperf3Options
from repro.tools.mpstat import MpstatReport


@pytest.fixture(scope="module")
def harness():
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    return TestHarness(
        snd, rcv, tb.path("lan"),
        HarnessConfig(repetitions=3, duration=6.0, omit=1.5, tick=0.004),
    )


class TestHarnessRuns:
    def test_repetition_count(self, harness):
        res = harness.run(Iperf3Options())
        assert len(res.runs) == 3
        assert res.gbps_values.size == 3

    def test_stats_consistent(self, harness):
        res = harness.run(Iperf3Options())
        assert res.min_gbps <= res.mean_gbps <= res.max_gbps
        assert res.stdev_gbps >= 0

    def test_reps_actually_vary(self, harness):
        res = harness.run(Iperf3Options())
        assert res.max_gbps > res.min_gbps

    def test_config_overrides_duration(self, harness):
        res = harness.run(Iperf3Options(duration=9999))
        assert res.runs[0].run.duration == pytest.approx(6.0)

    def test_per_flow_range(self, harness):
        res = harness.run(Iperf3Options(parallel=4, fq_rate_gbps=5))
        lo, hi = res.per_flow_range_gbps
        assert lo == pytest.approx(5.0, rel=0.05)
        assert hi == pytest.approx(5.0, rel=0.05)

    def test_bad_config(self):
        with pytest.raises(HarnessError):
            HarnessConfig(repetitions=0)

    def test_paper_protocol(self):
        cfg = HarnessConfig.paper()
        assert cfg.repetitions >= 10 and cfg.duration == 60.0


class TestMpstat:
    def placement(self):
        tb = AmLightTestbed()
        snd, _ = tb.host_pair()
        return CorePlacement.paper_pinned(snd.numa)

    def test_single_stream_core_distribution(self):
        rep = MpstatReport(
            host_name="snd", side="sender",
            util=CpuUtil(app_pct=90.0, irq_pct=30.0),
            placement=self.placement(), active_flows=1,
        )
        samples = rep.per_core()
        busy_app = [s for s in samples if s.role == "app" and s.busy_pct > 0]
        busy_irq = [s for s in samples if s.role == "irq" and s.busy_pct > 0]
        assert len(busy_app) == 1 and busy_app[0].core == 8
        assert len(busy_irq) == 1
        assert rep.tx_rx_cores_pct == pytest.approx(120.0)

    def test_multi_stream_spreads_cores(self):
        rep = MpstatReport(
            host_name="snd", side="sender",
            util=CpuUtil(app_pct=60.0, irq_pct=10.0),
            placement=self.placement(), active_flows=8,
        )
        busy_app = [s for s in rep.per_core() if s.role == "app" and s.busy_pct > 0]
        assert len(busy_app) == 8

    def test_render(self):
        rep = MpstatReport(
            host_name="snd", side="sender",
            util=CpuUtil(app_pct=90.0, irq_pct=30.0),
            placement=self.placement(), active_flows=1,
        )
        text = rep.render()
        assert "TX/RX cores 120%" in text
        assert "CPU 8" in text
