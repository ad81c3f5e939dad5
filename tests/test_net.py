"""Network substrate: links, switch queues, flow control, paths, topology."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import units
from repro.core.errors import ConfigurationError, SimulationError
from repro.net import (
    BackgroundTraffic,
    FlowControlState,
    Link,
    NetworkPath,
    SharedBufferQueue,
    SwitchModel,
    Topology,
)


class TestLink:
    def test_of_gbps(self):
        link = Link.of_gbps("wan", 100, delay_ms=52, admin_limit_gbps=80)
        assert link.rate_bytes_per_sec == pytest.approx(units.gbps(100))
        assert link.delay_sec == pytest.approx(0.052)
        assert link.usable_rate == pytest.approx(units.gbps(80))

    def test_no_admin_uses_full_rate(self):
        link = Link.of_gbps("lan", 100)
        assert link.usable_rate == link.rate_bytes_per_sec

    def test_serialization_time(self):
        link = Link.of_gbps("l", 100)
        assert link.serialization_time(units.gbps(100)) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Link("bad", rate_bytes_per_sec=-1)
        with pytest.raises(ConfigurationError):
            Link("bad", rate_bytes_per_sec=1e9, delay_sec=-1)
        with pytest.raises(ConfigurationError):
            Link.of_gbps("bad", 100, admin_limit_gbps=200)


class TestSharedBufferQueue:
    def mk(self, buffer_mb=1.0, drain=1e9, fc=False):
        sw = SwitchModel("t", buffer_mb * units.MB, supports_flow_control=fc)
        return SharedBufferQueue(sw, drain_rate=drain)

    def test_underload_delivers_all(self):
        q = self.mk()
        delivered, dropped = q.offer(5e8 * 0.01, 0.01)  # half the drain
        assert dropped == 0
        assert delivered == pytest.approx(5e6)
        assert q.occupancy == 0

    def test_overload_builds_queue(self):
        q = self.mk(buffer_mb=50)
        delivered, dropped = q.offer(2e9 * 0.01, 0.01)
        assert delivered == pytest.approx(1e7)
        assert q.occupancy == pytest.approx(1e7)
        assert dropped == 0  # 10 MB of standing queue fits in 50 MB

    def test_overflow_drops_without_fc(self):
        q = self.mk(buffer_mb=1.0)
        _, dropped = q.offer(3e9 * 0.01, 0.01)  # 30 MB in, 10 MB out
        assert dropped > 0
        assert q.occupancy == pytest.approx(units.MB)

    def test_overflow_pauses_with_fc(self):
        q = self.mk(buffer_mb=1.0, fc=True)
        _, dropped = q.offer(3e9 * 0.01, 0.01)
        assert dropped == 0
        assert q.paused_time > 0
        assert q.occupancy == pytest.approx(units.MB)

    def test_queue_drains_over_time(self):
        q = self.mk(buffer_mb=50)
        q.offer(2e9 * 0.01, 0.01)
        occ = q.occupancy
        q.offer(0.0, 0.01)
        assert q.occupancy < occ

    def test_conservation(self):
        """delivered + dropped + occupancy == offered (+ initial occupancy)."""
        q = self.mk(buffer_mb=2.0)
        total_in = total_out = total_drop = 0.0
        rng = np.random.default_rng(0)
        for _ in range(200):
            arrival = float(rng.uniform(0, 3e7))
            d, x = q.offer(arrival, 0.01)
            total_in += arrival
            total_out += d
            total_drop += x
        assert total_in == pytest.approx(total_out + total_drop + q.occupancy)

    def test_invalid_offer(self):
        q = self.mk()
        with pytest.raises(SimulationError):
            q.offer(-1.0, 0.01)
        with pytest.raises(SimulationError):
            q.offer(1.0, 0.0)

    def test_reset(self):
        q = self.mk(buffer_mb=0.5)
        q.offer(3e7, 0.01)
        q.reset()
        assert q.occupancy == 0 and q.dropped_bytes == 0


class TestFlowControlState:
    def test_disabled_never_pauses(self):
        fc = FlowControlState(enabled=False)
        assert fc.update(ring_fill=0.99, dt=0.01) == 0.0
        assert fc.pause_events == 0

    def test_pause_resume_hysteresis(self):
        fc = FlowControlState(enabled=True)
        assert fc.update(0.5, 0.01) == 0.0
        assert fc.update(0.9, 0.01) > 0.0  # pause begins
        assert fc.paused
        assert fc.update(0.6, 0.01) == 1.0  # still above resume threshold
        assert fc.update(0.3, 0.01) < 1.0  # resumes
        assert not fc.paused
        assert fc.pause_events == 1

    def test_paused_time_accumulates(self):
        fc = FlowControlState(enabled=True)
        fc.update(0.9, 0.01)
        fc.update(0.9, 0.01)
        assert fc.total_paused_sec > 0

    def test_paused_time_equals_integral_of_returned_fractions(self):
        """Regression: the resume tick's partial pause (0.3 of a tick)
        was returned to the simulator but never added to
        ``total_paused_sec``, undercounting Table-III-style paused-time
        evidence.  The invariant now: accounted pause time is exactly
        the integral of every returned fraction."""
        fc = FlowControlState(enabled=True)
        dt = 0.01
        # Ring-fill trajectory driving pause -> hold -> resume twice.
        fills = [0.5, 0.9, 0.8, 0.6, 0.3, 0.2, 0.95, 0.5, 0.35, 0.1]
        integral = 0.0
        for fill in fills:
            integral += dt * fc.update(fill, dt)
        assert fc.pause_events == 2
        assert fc.total_paused_sec == integral


class TestBackgroundTraffic:
    def test_none_is_zero(self):
        bg = BackgroundTraffic.none()
        assert not bg.active
        assert np.all(bg.sample(np.random.default_rng(0), 10) == 0)

    def test_amlight_mean_16g(self):
        bg = BackgroundTraffic.amlight_production()
        rng = np.random.default_rng(0)
        mean = bg.sample(rng, 20000).mean()
        assert units.to_gbps(mean) == pytest.approx(16.0, rel=0.05)

    def test_burstiness_spreads(self):
        bg = BackgroundTraffic.amlight_production()
        s = bg.sample(np.random.default_rng(0), 10000)
        assert s.max() > 2 * s.min()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BackgroundTraffic(mean_bytes_per_sec=-1)


class TestNetworkPath:
    def test_lan_factory(self):
        p = NetworkPath.lan(gbps_value=100)
        assert not p.is_wan and p.capacity == pytest.approx(units.gbps(100))

    def test_flow_control_requires_capable_switch(self):
        with pytest.raises(ConfigurationError):
            NetworkPath(
                name="bad",
                bottleneck=Link.of_gbps("l", 100, delay_ms=30),
                rtt_sec=0.06,
                switch=SwitchModel.noviflow_wb5132(),  # no 802.3x
                flow_control=True,
            )

    def test_bdp(self):
        p = NetworkPath.lan()
        assert p.bdp_bytes(rate=1e9) == pytest.approx(1e9 * p.rtt_sec)

    def test_describe(self):
        text = NetworkPath.lan().describe()
        assert "no flow control" in text


class TestTopology:
    def build(self):
        topo = Topology("test")
        topo.add_host("a")
        topo.add_host("b")
        topo.add_switch("s1", SwitchModel.noviflow_wb5132())
        topo.add_switch("s2", SwitchModel.edgecore_as9716())
        topo.add_link("a", "s1", 100, delay_ms=0.05)
        topo.add_link("s1", "s2", 100, delay_ms=26.95, admin_limit_gbps=80)
        topo.add_link("s2", "b", 100, delay_ms=0.05)
        return topo

    def test_path_rtt_is_twice_one_way(self):
        path = self.build().path_between("a", "b")
        assert path.rtt_ms == pytest.approx(54.1, abs=0.1)

    def test_bottleneck_and_admin(self):
        path = self.build().path_between("a", "b")
        assert path.capacity == pytest.approx(units.gbps(80))

    def test_smallest_buffer_switch_binds(self):
        path = self.build().path_between("a", "b")
        assert path.switch.model.startswith("NoviFlow")

    def test_unknown_nodes(self):
        topo = self.build()
        with pytest.raises(ConfigurationError):
            topo.path_between("a", "nowhere")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "nowhere", 100)

    def test_unknown_source(self):
        with pytest.raises(ConfigurationError):
            self.build().path_between("nowhere", "b")

    def test_same_node(self):
        with pytest.raises(ConfigurationError):
            self.build().path_between("a", "a")

    def test_disconnected_components(self):
        topo = self.build()
        topo.add_host("c")
        topo.add_host("d")
        topo.add_link("c", "d", 100, delay_ms=1.0)
        with pytest.raises(ConfigurationError):
            topo.path_between("a", "d")

    def test_lower_delay_route_beats_direct_edge(self):
        topo = self.build()
        topo.add_link("a", "b", 100, delay_ms=10.0)
        assert topo.route("a", "b") == ["a", "b"]
        topo = self.build()
        topo.add_link("a", "b", 400, delay_ms=60.0)
        assert topo.route("a", "b") == ["a", "s1", "s2", "b"]
        path = topo.path_between("a", "b")
        assert path.rtt_ms == pytest.approx(54.1, abs=0.1)
        assert path.switch.model.startswith("NoviFlow")

    def test_hosts_and_switches_listing(self):
        topo = self.build()
        assert sorted(topo.hosts) == ["a", "b"]
        assert sorted(topo.switches) == ["s1", "s2"]
