"""Testbed factories: AmLight, ESnet, production DTNs."""

from __future__ import annotations

import pytest

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.testbeds.amlight import AMLIGHT_RTTS_MS, AmLightTestbed
from repro.testbeds.esnet import ESNET_WAN_RTT_MS, ESnetTestbed


class TestAmLight:
    def test_paths_match_paper_rtts(self):
        tb = AmLightTestbed()
        for name, rtt_ms in AMLIGHT_RTTS_MS.items():
            assert tb.path(name).rtt_ms == pytest.approx(rtt_ms, abs=0.5)

    def test_wan_paths_admin_capped_at_80g(self):
        tb = AmLightTestbed()
        for name in ("wan25", "wan54", "wan104"):
            assert tb.path(name).capacity == pytest.approx(units.gbps(80))
        assert tb.path("lan").capacity == pytest.approx(units.gbps(100))

    def test_wan_background_16g(self):
        tb = AmLightTestbed()
        assert units.to_gbps(tb.path("wan54").background.mean_bytes_per_sec) == pytest.approx(16)
        assert not tb.path("lan").background.active

    def test_hosts_are_intel_cx5(self):
        snd, rcv = AmLightTestbed().host_pair()
        assert snd.cpu.arch == "intel"
        assert "ConnectX-5" in snd.nic.model
        assert snd.tuning.mtu == 9000

    def test_vm_modes(self):
        assert AmLightTestbed(vm_mode="baremetal").host_pair()[0].vm.enabled is False
        assert AmLightTestbed(vm_mode="tuned").host_pair()[0].vm.pci_passthrough
        assert AmLightTestbed(vm_mode="untuned").host_pair()[0].vm.enabled
        with pytest.raises(ConfigurationError):
            AmLightTestbed(vm_mode="container").host_pair()

    def test_unknown_path(self):
        with pytest.raises(ConfigurationError):
            AmLightTestbed().path("wan999")

    def test_no_flow_control_anywhere(self):
        tb = AmLightTestbed()
        assert all(not p.flow_control for p in tb.paths())

    def test_big_tcp_size_propagates(self):
        tb = AmLightTestbed(big_tcp_size=153600)
        snd, _ = tb.host_pair()
        assert snd.effective_gso_size() == 153600


class TestESnet:
    def test_paths(self):
        tb = ESnetTestbed()
        assert tb.path("lan").capacity == pytest.approx(units.gbps(200))
        assert tb.path("wan").rtt_ms == pytest.approx(ESNET_WAN_RTT_MS, abs=0.5)

    def test_hosts_are_amd_cx7(self):
        snd, _ = ESnetTestbed().host_pair()
        assert snd.cpu.arch == "amd"
        assert "ConnectX-7" in snd.nic.model

    def test_switch_is_64mb_edgecore(self):
        tb = ESnetTestbed()
        assert tb.path("lan").switch.shared_buffer_bytes == pytest.approx(64 * units.MB)
        assert not tb.path("lan").switch.supports_flow_control

    def test_production_pair_100g_with_fc(self):
        tb = ESnetTestbed()
        snd, rcv = tb.production_host_pair()
        assert snd.nic.speed_gbps == pytest.approx(100.0)
        path = tb.production_path()
        assert path.flow_control
        assert path.rtt_ms == pytest.approx(63.0, abs=0.5)
        assert path.background.active

    def test_unknown_path(self):
        with pytest.raises(ConfigurationError):
            ESnetTestbed().path("metro")


#: (testbed, path, src, dst, route, rtt_sec, bottleneck rate, binding switch).
#: Pinned so that a change to how the topology finds its shortest routes
#: cannot move a testbed path or a number derived from it.
PINNED_ROUTES = [
    (AmLightTestbed, "lan", "dtn-miami-a", "dtn-miami-b",
     ["dtn-miami-a", "sw-miami", "dtn-miami-b"],
     0.0002, 12500000000.0, "NoviFlow WB-5132D-E"),
    (AmLightTestbed, "wan25", "dtn-miami-a", "dtn-fortaleza",
     ["dtn-miami-a", "sw-miami", "sw-fortaleza", "dtn-fortaleza"],
     0.025099999999999997, 12500000000.0, "NoviFlow WB-5132D-E"),
    (AmLightTestbed, "wan54", "dtn-miami-a", "dtn-saopaulo",
     ["dtn-miami-a", "sw-miami", "sw-saopaulo", "dtn-saopaulo"],
     0.0541, 12500000000.0, "NoviFlow WB-5132D-E"),
    (AmLightTestbed, "wan104", "dtn-miami-a", "dtn-santiago",
     ["dtn-miami-a", "sw-miami", "sw-saopaulo", "sw-santiago", "dtn-santiago"],
     0.104, 12500000000.0, "NoviFlow WB-5132D-E"),
    (ESnetTestbed, "lan", "dtn-a", "dtn-b",
     ["dtn-a", "sw-testbed", "dtn-b"],
     0.00012, 25000000000.0, "Edgecore AS9716-32D"),
    (ESnetTestbed, "wan", "dtn-a", "dtn-wan",
     ["dtn-a", "sw-testbed", "sw-wan", "dtn-wan"],
     0.047, 25000000000.0, "Edgecore AS9716-32D"),
]


class TestPinnedRoutes:
    def test_every_path_is_pinned(self):
        pinned = [(tb, name) for tb, name, *_ in PINNED_ROUTES]
        have = [(AmLightTestbed, p.name) for p in AmLightTestbed(kernel="6.8").paths()]
        have += [(ESnetTestbed, p.name) for p in ESnetTestbed().paths()]
        assert pinned == have

    @pytest.mark.parametrize(
        "testbed, name, src, dst, route, rtt_sec, rate, switch",
        PINNED_ROUTES,
        ids=[f"{tb.__name__}-{name}" for tb, name, *_ in PINNED_ROUTES],
    )
    def test_route_and_derived_path(self, testbed, name, src, dst, route, rtt_sec, rate, switch):
        tb = testbed()
        assert tb.topology.route(src, dst) == route
        path = tb.path(name)
        assert path.rtt_sec == rtt_sec  # exact: the delays sum in route order
        assert path.bottleneck.rate_bytes_per_sec == rate
        assert path.switch.model == switch
