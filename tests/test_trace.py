"""The repro.trace observability subsystem.

Covers the four tentpole pieces from the inside out:

* the event bus (sequencing, category filtering, edge triggers, scoped
  tracks) and both sinks, including ring-buffer overflow accounting;
* exporters — Perfetto/Chrome ``trace_event`` JSON validated against
  the shipped schema checker, CSV, and digest stability;
* the per-flow conservation ledger, both on synthetic streams and live
  inside a sanitized simulation (including a fault injection the
  link-level sanitizer cannot see);
* the zero-cost-when-disabled and deterministic-when-enabled contracts
  on real :class:`~repro.sim.flowsim.FlowSimulator` runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import SanitizerViolation, SimulationError
from repro.core.rng import RngFactory
from repro.sim import sanitizer
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.testbeds.amlight import AmLightTestbed
from repro.trace import (
    CATEGORIES,
    DEFAULT_EXPORT_CATEGORIES,
    FlowConservationLedger,
    ListSink,
    RingSink,
    TraceBus,
    TraceEvent,
    TraceSpec,
    dump_perfetto,
    events_digest,
    to_csv,
    to_perfetto,
    tracing,
    validate_perfetto,
)
from repro.trace import bus as trace_bus


@pytest.fixture(autouse=True)
def _no_leaked_bus():
    yield
    trace_bus.uninstall()
    sanitizer.reset()


def quick_sim(seed: int = 3, path: str = "wan54", **flow_kw) -> FlowSimulator:
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    return FlowSimulator(
        snd, rcv, tb.path(path),
        flows=[FlowSpec(**flow_kw)],
        profile=SimProfile.quick(),
        rng=RngFactory(seed),
    )


def flow_tick(seq, t, **args) -> TraceEvent:
    base = dict(flow=0, sent=1000.0, delivered=900.0, dropped=100.0,
                alloc=1e6, cwnd=1e5, rtt=0.05)
    base.update(args)
    return TraceEvent(seq=seq, t=t, cat="flow", name="flow.tick", args=base)


class TestBus:
    def test_emit_sequences_and_timestamps(self):
        sink = ListSink()
        bus = TraceBus(sinks=[sink])
        bus.set_time(1.5)
        bus.emit("run", "run.start", rep=0)
        bus.set_time(2.0)
        bus.emit("cc", "cc.loss", flow=1)
        assert [e.seq for e in sink.events] == [0, 1]
        assert [e.t for e in sink.events] == [1.5, 2.0]
        assert bus.emitted == 2

    def test_unwanted_category_costs_no_event(self):
        sink = ListSink(categories=["cc"])
        bus = TraceBus(sinks=[sink])
        assert bus.wants("cc") and not bus.wants("flow")
        assert bus.emit("flow", "flow.tick") is None
        assert bus.emitted == 0
        bus.emit("cc", "cc.loss")
        assert len(sink.events) == 1

    def test_per_sink_filtering(self):
        everything = ListSink()
        only_probe = ListSink(categories=["probe"])
        bus = TraceBus(sinks=[everything, only_probe])
        bus.emit("probe", "probe.nic")
        bus.emit("run", "run.end")
        assert len(everything.events) == 2
        assert [e.name for e in only_probe.events] == ["probe.nic"]

    def test_unknown_category_rejected(self):
        with pytest.raises(SimulationError, match="unknown trace categories"):
            ListSink(categories=["bogus"])

    def test_edge_trigger_semantics(self):
        sink = ListSink()
        bus = TraceBus(sinks=[sink])
        # initial falsy observation is silent
        assert bus.emit_edge("k", "switch", "drop", False) is None
        # unchanged: silent; changed: fires
        assert bus.emit_edge("k", "switch", "drop", False) is None
        assert bus.emit_edge("k", "switch", "drop", True) is not None
        assert bus.emit_edge("k", "switch", "drop", True) is None
        assert bus.emit_edge("k", "switch", "drop", False) is not None
        # initial truthy observation fires immediately (separate key)
        assert bus.emit_edge("k2", "switch", "drop", True) is not None
        assert [e.args["value"] for e in sink.events] == [True, False, True]

    def test_scoped_tracks_nest(self):
        sink = ListSink()
        bus = TraceBus(sinks=[sink])
        with bus.scoped("caseA"):
            bus.emit("run", "run.start")
            with bus.scoped("r0"):
                bus.emit("run", "run.end")
        bus.emit("run", "outside")
        assert [e.track for e in sink.events] == ["caseA", "caseA/r0", ""]

    def test_install_does_not_nest(self):
        with tracing():
            assert trace_bus.active() is not None
            with pytest.raises(SimulationError, match="already installed"):
                trace_bus.install(TraceBus())
        assert trace_bus.active() is None

    def test_disabled_by_default(self):
        assert trace_bus.active() is None
        assert trace_bus.flight_recorder_tail() == ""


class TestRingSink:
    def test_overflow_accounting(self):
        ring = RingSink(capacity=4)
        bus = TraceBus(sinks=[ring])
        for i in range(10):
            bus.set_time(float(i))
            bus.emit("engine", "engine.dispatch", seq=i)
        assert ring.written == 10
        assert ring.dropped == 6
        assert [e.args["seq"] for e in ring.events] == [6, 7, 8, 9]

    def test_no_overflow_no_drops(self):
        ring = RingSink(capacity=8)
        bus = TraceBus(sinks=[ring])
        for i in range(5):
            bus.emit("engine", "engine.dispatch", seq=i)
        assert ring.dropped == 0
        assert [e.args["seq"] for e in ring.events] == list(range(5))

    def test_capacity_validated(self):
        with pytest.raises(SimulationError, match="capacity"):
            RingSink(capacity=0)

    def test_flight_recorder_tail_renders(self):
        bus = TraceBus(sinks=[RingSink(capacity=3)])
        with tracing(bus):
            for i in range(5):
                bus.emit("cc", "cc.loss", flow=i)
            tail = trace_bus.flight_recorder_tail()
        assert "flight recorder (last 3 events)" in tail
        assert "cc.loss" in tail and "flow=4" in tail


class TestTraceSpec:
    def test_defaults_exclude_per_tick_flow(self):
        spec = TraceSpec()
        assert spec.resolved_categories() == DEFAULT_EXPORT_CATEGORIES
        assert "flow" not in spec.resolved_categories()
        assert isinstance(spec.make_sink(), ListSink)

    def test_buffer_selects_ring(self):
        sink = TraceSpec(buffer=16).make_sink()
        assert isinstance(sink, RingSink) and sink.capacity == 16

    @pytest.mark.parametrize("kw", [
        {"interval": 0.0},
        {"interval": -1.0},
        {"buffer": -1},
        {"categories": ("nope",)},
    ])
    def test_validation(self, kw):
        with pytest.raises(SimulationError):
            TraceSpec(**kw)


class TestExport:
    def stream(self):
        return [
            TraceEvent(0, 0.0, "run", "run.start", track="fig#r0",
                       args={"rep": 0}),
            TraceEvent(1, 0.25, "probe", "probe.socket", track="fig#r0",
                       args={"flow": 0, "cwnd": 1e6, "rtt_ms": 54.0}),
            TraceEvent(2, 0.5, "flowcontrol", "fc.pause", track="fig#r0",
                       args={"port": "rx-ring", "value": True}),
            TraceEvent(3, 0.75, "probe", "probe.mpstat", track="fig#r1",
                       args={"snd_app_pct": 80.0}),
        ]

    def test_perfetto_is_schema_valid(self):
        doc = to_perfetto(self.stream(), meta={"exp_id": "figX"})
        assert validate_perfetto(doc) == []
        assert doc["otherData"]["exp_id"] == "figX"
        assert doc["otherData"]["event_count"] == 4

    def test_perfetto_structure(self):
        doc = to_perfetto(self.stream())
        events = doc["traceEvents"]
        # one process_name metadata record per distinct track
        meta = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["fig#r0", "fig#r1"]
        # probes are counters, suffixed per flow; others instants
        counters = [e for e in events if e["ph"] == "C"]
        assert [c["name"] for c in counters] == [
            "probe.socket/flow0", "probe.mpstat",
        ]
        assert all(
            isinstance(v, (int, float)) for c in counters
            for v in c["args"].values()
        )
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        # simulated seconds -> microseconds
        assert counters[0]["ts"] == 250000.0

    def test_validator_catches_problems(self):
        doc = to_perfetto(self.stream())
        del doc["otherData"]["digest"]
        counter = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        counter["args"]["note"] = "not-a-number"
        problems = validate_perfetto(doc)
        assert any("digest" in p for p in problems)
        assert any("numeric" in p for p in problems)

    def test_csv_shape(self):
        text = to_csv(self.stream())
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == ["seq", "t", "cat", "name", "track"]
        # first-seen arg order across the stream (args sorted per event)
        assert header[5:] == ["rep", "cwnd", "flow", "rtt_ms", "port",
                              "value", "snd_app_pct"]
        assert len(lines) == 5
        assert lines[2].split(",")[3] == "probe.socket"

    def test_digest_stable_across_forms(self):
        events = self.stream()
        docs = [e.to_dict() for e in events]
        assert events_digest(events) == events_digest(docs)

    def test_dump_is_canonical(self):
        a = dump_perfetto(to_perfetto(self.stream()))
        b = dump_perfetto(to_perfetto([e.to_dict() for e in self.stream()]))
        assert a == b and a.endswith("\n")


class TestLedgerSynthetic:
    def ledger(self) -> FlowConservationLedger:
        return FlowConservationLedger(n_flows=2, mss=1448.0, context="test")

    def test_clean_stream_passes(self):
        led = self.ledger()
        for seq in range(10):
            led.write(flow_tick(seq, seq * 0.01))
        assert led.checks == 10

    def test_negative_bytes_caught(self):
        with pytest.raises(SanitizerViolation, match="negative byte count"):
            self.ledger().write(flow_tick(0, 0.0, sent=-5.0))

    def test_delivered_exceeding_sent_caught(self):
        with pytest.raises(SanitizerViolation, match="cannot deliver"):
            self.ledger().write(flow_tick(0, 0.0, sent=100.0,
                                          delivered=200.0, dropped=0.0))

    def test_vanished_bytes_caught(self):
        with pytest.raises(SanitizerViolation, match="vanished"):
            self.ledger().write(flow_tick(0, 0.0, sent=1000.0,
                                          delivered=100.0, dropped=0.0))

    def test_overdropping_allowed(self):
        # burst-train concentration drops more than one tick's emission
        led = self.ledger()
        led.write(flow_tick(0, 0.0, sent=1000.0, delivered=500.0,
                            dropped=5000.0))
        assert led.checks == 1

    def test_window_overshoot_caught(self):
        with pytest.raises(SanitizerViolation, match="exceeds cwnd"):
            # 1e7 B/s * 0.05 s = 500 KB in flight against a 100 KB window
            self.ledger().write(flow_tick(0, 0.0, alloc=1e7, cwnd=1e5,
                                          rtt=0.05))

    def test_cumulative_delivery_bound(self):
        led = self.ledger()
        # each tick individually fine (delivered == sent), then one tick
        # delivers slightly more than it sent but within per-tick tol...
        led.write(flow_tick(0, 0.0, sent=1000.0, delivered=1000.0, dropped=0.0))
        with pytest.raises(SanitizerViolation, match="cannot deliver"):
            led.write(flow_tick(1, 0.01, sent=0.0, delivered=500.0, dropped=0.0))

    def test_violation_carries_flight_recorder_tail(self):
        bus = TraceBus(sinks=[ListSink()])
        with tracing(bus):
            bus.emit("cc", "cc.loss", flow=0)
            with pytest.raises(SanitizerViolation) as excinfo:
                self.ledger().write(flow_tick(0, 0.0, sent=-5.0))
        assert "flight recorder" in str(excinfo.value)
        assert "cc.loss" in str(excinfo.value)


class TestLedgerLive:
    def test_ledger_runs_under_sanitizer(self):
        sim = quick_sim()
        with sanitizer.sanitized():
            sim.run()
        assert sim.last_ledger is not None
        assert sim.last_ledger.checks > 100

    def test_no_ledger_without_sanitizer(self):
        sim = quick_sim()
        sim.run()
        assert sim.last_ledger is None

    def test_allocator_overshoot_caught_per_flow(self, monkeypatch):
        # An allocator that ignores the cwnd caps conserves bytes at
        # every queue (the link-level sanitizer stays happy) but hands
        # flows more than their window covers — only the per-flow
        # ledger can see that.
        # FlowSimulator's numerics look the allocator up in the shared
        # tick driver's module.
        from repro.sim import engine as engine_mod

        def greedy_allocate(caps, capacity, weights=None, *, validate=True):
            return np.full_like(np.asarray(caps, dtype=float), capacity)

        monkeypatch.setattr(engine_mod, "maxmin_allocate", greedy_allocate)
        sim = quick_sim()
        with sanitizer.sanitized():
            with pytest.raises(SanitizerViolation, match="exceeds cwnd"):
                sim.run()


class TestSimTracing:
    def test_disabled_means_no_bus_and_no_events(self):
        assert trace_bus.active() is None
        res = quick_sim().run()
        assert res.total_gbps > 0  # ran fine with zero tracing state

    def test_traced_run_emits_taxonomy(self):
        sink = ListSink()
        with tracing(TraceBus(sinks=[sink], probe_interval=0.25)):
            quick_sim().run()
        names = {e.name for e in sink.events}
        assert {"run.start", "run.end", "probe.socket", "probe.mpstat",
                "probe.nic", "flow.tick"} <= names
        cats = {e.cat for e in sink.events}
        assert cats <= set(CATEGORIES)

    def test_probe_interval_respected(self):
        sink = ListSink(categories=["probe"])
        with tracing(TraceBus(sinks=[sink], probe_interval=1.0)):
            quick_sim().run()
        mpstat = [e for e in sink.events if e.name == "probe.mpstat"]
        # quick profile: 8 s at 1 s stride -> one sample per second
        assert 6 <= len(mpstat) <= 9
        times = [e.t for e in mpstat]
        strides = np.diff(times)
        assert np.allclose(strides, 1.0, atol=0.01)

    def test_same_seed_same_event_stream(self):
        digests = []
        for _ in range(2):
            sink = ListSink()
            with tracing(TraceBus(sinks=[sink])):
                quick_sim(seed=11).run(rep=1)
            digests.append(events_digest(sink.events))
        assert digests[0] == digests[1]

    def test_tracing_does_not_change_results(self):
        plain = quick_sim(seed=7).run(rep=0)
        sink = ListSink()
        with tracing(TraceBus(sinks=[sink])):
            traced = quick_sim(seed=7).run(rep=0)
        assert traced.total_goodput == plain.total_goodput
        assert traced.retransmit_segments == plain.retransmit_segments
        assert np.array_equal(traced.per_flow_goodput, plain.per_flow_goodput)
        assert len(sink.events) > 0

    def test_run_end_reports_result_shape(self):
        sink = ListSink(categories=["run"])
        with tracing(TraceBus(sinks=[sink])):
            res = quick_sim().run()
        end = [e for e in sink.events if e.name == "run.end"][-1]
        assert end.args["gbps"] == pytest.approx(res.total_gbps, abs=1e-5)

    def test_sanitizer_violation_includes_recent_events(self, monkeypatch):
        from repro.net.switch import SharedBufferQueue

        original = SharedBufferQueue.offer

        def lying_offer(self, arrival_bytes, dt):
            delivered, dropped = original(self, arrival_bytes, dt)
            return delivered + 1e9, dropped

        monkeypatch.setattr(SharedBufferQueue, "offer", lying_offer)
        sim = quick_sim()
        with tracing(TraceBus(sinks=[RingSink(capacity=32)])):
            with sanitizer.sanitized():
                with pytest.raises(SanitizerViolation) as excinfo:
                    sim.run()
        assert "flight recorder" in str(excinfo.value)


class TestHarnessTracks:
    def test_repetitions_get_scoped_tracks(self):
        from repro.tools.harness import HarnessConfig, TestHarness
        from repro.tools.iperf3 import Iperf3Options

        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        harness = TestHarness(snd, rcv, tb.path("lan"),
                              HarnessConfig(repetitions=2, duration=2.0,
                                            omit=0.5, tick=0.008))
        sink = ListSink(categories=["run"])
        with tracing(TraceBus(sinks=[sink])):
            harness.run(Iperf3Options(), label="lan-case")
        tracks = {e.track for e in sink.events}
        assert tracks == {"lan-case#r0", "lan-case#r1"}
