"""The opt-in runtime simulation sanitizer (repro.sim.sanitizer).

Covers the toggle plumbing (env var / enable / context manager), each
invariant check in isolation, the wiring into ``Engine`` and
``FlowSimulator``, a fault-injection proof that broken conservation is
actually caught, and the hypothesis determinism guard: a sanitized
engine run replays to an identical event trace given the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.errors import SanitizerViolation, SimulationError
from repro.core.rng import RngFactory
from repro.net.switch import SharedBufferQueue
from repro.sim import sanitizer
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.sanitizer import SimSanitizer
from repro.sim.shard import ShardedFlowSimulator
from repro.testbeds.amlight import AmLightTestbed


@pytest.fixture(autouse=True)
def _restore_sanitizer_state():
    yield
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


def quick_sharded(seed: int = 3, path: str = "wan54") -> ShardedFlowSimulator:
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    return ShardedFlowSimulator(
        snd, rcv, tb.path(path),
        flows=[FlowSpec()],
        profile=SimProfile.quick(),
        rng=RngFactory(seed),
        shards=1,
        mode="inproc",
    )


#: Both flow engines share one link step, so both carry the sanitizer.
ENGINES = {"flowsim": quick_sim, "shard": quick_sharded}


class TestToggle:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        sanitizer.reset()
        assert not sanitizer.enabled()

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_env_var_truthy(self, monkeypatch, value):
        monkeypatch.setenv(sanitizer.ENV_VAR, value)
        sanitizer.reset()
        assert sanitizer.enabled()

    @pytest.mark.parametrize("value", ["0", "false", "", "off"])
    def test_env_var_falsy(self, monkeypatch, value):
        monkeypatch.setenv(sanitizer.ENV_VAR, value)
        sanitizer.reset()
        assert not sanitizer.enabled()

    def test_enable_overrides_env(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "0")
        sanitizer.enable()
        assert sanitizer.enabled()
        sanitizer.disable()
        assert not sanitizer.enabled()

    def test_context_manager_restores(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        sanitizer.reset()
        with sanitizer.sanitized():
            assert sanitizer.enabled()
        assert not sanitizer.enabled()

    def test_violation_is_simulation_error(self):
        assert issubclass(SanitizerViolation, SimulationError)


class TestChecks:
    def test_time_monotonic_ok(self):
        san = SimSanitizer()
        san.check_time(0.0)
        san.check_time(0.0)  # equal is fine (simultaneous events)
        san.check_time(1.5)
        assert san.checks == 3

    def test_time_backwards_raises(self):
        san = SimSanitizer()
        san.check_time(2.0)
        with pytest.raises(SanitizerViolation, match="backwards"):
            san.check_time(1.0)

    def test_time_nan_raises(self):
        with pytest.raises(SanitizerViolation, match="non-finite"):
            SimSanitizer().check_time(float("nan"))

    def test_reset_clock_allows_rewind(self):
        san = SimSanitizer()
        san.check_time(5.0)
        san.reset_clock()
        san.check_time(0.0)

    def test_non_negative_ok_scalar_and_array(self):
        san = SimSanitizer()
        san.check_non_negative("q", 0.0)
        san.check_non_negative("q", np.array([0.0, 1.0, 2.0]))

    def test_non_negative_catches_negative_element(self):
        with pytest.raises(SanitizerViolation, match="negative"):
            SimSanitizer().check_non_negative("q", np.array([1.0, -0.5]))

    def test_non_negative_catches_nan(self):
        with pytest.raises(SanitizerViolation, match="non-finite"):
            SimSanitizer().check_non_negative("q", float("nan"))

    def test_positive_catches_zero(self):
        with pytest.raises(SanitizerViolation, match="> 0"):
            SimSanitizer().check_positive("cwnd", 0.0)

    def test_account_link_balanced(self):
        SimSanitizer().account_link(
            "l", offered=100.0, delivered=60.0, dropped=10.0,
            queue_before=5.0, queue_after=35.0,
        )

    def test_account_link_created_bytes_raises(self):
        with pytest.raises(SanitizerViolation, match="created"):
            SimSanitizer().account_link(
                "l", offered=100.0, delivered=150.0, dropped=0.0,
                queue_before=0.0, queue_after=0.0,
            )

    def test_account_link_vanished_bytes_raises(self):
        with pytest.raises(SanitizerViolation, match="lost"):
            SimSanitizer().account_link(
                "l", offered=100.0, delivered=10.0, dropped=0.0,
                queue_before=0.0, queue_after=0.0,
            )

    def test_account_link_flow_control_may_hold_back(self):
        SimSanitizer().account_link(
            "l", offered=100.0, delivered=10.0, dropped=0.0,
            queue_before=0.0, queue_after=0.0, flow_control=True,
        )

    def test_stream_registry_clean(self):
        rng = RngFactory(seed=1)
        rng.stream("a")
        rng.stream("b")
        SimSanitizer().check_stream_registry(rng)


class TestEngineWiring:
    def test_engine_without_sanitizer_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitizer.ENV_VAR, raising=False)
        sanitizer.reset()
        assert Engine().sanitizer is None

    def test_engine_picks_up_env(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "1")
        sanitizer.reset()
        assert Engine().sanitizer is not None

    def test_engine_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(sanitizer.ENV_VAR, "1")
        sanitizer.reset()
        assert Engine(sanitize=False).sanitizer is None
        monkeypatch.setenv(sanitizer.ENV_VAR, "0")
        sanitizer.reset()
        assert Engine(sanitize=True).sanitizer is not None

    def test_sanitized_engine_runs_clean(self):
        eng = Engine(sanitize=True)
        fired = []
        for t in (0.5, 0.1, 0.3):
            eng.schedule(t, lambda t=t: fired.append(t))
        eng.run()
        assert fired == [0.1, 0.3, 0.5]
        assert eng.sanitizer.checks >= 3

    def test_sanitized_engine_survives_reset(self):
        eng = Engine(sanitize=True)
        eng.schedule(1.0, lambda: None)
        eng.run()
        eng.reset()
        eng.schedule(0.1, lambda: None)  # earlier than the old clock
        eng.run()


class TestFlowsimWiring:
    def test_quick_run_clean_under_sanitizer(self):
        with sanitizer.sanitized():
            result = quick_sim().run()
        assert result.total_gbps > 0

    def test_flow_control_path_clean_under_sanitizer(self):
        # Held-back bytes on 802.3x paths must not trip conservation.
        from repro.testbeds.esnet import ESnetTestbed

        tb = ESnetTestbed(kernel="6.8")
        snd, rcv = tb.production_host_pair()
        sim = FlowSimulator(
            snd, rcv, tb.production_path(),
            flows=[FlowSpec() for _ in range(4)],
            profile=SimProfile.quick(),
            rng=RngFactory(5),
        )
        with sanitizer.sanitized():
            result = sim.run()
        assert result.total_gbps > 0

    def test_replay_bitwise_identical_under_sanitizer(self):
        with sanitizer.sanitized():
            a = quick_sim(seed=11).run()
            b = quick_sim(seed=11).run()
        assert a.total_gbps == b.total_gbps
        assert a.retransmit_segments == b.retransmit_segments

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_broken_conservation_is_caught(self, monkeypatch, engine):
        original = SharedBufferQueue.offer

        def lying_offer(self, arrival_bytes, dt):
            delivered, dropped = original(self, arrival_bytes, dt)
            return delivered + 1e9, dropped  # mint a gigabyte

        monkeypatch.setattr(SharedBufferQueue, "offer", lying_offer)
        sim = ENGINES[engine]()
        with sanitizer.sanitized():
            with pytest.raises(SanitizerViolation, match="created"):
                sim.run()

    def test_disabled_sanitizer_ignores_fault(self, monkeypatch):
        # Same fault, sanitizer off: the conservation bug sails through,
        # which is exactly why the sanitizer exists.
        original = SharedBufferQueue.offer

        def lying_offer(self, arrival_bytes, dt):
            delivered, dropped = original(self, arrival_bytes, dt)
            return delivered + 1e9, dropped

        monkeypatch.setattr(SharedBufferQueue, "offer", lying_offer)
        with sanitizer.sanitized(False):
            quick_sim().run()  # no exception


class TestEngineTraceDeterminism:
    """Satellite: hypothesis guard — same seed, identical event trace."""

    @staticmethod
    def _trace(seed: int) -> list[tuple[float, int]]:
        events: list[tuple[float, int]] = []
        with sanitizer.sanitized():
            eng = Engine()
            rng = RngFactory(seed).stream("engine-trace")

            def fire(tag: int) -> None:
                events.append((eng.now, tag))
                if len(events) >= 60:
                    return
                eng.call_in(
                    float(rng.exponential(0.01)),
                    lambda: fire(tag + 1),
                    priority=int(rng.integers(0, 3)),
                )
                if rng.random() < 0.3:
                    eng.call_in(float(rng.exponential(0.02)),
                                lambda: fire(-tag))

            for k in range(5):
                eng.schedule(float(rng.uniform(0.0, 0.05)),
                             (lambda kk: lambda: fire(kk))(k))
            eng.run(max_events=10_000)
        return events

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_identical_trace_across_replays(self, seed):
        assert self._trace(seed) == self._trace(seed)
