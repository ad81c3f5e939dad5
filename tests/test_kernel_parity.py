"""Scalar/vector tick-kernel byte parity.

The vector kernel's contract (``repro.sim.kernels``) is not "close":
it is *byte-identical* to the scalar reference — same
``RunResult`` numbers, same ``ExperimentResult.digest()``, and the
same-seed trace streams must match event for event.  These tests pin
that contract on fixed configurations covering every simulator branch
(mixed congestion control with losses, 802.3x flow control, zerocopy
fallback, pacing), on hypothesis-generated configurations, and on a
registered experiment's digest.

Selection plumbing (env var, programmatic override, factory errors) is
covered at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.kernels import (
    DEFAULT_KERNEL,
    ENV_VAR,
    KERNEL_NAMES,
    ScalarKernel,
    VectorKernel,
    force_kernel,
    forced_kernel,
    kernel_name,
    make_kernel,
)
from repro.tcp.cc.batch import OBJECT_LANES
from repro.tcp.pacing import PacingConfig
from repro.testbeds.amlight import AmLightTestbed
from repro.testbeds.esnet import ESnetTestbed
from repro.trace.bus import ListSink, TraceBus, tracing

PROFILE = SimProfile(duration=4.0, tick=0.008, omit=1.0)


def run_traced(kernel, hosts, path, flows, seed, profile=PROFILE):
    """One traced simulation run under the named kernel."""
    snd, rcv = hosts
    sink = ListSink()
    with forced_kernel(kernel):
        with tracing(TraceBus(sinks=[sink])):
            sim = FlowSimulator(
                snd, rcv, path, flows, profile, RngFactory(seed)
            )
            res = sim.run()
    return res, sink.events


def assert_bit_identical(case_a, case_b):
    """Full-result and full-trace equality, no tolerances anywhere."""
    ra, ea = case_a
    rb, eb = case_b
    assert np.array_equal(ra.per_flow_goodput, rb.per_flow_goodput)
    assert np.array_equal(ra.interval_goodput, rb.interval_goodput)
    assert ra.retransmit_segments == rb.retransmit_segments
    assert ra.loss_events == rb.loss_events
    assert ra.sender_cpu == rb.sender_cpu
    assert ra.receiver_cpu == rb.receiver_cpu
    assert ra.zc_fraction_mean == rb.zc_fraction_mean
    assert ea == eb


#: Fixed configurations covering the simulator's branchy corners.
CASES = {
    # Mixed CC algorithms on a lossy long path: loss reactions, cwnd
    # validation, per-algorithm batch groups.
    "mixed-cc-wan": (
        AmLightTestbed(kernel="6.5"),
        "wan104",
        [
            FlowSpec(cc="bbr1"),
            FlowSpec(cc="reno"),
            FlowSpec(cc="cubic", zerocopy=True),
            FlowSpec(cc="bbr3", pacing=PacingConfig.fq_rate_gbps(20.0)),
        ],
        7,
    ),
    # Homogeneous cubic on a LAN: the steady-state fast path.
    "cubic-lan": (
        AmLightTestbed(kernel="6.8"),
        "lan",
        [FlowSpec(cc="cubic") for _ in range(8)],
        2024,
    ),
    # Parallel unpaced flows, alternating zerocopy: burst trains,
    # concentrated drops, zc fallback fractions.
    "esnet-unpaced": (
        ESnetTestbed(kernel="6.8"),
        "wan",
        [FlowSpec(zerocopy=(i % 2 == 0)) for i in range(16)],
        11,
    ),
    # fq-paced zerocopy receivers skipping the rx copy: the all-smooth
    # (no-trains) path plus the skip-copy receiver cost branch.
    "paced-skip-copy": (
        ESnetTestbed(kernel="6.5"),
        "lan",
        [
            FlowSpec(
                pacing=PacingConfig.fq_rate_gbps(12.0),
                zerocopy=True,
                skip_rx_copy=True,
            )
            for _ in range(4)
        ],
        5,
    ),
    # The full congestion-control zoo on a lossy WAN, one or two flows
    # per algorithm: every kind side by side in the object group.
    "cc-zoo-wan": (
        AmLightTestbed(kernel="6.8"),
        "wan54",
        [
            FlowSpec(cc="highspeed"),
            FlowSpec(cc="htcp"),
            FlowSpec(cc="scalable"),
            FlowSpec(cc="westwood"),
            FlowSpec(cc="tunable-cubic:alpha=1.5,beta=0.5"),
            FlowSpec(cc="tunable-cubic:c=0.2"),
            FlowSpec(cc="cubic"),
            FlowSpec(cc="reno"),
        ],
        13,
    ),
    # Two flows of each of four zoo algorithms: narrow groups, stepped
    # through their scalar objects.
    "cc-zoo-homogeneous": (
        AmLightTestbed(kernel="6.8"),
        "wan104",
        [
            FlowSpec(cc=kind)
            for kind in (
                "highspeed", "htcp", "scalable", "westwood",
            )
            for _ in range(2)
        ],
        29,
    ),
    # OBJECT_LANES flows of each zoo algorithm (incl. the per-flow-
    # parameter tunable group): every array stepper side by side.
    "cc-zoo-array-steppers": (
        AmLightTestbed(kernel="6.8"),
        "wan54",
        [
            FlowSpec(cc=kind)
            for kind in (
                "highspeed", "htcp", "scalable", "westwood", "cubic",
                "reno", "tunable-cubic:alpha=1.5,beta=0.5",
            )
            for _ in range(OBJECT_LANES)
        ],
        31,
    ),
}


class TestFixedConfigParity:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_results_and_trace_bit_identical(self, name):
        tb, path, flows, seed = CASES[name]
        scalar = run_traced("scalar", tb.host_pair(), tb.path(path), flows, seed)
        vector = run_traced("vector", tb.host_pair(), tb.path(path), flows, seed)
        assert_bit_identical(scalar, vector)

    def test_flow_control_path_parity(self):
        """802.3x pause frames (ESnet production DTNs) — the branch
        where ring overflow becomes backpressure, not loss."""
        tb = ESnetTestbed(kernel="6.8")
        flows = [FlowSpec(cc="cubic") for _ in range(6)]
        scalar = run_traced(
            "scalar", tb.production_host_pair(), tb.production_path(), flows, 3
        )
        vector = run_traced(
            "vector", tb.production_host_pair(), tb.production_path(), flows, 3
        )
        assert_bit_identical(scalar, vector)


flow_strategy = st.builds(
    FlowSpec,
    pacing=st.one_of(
        st.just(PacingConfig.unpaced()),
        st.floats(min_value=0.5, max_value=60.0).map(PacingConfig.fq_rate_gbps),
    ),
    zerocopy=st.booleans(),
    skip_rx_copy=st.booleans(),
    cc=st.sampled_from(
        [
            "cubic",
            "reno",
            "bbr1",
            "bbr3",
            "highspeed",
            "htcp",
            "scalable",
            "westwood",
            "tunable-cubic:alpha=2.0,beta=0.6,c=0.5",
        ]
    ),
)


class TestHypothesisParity:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        flows=st.lists(flow_strategy, min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        path=st.sampled_from(["wan54", "wan104", "lan"]),
    )
    def test_random_configs_bit_identical(self, flows, seed, path):
        tb = AmLightTestbed(kernel="6.8")
        scalar = run_traced("scalar", tb.host_pair(), tb.path(path), flows, seed)
        vector = run_traced("vector", tb.host_pair(), tb.path(path), flows, seed)
        assert_bit_identical(scalar, vector)


class TestTimeoutPathParity:
    """``cc_timeout`` (RTO collapse) bit parity between the kernels.

    The fluid driver never RTOs, so this path is pinned directly: both
    kernels process the same tick/loss/timeout schedule and must agree
    on every window and every (flow, before, after) report — including
    post-timeout epoch state, which is where the pre-fix ``on_timeout``
    (base-state-only reset) diverged from a true Linux RTO.
    """

    KINDS = [
        "cubic", "reno", "highspeed", "htcp", "scalable", "westwood",
        "tunable-cubic:alpha=1.2,beta=0.55", "bbr1",
    ]

    @staticmethod
    def _kernel(name, kinds):
        mss = 8960.0
        if name == "scalar":
            return ScalarKernel(
                kinds, mss, [], [],
                run_noise=1.0, snd_app_share=1.0, rcv_app_share=1.0,
                rcv_irq_share=1.0, budget_rx=1.0, agg_rx_base=1.0,
            )
        # Only the congestion hooks are under test; skip the CPU cost
        # half of the constructor (it needs real cost models).
        from repro.tcp.cc.batch import CcBatch

        kern = VectorKernel.__new__(VectorKernel)
        kern.batch = CcBatch(kinds, mss)
        kern.cwnd = kern.batch.cwnd
        return kern

    def _assert_schedule_bit_identical(self, kinds):
        n = len(kinds)
        kernels = {name: self._kernel(name, kinds) for name in ("scalar", "vector")}
        rng = np.random.default_rng(17)
        now, dt, rtt = 0.0, 0.008, 0.054
        max_window = 64 * 1024 * 1024.0
        pace_eff = np.full(n, 1e10)
        for step in range(800):
            now += dt
            cwnd = kernels["scalar"].cwnd
            delivered = rng.uniform(0.0, 2.5, n) * cwnd * (dt / rtt)
            al_mask = rng.random(n) < 0.05
            loss_idx = np.nonzero(rng.random(n) < 0.01)[0]
            to_idx = np.nonzero(rng.random(n) < 0.004)[0]
            reports = {}
            for name, kern in kernels.items():
                pace = kern.pacing(rtt, pace_eff).tolist()
                losses = kern.cc_feedback(
                    now, dt, rtt, delivered, loss_idx, al_mask, max_window
                )
                timeouts = kern.cc_timeout(now, to_idx)
                reports[name] = (pace, losses, timeouts)
            assert reports["scalar"] == reports["vector"], step
            assert np.array_equal(
                kernels["scalar"].cwnd, kernels["vector"].cwnd
            ), step

    def test_timeout_schedule_bit_identical(self):
        self._assert_schedule_bit_identical(self.KINDS)

    def test_bbr_beside_a_cubic_stepper_bit_identical(self):
        """BBR's objects and an array-stepped cubic group in one batch."""
        from repro.tcp.cc import Cubic
        from repro.tcp.cc.batch import _ObjectGroup

        kinds = ["cubic"] * OBJECT_LANES
        kinds[3:3] = ["bbr1"]
        groups = self._kernel("vector", kinds).batch._groups
        assert [type(g) for g in groups] == [Cubic.batch_group, _ObjectGroup]
        assert groups[1].idx.tolist() == [3]
        self._assert_schedule_bit_identical(kinds)


class TestExperimentDigestParity:
    def test_registered_experiment_digest_identical(self):
        """End-to-end through the harness: the committed digest form."""
        from repro.runner import RunnerConfig, run_experiments

        from tests._golden import GOLDEN_CONFIG

        digests = {}
        for kernel in KERNEL_NAMES:
            with forced_kernel(kernel):
                report = run_experiments(
                    ["pit-fqrate"],
                    config=GOLDEN_CONFIG,
                    runner=RunnerConfig(jobs=1, use_cache=False),
                )
            (result,) = report.results
            digests[kernel] = result.digest()
        assert digests["scalar"] == digests["vector"]


class TestSelection:
    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        force_kernel(None)
        assert kernel_name() == DEFAULT_KERNEL == "vector"

    def test_env_var_selects_scalar(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "scalar")
        force_kernel(None)
        assert kernel_name() == "scalar"

    def test_env_var_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "simd")
        force_kernel(None)
        with pytest.raises(ConfigurationError):
            kernel_name()

    def test_force_kernel_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            force_kernel("cuda")

    def test_forced_kernel_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        force_kernel(None)
        with forced_kernel("scalar"):
            assert kernel_name() == "scalar"
            with forced_kernel("vector"):
                assert kernel_name() == "vector"
            assert kernel_name() == "scalar"
        assert kernel_name() == DEFAULT_KERNEL

    def test_make_kernel_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            make_kernel("cuda", ["cubic"], 8960.0, [], [])

    def test_make_kernel_dispatch(self, monkeypatch):
        from repro.sim.flowsim import RunSetup

        monkeypatch.delenv(ENV_VAR, raising=False)
        tb = AmLightTestbed(kernel="6.8")
        rng = RngFactory(0)
        setup = RunSetup(
            *tb.host_pair(), tb.path("lan"), [(FlowSpec(), 2)], PROFILE,
            rng=rng, rep=0, jitter_rng=rng.stream("hostjitter", 0),
            place_rng=rng.stream("placement", 0),
            bg_rng=rng.stream("background", 0), context="test",
        )
        kernels = {"scalar": ScalarKernel, "vector": VectorKernel}
        assert set(KERNEL_NAMES) == set(kernels)
        for name, cls in kernels.items():
            assert type(setup.kernel(0, 2, name)) is cls
            with forced_kernel(name):
                assert type(setup.kernel(0, 2, None)) is cls
