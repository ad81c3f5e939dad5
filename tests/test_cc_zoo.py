"""The congestion-control zoo: algorithms, registry dispatch, RTO reset.

Three families of pins:

* scalar algorithm behaviour — the response-function shapes that make
  each zoo member worth simulating (HighSpeed's log-linear backoff,
  H-TCP's elapsed-time alpha, Scalable's MIMD invariance, Westwood's
  bandwidth-estimate ssthresh, TunableCubic's knob plumbing);
* the batch registry — :class:`CcBatch` derives group membership and
  ordering from one registry, subclasses of batched algorithms must
  register or raise (never silently fall back to the slow object path
  computing who-knows-whose dynamics), and the batch picks the array
  stepper or the scalar objects per algorithm by lane count
  (``OBJECT_LANES``); every array stepper, at the width that selects
  it, matches the scalar objects step for step;
* the RTO reset — ``on_timeout`` must clear algorithm epoch state via
  ``_react_to_timeout``, not just the base window fields.  The H-TCP
  and Cubic assertions here fail against the pre-fix base class (which
  reset only :class:`CcState`), including through the micro simulator's
  real ``_on_rto`` path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.tcp.cc import (
    Bbr1,
    CC_ALGORITHMS,
    Cubic,
    HighSpeed,
    HTcp,
    Scalable,
    TunableCubic,
    WestwoodPlus,
    make_cc,
)
from repro.tcp.cc.batch import (
    OBJECT_LANES,
    CcBatch,
    _ObjectGroup,
    group_class_for,
    template_kinds,
)
from repro.tcp.cc.highspeed import A_STEP, B_STEP, W_BOUNDS

MSS = 8960.0


def _into_ca(cc, now=0.0, rtt=0.05, ticks=40):
    """Drive a CC out of slow start into congestion avoidance."""
    cc.on_loss(now, rtt)  # exits slow start via the loss reaction
    return cc


def _ca_growth(cc, now, rtt=0.05, delivered=None):
    """One congestion-avoidance tick's cwnd delta."""
    if delivered is None:
        delivered = cc.cwnd_bytes
    before = cc.cwnd_bytes
    cc.on_tick(now, 0.008, delivered, rtt)
    return cc.cwnd_bytes - before


class TestHighSpeed:
    def test_table_shape(self):
        # Below w=38 the response is standard Reno (a=1, b=0.5); both
        # schedules are monotone toward a>>1, b=0.1 at w=83000.
        assert W_BOUNDS[0] == pytest.approx(38.0)
        assert A_STEP[0] == 1.0 and B_STEP[0] == 0.5
        # Monotone within the table (the Reno->table seam at w=38 dips
        # to a(38) ~ 0.95 by the RFC formula — continuity is approximate).
        assert np.all(np.diff(A_STEP[1:]) > 0)
        assert np.all(np.diff(B_STEP[1:]) <= 0)
        assert A_STEP[-1] > 60.0
        assert B_STEP[-1] == pytest.approx(0.1, abs=0.01)

    def test_small_window_is_reno(self):
        hs = _into_ca(HighSpeed(mss=MSS))
        rn = _into_ca(make_cc("reno", mss=MSS))
        rn.state.cwnd_bytes = hs.state.cwnd_bytes = 20 * MSS
        assert _ca_growth(hs, 1.0) == _ca_growth(rn, 1.0)

    def test_large_window_grows_faster_and_backs_off_less(self):
        hs = _into_ca(HighSpeed(mss=MSS))
        rn = _into_ca(make_cc("reno", mss=MSS))
        rn.state.cwnd_bytes = hs.state.cwnd_bytes = 5000 * MSS
        assert _ca_growth(hs, 1.0) > 10 * _ca_growth(rn, 1.0)
        hs.state.cwnd_bytes = 5000 * MSS
        hs.on_loss(100.0, 0.05)
        assert hs.state.cwnd_bytes > 0.7 * 5000 * MSS  # b(5000) ~ 0.25


class TestHTcp:
    def test_alpha_is_reno_within_delta_l(self):
        ht = _into_ca(HTcp(mss=MSS))
        ht.state.cwnd_bytes = 100 * MSS
        # First CA tick seeds the epoch clock; within 1s alpha == 1.
        g0 = _ca_growth(ht, 1.0)
        assert g0 == pytest.approx(MSS, rel=1e-9)

    def test_alpha_grows_with_epoch_age(self):
        ht = _into_ca(HTcp(mss=MSS))
        ht.state.cwnd_bytes = 100 * MSS
        _ca_growth(ht, 1.0)  # seed clock at t=1
        ht.state.cwnd_bytes = 100 * MSS
        g_old = _ca_growth(ht, 6.0)  # delta ~ 5s: alpha ~ 1+40+4
        assert g_old > 20 * MSS

    def test_beta_tracks_rtt_ratio(self):
        ht = HTcp(mss=MSS)
        ht.state.in_slow_start = False
        ht.state.cwnd_bytes = 100 * MSS
        ht.on_tick(0.5, 0.008, MSS, 0.040)
        ht.on_tick(1.0, 0.008, MSS, 0.060)  # min/max = 2/3
        before = ht.state.cwnd_bytes
        ht.on_loss(2.0, 0.05)
        assert ht.state.cwnd_bytes == pytest.approx(
            before * (0.040 / 0.060), rel=1e-9
        )

    def test_beta_clips_to_bounds(self):
        ht = HTcp(mss=MSS)
        ht.state.in_slow_start = False
        ht.state.cwnd_bytes = 100 * MSS
        ht.on_tick(0.5, 0.008, MSS, 0.010)
        ht.on_tick(1.0, 0.008, MSS, 0.100)  # ratio 0.1 -> clip 0.5
        before = ht.state.cwnd_bytes
        ht.on_loss(2.0, 0.05)
        assert ht.state.cwnd_bytes == pytest.approx(before * 0.5, rel=1e-9)


class TestScalable:
    def test_mimd_growth_and_backoff_are_scale_invariant(self):
        sc = _into_ca(Scalable(mss=MSS))
        for w in (100 * MSS, 10_000 * MSS):
            sc.state.cwnd_bytes = w
            assert _ca_growth(sc, 1.0, delivered=w) == pytest.approx(
                0.01 * w, rel=1e-9
            )
        sc.state.cwnd_bytes = 10_000 * MSS
        sc.on_loss(100.0, 0.05)
        assert sc.state.cwnd_bytes == pytest.approx(
            0.875 * 10_000 * MSS, rel=1e-9
        )


class TestWestwood:
    def test_loss_sets_ssthresh_to_estimated_bdp(self):
        ww = WestwoodPlus(mss=MSS)
        ww.state.in_slow_start = False
        rtt = 0.05
        rate = 2.5e9 / 8  # bytes/s
        now = 0.0
        for _ in range(400):  # converge the 7/8-1/8 filter
            now += 0.008
            ww.on_tick(now, 0.008, rate * 0.008, rtt)
        assert ww._bw_est == pytest.approx(rate, rel=0.05)
        ww.state.cwnd_bytes = 4 * rate * rtt
        ww.on_loss(now, rtt)
        assert ww.state.cwnd_bytes == pytest.approx(rate * rtt, rel=0.05)
        assert ww.state.ssthresh_bytes == ww.state.cwnd_bytes

    def test_random_loss_at_sustained_rate_costs_little(self):
        # The Westwood selling point: when delivery rate has not
        # dropped, a loss barely dents the window (vs Reno's halving).
        ww = WestwoodPlus(mss=MSS)
        ww.state.in_slow_start = False
        rtt, rate = 0.05, 1.25e9 / 8
        now = 0.0
        for _ in range(400):
            now += 0.008
            ww.on_tick(now, 0.008, rate * 0.008, rtt)
        ww.state.cwnd_bytes = rate * rtt * 1.05  # just above BDP
        before = ww.state.cwnd_bytes
        ww.on_loss(now, rtt)
        assert ww.state.cwnd_bytes > 0.85 * before


class TestTunableCubic:
    def test_defaults_are_bit_identical_to_cubic(self):
        a, b = Cubic(mss=MSS), TunableCubic(mss=MSS)
        now = 0.0
        for step in range(500):
            now += 0.008
            d = a.cwnd_bytes * 0.16
            a.on_tick(now, 0.008, d, 0.05)
            b.on_tick(now, 0.008, d, 0.05)
            if step in (120, 300):
                a.on_loss(now, 0.05)
                b.on_loss(now, 0.05)
            assert a.cwnd_bytes == b.cwnd_bytes

    def test_beta_controls_backoff(self):
        tc = _into_ca(TunableCubic(mss=MSS, beta=0.5))
        tc.state.cwnd_bytes = 1000 * MSS
        tc.on_loss(10.0, 0.05)
        assert tc.state.cwnd_bytes == pytest.approx(500 * MSS, rel=1e-9)

    def test_alpha_overrides_friendly_slope(self):
        assert TunableCubic(mss=MSS, alpha=1.7)._alpha == 1.7
        # default derives from the chosen beta, not Cubic's
        assert TunableCubic(mss=MSS, beta=0.5)._alpha == pytest.approx(
            3.0 * 0.5 / 1.5
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"beta": 0.0}, {"beta": 1.0}, {"c": 0.0}, {"c": -1.0}, {"alpha": 0.0}],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            TunableCubic(mss=MSS, **kwargs)


class TestMakeCcParams:
    def test_parameterized_name_round_trip(self):
        cc = make_cc("tunable-cubic:alpha=1.5,beta=0.5,c=0.8", mss=MSS)
        assert (cc._alpha, cc.BETA, cc.C) == (1.5, 0.5, 0.8)

    def test_whitespace_and_case_tolerant(self):
        cc = make_cc(" Tunable-Cubic :beta=0.6", mss=MSS)
        assert cc.BETA == 0.6

    @pytest.mark.parametrize(
        "name",
        [
            "tunable-cubic:alpha",
            "tunable-cubic:=1.5",
            "tunable-cubic:alpha=fast",
            "cubic:alpha=1.5",  # plain cubic takes no parameters
            "nosuchcc",
        ],
    )
    def test_rejects_malformed(self, name):
        with pytest.raises(ConfigurationError):
            make_cc(name, mss=MSS)


class TestBatchRegistry:
    def test_every_algorithm_resolves(self):
        batchable = {
            name
            for name, cls in CC_ALGORITHMS.items()
            if group_class_for(cls) is not None
        }
        assert batchable == {
            "cubic", "reno", "highspeed", "htcp", "scalable",
            "westwood", "westwood+", "tunable-cubic",
        }
        assert template_kinds() == sorted(batchable)

    def test_unregistered_subclass_of_batched_cc_raises(self, monkeypatch):
        # The old dispatch (`type(cc) is Cubic`) silently demoted any
        # Cubic subclass to the slow object path; the registry refuses.
        class FutureCubic(Cubic):
            name = "future-cubic"

        monkeypatch.setitem(CC_ALGORITHMS, "future-cubic", FutureCubic)
        with pytest.raises(ConfigurationError, match="FutureCubic"):
            CcBatch(["future-cubic"], mss=MSS)

    def test_subclass_may_opt_out_explicitly(self, monkeypatch):
        class OddCubic(Cubic):
            name = "odd-cubic"
            batch_group = None

        monkeypatch.setitem(CC_ALGORITHMS, "odd-cubic", OddCubic)
        batch = CcBatch(["odd-cubic", "cubic"], mss=MSS)
        kinds = [type(g) for g in batch._groups]
        assert _ObjectGroup in kinds

    def test_object_path_cc_subclass_is_fine(self, monkeypatch):
        class TracingBbr(Bbr1):
            name = "tracing-bbr"

        monkeypatch.setitem(CC_ALGORITHMS, "tracing-bbr", TracingBbr)
        batch = CcBatch(["tracing-bbr"], mss=MSS)
        assert isinstance(batch._groups[0], _ObjectGroup)

    def test_registered_subclass_batches(self):
        batch = CcBatch(["tunable-cubic:beta=0.6"] * OBJECT_LANES, mss=MSS)
        grp = batch._groups[0]
        assert type(grp) is TunableCubic.batch_group
        assert grp.full


def _scalar_feedback(ccs, now, dt, rtt, delivered, loss, al, max_window):
    """The reference tick: ``ScalarKernel.cc_feedback`` over objects."""
    reacted = []
    for i in loss:
        cc = ccs[i]
        before = float(cc.cwnd_bytes)
        if cc.on_loss(now, rtt):
            reacted.append((int(i), before, float(cc.cwnd_bytes)))
    for i, cc in enumerate(ccs):
        if al[i]:
            cc.on_app_limited(now, dt)
        else:
            cc.on_tick(now, dt, delivered[i], rtt)
        cc.clamp(max_window)
    return reacted


def _scalar_timeout(ccs, now, idx):
    reacted = []
    for i in idx:
        before = float(ccs[i].cwnd_bytes)
        ccs[i].on_timeout(now)
        reacted.append((int(i), before, float(ccs[i].cwnd_bytes)))
    return reacted


class TestArrayStepperParity:
    """Every array stepper, at the lane count that selects it, against
    the scalar objects it transcribes.

    Narrower groups step through the objects themselves, so the 2-lane
    mixes elsewhere in this file no longer reach the steppers.
    """

    KINDS = [*template_kinds(), "tunable-cubic:alpha=1.2,beta=0.55,c=0.5"]

    @pytest.mark.parametrize("kinds", [[k] for k in KINDS] + [KINDS],
                             ids=[*KINDS, "all"])
    def test_cwnd_bit_identical_every_step(self, kinds):
        flows = [k for k in kinds for _ in range(OBJECT_LANES)]
        ref = [make_cc(k, mss=MSS) for k in flows]
        batch = CcBatch(flows, mss=MSS)
        assert not any(isinstance(g, _ObjectGroup) for g in batch._groups)
        n = len(flows)
        rng = np.random.default_rng(17)
        now, dt, rtt = 0.0, 0.008, 0.054
        for step in range(1200):
            now += dt
            cwnd = np.array([cc.cwnd_bytes for cc in ref])
            delivered = rng.uniform(0, 2.5, n) * cwnd * (dt / rtt)
            al = rng.random(n) < 0.05
            loss = np.nonzero(rng.random(n) < 0.01)[0]
            to = np.nonzero(rng.random(n) < 0.003)[0]
            want = _scalar_feedback(ref, now, dt, rtt, delivered, loss, al, 1e9)
            want_to = _scalar_timeout(ref, now, to)
            cwnd = np.array([cc.cwnd_bytes for cc in ref])
            got = batch.feedback(now, dt, rtt, delivered, loss, al, 1e9)
            assert got == want, step
            assert batch.timeout(now, to) == want_to, step
            assert np.array_equal(batch.cwnd, cwnd), step


def _run_batch(kinds):
    """The batch a simulation run builds for FlowSpec objects of these
    kinds: through :meth:`RunSetup.kernel`, as the tick driver does."""
    from repro.core.rng import RngFactory
    from repro.sim.flowsim import FlowSpec, RunSetup, SimProfile
    from repro.testbeds.amlight import AmLightTestbed

    tb = AmLightTestbed(kernel="6.8")
    rng = RngFactory(0)
    setup = RunSetup(
        *tb.host_pair(), tb.path("lan"), [(FlowSpec(cc=k), 1) for k in kinds],
        SimProfile.quick(), rng=rng, rep=0,
        jitter_rng=rng.stream("hostjitter", 0),
        place_rng=rng.stream("placement", 0),
        bg_rng=rng.stream("background", 0), context="test",
    )
    return setup.kernel(0, len(kinds), "vector").batch


#: A run's flows (FlowSpec objects) and bare kind strings.
_BUILDERS = {
    "objects": _run_batch,
    "templates": lambda kinds: CcBatch(kinds, mss=MSS),
}
each_constructor = pytest.mark.parametrize(
    "build", _BUILDERS.values(), ids=_BUILDERS
)


class TestObjectLanesSelection:
    """The per-algorithm choice between array stepper and objects."""

    @each_constructor
    @pytest.mark.parametrize("kind", template_kinds())
    def test_narrow_group_runs_objects(self, build, kind):
        batch = build([kind] * (OBJECT_LANES - 1))
        assert [type(g) for g in batch._groups] == [_ObjectGroup]
        assert not batch.self_paced

    @each_constructor
    @pytest.mark.parametrize("kind", template_kinds())
    def test_wide_group_runs_its_stepper(self, build, kind):
        batch = build([kind] * OBJECT_LANES)
        want = group_class_for(CC_ALGORITHMS[kind])
        assert [type(g) for g in batch._groups] == [want]
        assert batch._groups[0].full
        assert not batch.self_paced

    @each_constructor
    def test_mixed_widths_split_by_algorithm(self, build):
        # Lanes count per algorithm, not per parameterized kind string.
        kinds = (
            ["reno", "cubic"] * 3
            + ["tunable-cubic:beta=0.6", "tunable-cubic:c=0.2"]
            * (OBJECT_LANES // 2)
            + ["cubic"] * (OBJECT_LANES - 3)
        )
        batch = build(kinds)
        types = [type(g) for g in batch._groups]
        assert types[0] is Cubic.batch_group
        assert set(types[1:-1]) == {TunableCubic.batch_group}
        assert types[-1] is _ObjectGroup
        narrow = [i for i, k in enumerate(kinds) if k == "reno"]
        assert batch._groups[-1].idx.tolist() == narrow
        assert not batch.self_paced

    def test_bbr_flow_is_self_paced(self):
        kinds = ["cubic"] * OBJECT_LANES + ["reno", "bbr1"]
        batch = _BUILDERS["objects"](kinds)
        assert batch.self_paced
        assert [type(g) for g in batch._groups] == [
            Cubic.batch_group, _ObjectGroup,
        ]


class TestTimeoutReset:
    """RTO must clear algorithm epoch state, not just the base window.

    Every state assertion here fails against the pre-fix ``on_timeout``
    (which touched only :class:`~repro.tcp.cc.base.CcState`).
    """

    def _established_cubic(self):
        cc = Cubic(mss=MSS)
        now = 0.0
        for _ in range(200):
            now += 0.008
            cc.on_tick(now, 0.008, cc.cwnd_bytes * 0.16, 0.05)
        cc.on_loss(now, 0.05)  # sets w_max, k, epoch
        assert cc._epoch_start is not None and cc._w_max_seg > 0.0
        return cc, now

    def test_cubic_timeout_forgets_epoch(self):
        cc, now = self._established_cubic()
        cc.on_timeout(now + 0.3)
        assert cc._epoch_start is None
        assert cc._w_max_seg == 0.0
        assert cc._k == 0.0
        assert cc._w_est_seg == 0.0
        # base reset still applies
        assert cc.state.cwnd_bytes == 2 * MSS
        assert cc.state.in_slow_start

    def test_cubic_post_rto_loss_has_no_stale_peak(self):
        # Fast convergence keys off w_max; a stale pre-RTO peak would
        # make the first post-RTO loss dip as if the old epoch never
        # ended.  After the reset the loss must behave like a fresh
        # flow's: w_max comes from the current (small) window only.
        cc, now = self._established_cubic()
        cc.on_timeout(now + 0.3)
        cc.state.cwnd_bytes = 10 * MSS
        cc.state.in_slow_start = False
        cc.on_loss(now + 1.0, 0.05)
        assert cc._w_max_seg == pytest.approx(10.0, rel=1e-9)

    def test_htcp_timeout_resets_epoch_clock(self):
        ht = _into_ca(HTcp(mss=MSS))
        ht.state.cwnd_bytes = 100 * MSS
        now = 1.0
        for _ in range(800):  # age the growth clock ~6.4s
            now += 0.008
            ht.on_tick(now, 0.008, MSS, 0.05)
        assert ht._delta_start is not None
        ht.on_timeout(now)
        assert ht._delta_start is None
        assert ht._rtt_min == float("inf") and ht._rtt_max == 0.0
        # Behavioural half: the first post-RTO CA tick must grow with a
        # fresh alpha == 1 (Reno's mss * d/cwnd), not alpha(6.4s) ~ 72.
        ht.state.in_slow_start = False
        ht.state.cwnd_bytes = 100 * MSS
        g = _ca_growth(ht, now + 0.1, delivered=MSS)
        assert g == pytest.approx(MSS / 100.0, rel=1e-9)

    def test_westwood_timeout_restarts_sample_window(self):
        ww = WestwoodPlus(mss=MSS)
        rtt, rate = 0.05, 1.25e9 / 8
        now = 0.0
        for _ in range(400):
            now += 0.008
            ww.on_tick(now, 0.008, rate * 0.008, rtt)
        stall_end = now + 5.0  # nothing delivered during the stall
        ww.on_timeout(stall_end)
        assert ww._acked == 0.0
        assert ww._win_start == stall_end
        # ssthresh aims at the measured BDP, not half the dead window
        assert ww.state.ssthresh_bytes == pytest.approx(
            ww._bw_est * ww._rtt_min, rel=1e-6
        )

    def test_micro_sim_rto_resets_epoch_through_real_path(self):
        # Through the packet-level sender's actual ``_on_rto``: run a
        # flow into congestion avoidance, fire the retransmission
        # timeout for real, and the CC's epoch state must be gone.
        from repro.micro.simulation import MicroSimulation

        for kind, probe in (
            ("cubic", lambda cc: cc._epoch_start),
            ("htcp", lambda cc: cc._delta_start),
        ):
            sim = MicroSimulation(
                rate_gbps=5.0, rtt_ms=20.0, buffer_mb=0.5, cc=kind
            )
            # Wire the dumbbell exactly as MicroSimulation.run does,
            # but keep the engine so the run can pause mid-flight.
            from repro.core import units
            from repro.core.engine import Engine
            from repro.micro.endpoint import MicroReceiver, MicroSender
            from repro.micro.queues import LinkQueue

            eng = Engine()
            one_way = units.ms(sim.rtt_ms) / 2.0
            rate = units.gbps(sim.rate_gbps)
            ack_path = LinkQueue(
                engine=eng, rate=rate, delay=one_way, size_of=lambda p: 60.0
            )
            receiver = MicroReceiver(engine=eng, ack_path=ack_path)
            data_path = LinkQueue(
                engine=eng, rate=rate, delay=one_way,
                buffer_bytes=sim.buffer_mb * units.MB,
                deliver=receiver.on_segment,
            )
            sender = MicroSender(
                engine=eng, data_path=data_path, mss=sim.segment_bytes,
                cc_name=kind,
            )
            ack_path.deliver = sender.on_ack
            sender.start()
            eng.run(until=3.0)  # buffer losses push the flow into CA
            assert probe(sender.cc) is not None, kind
            sender._on_rto()
            assert probe(sender.cc) is None, kind
            assert sender.cc.state.in_slow_start
            eng.run(until=4.0)  # recovery proceeds sanely after reset
            assert receiver.delivered_bytes > 0
