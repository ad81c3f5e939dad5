"""The fluid flow simulator: N TCP flows between two hosts over a path.

This is the engine behind every experiment in the reproduction.  It
advances in fixed ticks (default 2 ms); each tick it

1. computes every flow's *rate caps* — window rate (cwnd / RTT),
   pacing rate (fq or BBR-internal), sender per-core CPU limit,
   receiver per-core CPU limit;
2. computes the *shared capacity* — path rate net of background
   traffic, the sender host's aggregate ceiling, the receiver host's
   aggregate ceiling — and allocates it max-min fairly;
3. applies the burst model: unpaced flows' arrivals are inflated by
   stochastic packet-train factors that grow with cwnd (see
   :mod:`repro.sim.lossmodel`);
4. pushes arrivals through two queues in series — the bottleneck
   switch's shared buffer, then the receiver NIC ring.  Overflow is
   tail-dropped unless the path has IEEE 802.3x flow control, in which
   case the ring backpressures instead of dropping;
5. feeds losses and deliveries back into each flow's congestion
   control, and accumulates throughput/retransmit/CPU metrics.

The result of :meth:`FlowSimulator.run` corresponds to one iperf3
invocation; the harness repeats runs with different RNG streams to get
the paper's mean/stdev/min/max statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.net.switch import SharedBufferQueue, SwitchModel
from repro.sim.bottleneck import maxmin_allocate
from repro.sim.cpumodel import CpuCostModel
from repro.sim.kernels import TickKernel, make_kernel
from repro.sim.lossmodel import BurstModel, concentrate_drops, flow_release_slack
from repro.sim.metrics import MetricsAccumulator, RunResult
from repro.sim.sanitizer import SimSanitizer, enabled as sanitizer_enabled
from repro.tcp.cc import make_cc
from repro.tcp.pacing import PacingConfig
from repro.tcp.segment import SegmentGeometry
from repro.tcp.sockets import SocketProfile
from repro.trace.bus import TraceBus
from repro.trace.bus import active as trace_active
from repro.trace.ledger import FlowConservationLedger
from repro.trace.probes import mpstat_probe, nic_probe, socket_probe

__all__ = ["FlowSpec", "SimProfile", "FlowSimulator", "RunSetup", "FlowLanes"]

#: Receiver aggregate ceiling degradation on large-window (WAN) workloads:
#: hundred-MB receive backlogs defeat the LLC and DDIO, costing up to
#: this fraction of the host's aggregate receive bandwidth.  This is the
#: mechanism behind the paper's observation that ESnet WAN parallel
#: streams interfere "any time the total bandwidth attempted is over
#: 120 Gbps" while the same hosts sustain 166 Gbps on the LAN.
WAN_RX_AGG_PENALTY = 0.30

#: A flow's congestion control reacts when more than this fraction of
#: its tick arrival was dropped (smaller fractions model SACK-repaired
#: stragglers that do not trigger a window reduction).
LOSS_REACT_FRACTION = 5e-4

#: Relative per-tick jitter of the receiver aggregate ceiling at full
#: WAN exposure (LLC / memory-controller / softirq contention noise).
RX_CEILING_NOISE = 0.05


@dataclass(frozen=True)
class FlowSpec:
    """Configuration of one TCP flow (one iperf3 stream)."""

    pacing: PacingConfig = field(default_factory=PacingConfig.unpaced)
    zerocopy: bool = False
    skip_rx_copy: bool = False
    cc: str = "cubic"
    label: str = ""

    def with_pacing_gbps(self, gbps_value: float) -> "FlowSpec":
        return replace(self, pacing=PacingConfig.fq_rate_gbps(gbps_value))


@dataclass(frozen=True)
class SimProfile:
    """Time resolution and duration of a simulated test."""

    duration: float = 20.0
    tick: float = 0.002
    omit: float = 3.0

    def __post_init__(self) -> None:
        if self.tick <= 0 or self.duration <= self.omit:
            raise ConfigurationError("need tick > 0 and duration > omit")

    @classmethod
    def paper(cls) -> "SimProfile":
        """60-second tests as in the paper."""
        return cls(duration=60.0, tick=0.002, omit=3.0)

    @classmethod
    def quick(cls) -> "SimProfile":
        """Short runs for unit tests."""
        return cls(duration=6.0, tick=0.004, omit=1.5)


class RunSetup:
    """One run's set-up and per-tick link step, shared by both engines.

    :meth:`FlowSimulator.run` and the sharded engine each build one from
    their own RNG streams, whose labels stay per engine (``hostjitter``
    vs ``shard:hostjitter``), so no draw changes stream or order.  The
    per-tick methods are the cross-flow link physics; each engine feeds
    them flow sums taken in its own reduction order.

    ``groups`` are ``(spec, count)`` pairs sharing one sender and one
    receiver cost model.  ``pads`` inert flows (copying, unpaced, cubic,
    slack 0) fill the sharded engine's last block; they are left out of
    ``n`` and of the aggregate-ceiling mins.
    """

    def __init__(
        self,
        sender: Host,
        receiver: Host,
        path: NetworkPath,
        groups: Sequence[tuple[FlowSpec, int]],
        profile: SimProfile,
        *,
        rng: RngFactory,
        rep: int,
        jitter_rng: np.random.Generator,
        place_rng: np.random.Generator,
        bg_rng: np.random.Generator,
        context: str,
        pads: int = 0,
    ) -> None:
        self.n = n = sum(count for _, count in groups)
        self.path, self.profile, self.bg_rng = path, profile, bg_rng
        self.dt = dt = profile.tick
        self.n_ticks = int(round(profile.duration / dt))
        self.steps_per_bg = max(1, int(round(0.02 / dt)))  # resample bg every ~20 ms

        self.san = san = (
            SimSanitizer(context=f"{context} rep={rep}")
            if sanitizer_enabled()
            else None
        )
        if san is not None:
            san.check_stream_registry(rng)
        # The ambient trace bus (if one is installed) receives events
        # and probes.  Every emission is observational — no RNG draws,
        # no state the simulated numbers depend on.
        self.bus = bus = trace_active()
        self.want_probe = bus is not None and bus.wants("probe")
        self.probe_stride = (
            max(1, int(round(bus.probe_interval / dt))) if self.want_probe else 0
        )
        # With no trace bus and no sanitizer attached, an offer that a
        # queue passes straight through (empty queue, arrivals within
        # the drain) has no observable effect besides its return value,
        # so the method call can be elided with the same numbers.
        self.fast_q = bus is None and san is None

        snd_place = sender.resolved_placement(place_rng)
        rcv_place = receiver.resolved_placement(place_rng)
        geom = SegmentGeometry(
            mtu=sender.tuning.mtu,
            gso_size=sender.effective_gso_size(),
            gro_size=receiver.effective_gro_size(),
        )
        sockets = SocketProfile.from_sysctls(sender.sysctls, receiver.sysctls)

        # Per-flow cost models, pacing caps, and burst slacks, one group
        # at a time (``slack_for`` draws nothing, so any stream serves).
        slack_model = BurstModel(rng=place_rng)
        models: list[tuple[CpuCostModel, CpuCostModel]] = []
        self.send_models: list[CpuCostModel] = []
        self.recv_models: list[CpuCostModel] = []
        self.kinds: list[str] = []
        pace_parts: list[np.ndarray] = []
        slack_parts: list[np.ndarray] = []
        for spec, count in [*groups, (FlowSpec(), pads)]:
            tx = CpuCostModel(sender, geom, snd_place, zerocopy=spec.zerocopy)
            rx = CpuCostModel(receiver, geom, rcv_place, skip_rx_copy=spec.skip_rx_copy)
            models.append((tx, rx))
            self.send_models += [tx] * count
            self.recv_models += [rx] * count
            self.kinds += [spec.cc] * count
            pacing = spec.pacing
            rate = pacing.effective_rate() if pacing.enabled else np.inf
            pace_parts.append(np.full(count, rate))
            slack = flow_release_slack(pacing, spec.zerocopy, slack_model)
            slack_parts.append(np.full(count, slack))
        self.pace_eff = np.concatenate(pace_parts)
        self.slacks = np.concatenate(slack_parts)
        self.slacks[n:] = 0.0  # pads never emit trains
        del models[-1]  # the pads' models bound no ceiling

        # Run-to-run hardware/placement jitter: a single multiplicative
        # factor per run on CPU-derived limits (thermal/clock/scheduler
        # noise plus any VM overhead noise).
        run_noise = 1.0 + jitter_rng.normal(
            0.0, 0.012 + sender.vm.jitter + receiver.vm.jitter
        )
        run_noise = float(np.clip(run_noise, 0.85, 1.15))
        agg_tx = min(tx.aggregate_tx_ceiling() for tx, _ in models) * run_noise
        agg_rx_base = min(rx.aggregate_rx_ceiling() for _, rx in models) * run_noise
        self.agg_rx_base = agg_rx_base
        self.budget_tx = sender.core_cycles_per_sec() * run_noise
        self.budget_rx = receiver.core_cycles_per_sec() * run_noise
        # The tick kernel's run constants; flows spread over the app/IRQ
        # core sets.
        self.kernel_args = dict(
            run_noise=run_noise,
            snd_app_share=min(1.0, len(snd_place.app_cores) / n),
            rcv_app_share=min(1.0, len(rcv_place.app_cores) / n),
            rcv_irq_share=min(1.0, len(rcv_place.irq_cores) / n),
            budget_rx=self.budget_rx,
            agg_rx_base=agg_rx_base,
        )

        # Queues: bottleneck switch buffer, then the receiver NIC ring.
        # The backbone switch queue always tail-drops: even on
        # flow-control paths, 802.3x protects only the receiver's access
        # link — backbone congestion still loses packets.
        eff = geom.wire_efficiency
        path_cap_good = path.capacity * eff
        backbone = SwitchModel(
            model=path.switch.model,
            shared_buffer_bytes=path.switch.shared_buffer_bytes,
            supports_flow_control=False,
        )
        self.q_switch = SharedBufferQueue(backbone, drain_rate=path_cap_good)
        ring_switch = SwitchModel(
            model="rx-ring",
            shared_buffer_bytes=receiver.rx_ring_bytes(),
            supports_flow_control=path.flow_control,
        )
        self.q_ring = SharedBufferQueue(ring_switch, drain_rate=path_cap_good)

        # Loop invariants, hoisted.  Every quantity below is a pure
        # function of run-constant inputs (or of the background sample,
        # which only changes in the resample branch), so the per-tick
        # values are bit-identical to recomputing them inside the loop.
        self.base_rtt = path.rtt_sec
        self.mss = geom.mss
        self.react10 = 10 * geom.mss
        self.fp_floor = 64 * geom.gso_size
        self.fp_cap = sockets.max_send_window * 2.0
        self.max_window = sockets.max_window
        self.l3_20 = 20.0 * receiver.cpu.l3_effective_bytes
        self.n_exposure = min(1.0, n / 4.0)
        self.eff = eff
        self.physical = physical = path.bottleneck.rate_bytes_per_sec
        self.cap_floor = cap_floor = 0.05 * path_cap_good
        bg_mean = path.background.mean_bytes_per_sec
        cap_avg = max(cap_floor, min(path.capacity, physical - bg_mean) * eff)
        self.capacity = min(cap_avg, agg_tx)
        self.line1_den = max(min(sender.nic.speed_bytes_per_sec, physical) * eff, 1.0)
        self.line2_den = max(physical * eff, 1.0)
        self.buf1 = path.switch.shared_buffer_bytes
        self.buf2 = receiver.rx_ring_bytes()
        self.bg_active = path.background.active
        self.flow_control = path.flow_control
        # All-fq-paced runs draw burst randomness but multiply it away
        # (slack 0); hoist that check out of the loop.
        self.all_smooth = not bool(self.slacks.any())
        self._set_background(0.0)

    # -- per-tick link step ----------------------------------------------

    def _set_background(self, bg_sample: float) -> None:
        self.cap_net = max(
            self.cap_floor,
            min(self.path.capacity, self.physical - bg_sample) * self.eff,
        )
        self.fill1 = max(0.0, 1.0 - self.cap_net / self.line1_den)

    def begin_tick(self, step: int, now: float) -> float:
        """Start tick ``step`` at time ``now``; return its RTT."""
        if self.bus is not None:
            self.bus.set_time(now)
        if self.san is not None:
            self.san.check_time(now)
        if self.bg_active and step % self.steps_per_bg == 0:
            self._set_background(
                float(self.path.background.sample(self.bg_rng, 1)[0])
            )
        q = self.q_switch
        return self.base_rtt + q.occupancy / max(q.drain_rate, 1.0)

    def rx_drain(self, total_foot: float, noise_z: float, rcv_total: float) -> float:
        """The NIC ring's drain rate this tick.

        The receiver's aggregate ceiling is deliberately NOT part of the
        allocation: senders do not know it.  It appears as the ring
        drain, so exceeding it costs losses (the paper's >120 Gbps WAN
        interference), not a clean cap.  Exposure grows with the total
        receive working set ``total_foot`` and with the number of
        competing receiver processes — one stream cannot thrash the LLC
        the way eight iperf3 threads do.  The ceiling is noisy tick to
        tick (``noise_z``; LLC/memory-controller contention, softirq
        scheduling): flows operating close to it keep clipping the dips,
        which is where the paper's sustained WAN retransmit counts come
        from.  ``rcv_total`` is the sum of per-flow receiver CPU limits.
        """
        rx_exposure = min(1.0, total_foot / self.l3_20) * self.n_exposure
        z = noise_z if -2.5 <= noise_z <= 2.5 else (-2.5 if noise_z < -2.5 else 2.5)
        rx_noise = 1.0 + RX_CEILING_NOISE * rx_exposure * z
        agg_rx = self.agg_rx_base * (1.0 - WAN_RX_AGG_PENALTY * rx_exposure) * rx_noise
        return min(agg_rx, rcv_total)

    def offer_switch(
        self, offered: float, trains: np.ndarray, tick_per_rtt: float
    ) -> tuple[float, float, float]:
        """Offer this tick's bytes to the switch buffer.

        Returns ``(dropped, overflow, trains_total)``: the standing-queue
        tail drop, the packet-train overflow volume, and the train sum
        it came from (0.0 when the overflow is skipped).
        """
        q = self.q_switch
        dropped = self._offer(q, "switch-buffer", offered, self.cap_net, False)
        overflow, total = self._overflow(trains, self.fill1, self.buf1, q, tick_per_rtt)
        return dropped, overflow, total

    def offer_ring(
        self, offered: float, drain: float, trains: np.ndarray, tick_per_rtt: float
    ) -> tuple[float, float, float]:
        """Offer the switch's survivors to the NIC ring.

        Same return shape as :meth:`offer_switch`.  The ring drains at
        what the receiver actually consumes; trains arrive at the path's
        bottleneck line rate.  With 802.3x flow control, pause frames
        hold the overflow upstream and nothing is dropped at the ring.
        """
        q = self.q_ring
        dropped = self._offer(q, "rx-ring", offered, drain, self.flow_control)
        if self.flow_control:
            return 0.0, 0.0, 0.0
        fill = max(0.0, 1.0 - drain / self.line2_den)
        overflow, total = self._overflow(trains, fill, self.buf2, q, tick_per_rtt)
        return dropped, overflow, total

    def _offer(
        self, q: SharedBufferQueue, label: str, offered: float, drain: float, fc: bool
    ) -> float:
        q.drain_rate = drain
        before = q.occupancy
        # Exact == 0.0 is intentional: offer() assigns occupancy = 0.0
        # exactly when the queue empties, and the elision is only valid
        # in that exact state.  offer() would serve everything from an
        # empty queue: delivered = arrivals, no state change, nothing to
        # trace.  Same numbers as the call, minus the call.
        if self.fast_q and before == 0.0 and offered <= drain * self.dt:  # repro: noqa-FLOAT001
            return 0.0
        delivered, dropped = q.offer(offered, self.dt)
        if self.san is not None:
            self.san.account_link(
                label, offered=offered, delivered=delivered, dropped=dropped,
                queue_before=before, queue_after=q.occupancy, flow_control=fc,
            )
        return dropped

    def _overflow(
        self, trains: np.ndarray, fill: float, buf: float, q: SharedBufferQueue,
        tick_per_rtt: float,
    ) -> tuple[float, float]:
        # Packet trains are per-RTT time-compression: each RTT a train of
        # V_i bytes arrives at line rate; the fraction the drain cannot
        # absorb (``fill``) deposits into the buffer, and the part beyond
        # the free headroom is tail-dropped.  Train overflow is converted
        # to a per-tick drop volume by dt/rtt.  ``all_smooth`` ticks have
        # all-zero trains, so the overflow reduces to max(0, -headroom)
        # == 0; skipping the sum changes nothing.
        if fill > 0.0 and not self.all_smooth:
            total = float(np.add.reduce(trains))
            headroom = max(0.0, buf - q.occupancy)
            return max(0.0, total * fill - headroom) * tick_per_rtt, total
        return 0.0, 0.0

    def record_tick(
        self, metrics: MetricsAccumulator, delivered: np.ndarray,
        retr_segments: float, loss_events: int, sums: Sequence, delivered_sum: float,
    ) -> tuple[float, float, float, float]:
        """Record one tick given its :meth:`FlowLanes.cpu_costs` sums.

        Returns the (tx app, tx irq, rx app, rx irq) loads in cores,
        summed over flows.
        """
        n = self.n
        tx_app = float(sums[0]) / self.budget_tx
        tx_irq = float(sums[1]) / self.budget_tx
        rx_app = float(sums[2]) / self.budget_rx
        rx_irq = float(sums[3]) / self.budget_rx
        metrics.record_tick(
            self.dt, delivered, retr_segments, loss_events,
            (tx_app / n, tx_irq / n, rx_app / n, rx_irq / n), float(sums[4]) / n,
            delivered_sum=delivered_sum,
        )
        return tx_app, tx_irq, rx_app, rx_irq

    # -- run events ------------------------------------------------------

    def emit_run_start(self, rep: int) -> None:
        if self.bus is not None:
            self.bus.emit(
                "run", "run.start", rep=rep, flows=self.n, path=self.path.name,
                duration=self.profile.duration, tick=self.dt,
                rtt_ms=units.seconds_to_ms(self.base_rtt),
                flow_control=self.flow_control,
            )

    def emit_run_end(self, rep: int, result: RunResult) -> None:
        if self.bus is not None:
            self.bus.emit(
                "run", "run.end", rep=rep, flows=self.n,
                gbps=round(result.total_gbps, 6),
                retransmit_segments=round(result.retransmit_segments, 3),
                loss_events=result.loss_events,
            )


class FlowLanes:
    """The per-lane formulas both engines evaluate, over one set of lanes.

    :meth:`FlowSimulator.run` holds one over all its flows; each shard
    worker holds one over its own lanes.  It pairs the tick kernel with
    the scratch buffers and run constants the formulas need.  Every
    buffer is fully rewritten each tick before its first read, and
    ``out=`` only changes where results land, never their bits.  (min
    and max are exact and commutative here — both operands are ordinary
    positive floats, so swapped-argument ties return identical bits;
    ``c * x`` rounds as ``x * c``.)
    """

    def __init__(self, kern: TickKernel, setup: RunSetup, pace_eff: np.ndarray) -> None:
        m = kern.n
        self.kern = kern
        self.pace_eff = pace_eff
        self.dt = setup.dt
        self.react10 = setup.react10
        self.fp_floor = setup.fp_floor
        self.fp_cap = setup.fp_cap
        self.max_window = setup.max_window
        self.wr = np.empty(m)
        self.foot = np.empty(m)
        self.caps = np.empty(m)
        self.drate = np.empty(m)
        self.scratch = np.empty(m)
        self.mask_b1 = np.empty(m, dtype=bool)
        self.mask_b2 = np.empty(m, dtype=bool)

    def rate_caps(
        self, rtt: float, prev_alloc: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """This tick's per-flow rate caps: window, pacing, CPU limits.

        Returns ``(pace, footprint, rcv_limit, caps)``; the window rate
        stays in ``self.wr`` for :meth:`cc_feedback`.
        """
        kern = self.kern
        cwnd = kern.cwnd
        window_rate = np.divide(cwnd, max(rtt, 1e-6), out=self.wr)
        pace = kern.pacing(rtt, self.pace_eff)
        # Working set the sender actually touches: the in-flight bytes
        # (~rate*RTT) plus qdisc/socket slack — NOT the raw cwnd, which
        # can sit far above what an app-limited flow uses (cwnd
        # validation keeps them close anyway).
        foot = self.foot
        np.multiply(prev_alloc, rtt, out=foot)
        np.multiply(foot, 1.5, out=foot)
        np.maximum(foot, self.fp_floor, out=foot)
        np.minimum(foot, cwnd, out=foot)
        np.minimum(foot, self.fp_cap, out=foot)
        snd_limit, rcv_limit = kern.cpu_limits(rtt, foot)
        # Same left-fold association as np.minimum.reduce([...]).
        caps = np.minimum(window_rate, pace, out=self.caps)
        np.minimum(caps, snd_limit, out=caps)
        np.minimum(caps, rcv_limit, out=caps)
        return pace, foot, rcv_limit, caps

    def loss_idx(self, drops: np.ndarray, sent: np.ndarray) -> np.ndarray:
        """Flows whose drops exceed the loss-react fraction of their sends."""
        threshold = np.maximum(sent, 1.0, out=self.scratch)
        np.multiply(threshold, LOSS_REACT_FRACTION, out=threshold)
        return np.nonzero(drops > threshold)[0]

    def cc_feedback(
        self, now: float, rtt: float, alloc: np.ndarray, delivered: np.ndarray,
        loss_idx: np.ndarray,
    ) -> list[tuple[int, float, float]]:
        """Congestion feedback behind the RFC 7661 validation mask.

        Loss-based algorithms only grow while the window is what binds.
        The mask reads this tick's pre-update windows and allocation,
        with the same left-fold ``(nv & a) & b`` as the expression form
        (``&`` on bool arrays is logical_and).
        """
        kern = self.kern
        f, b1, b2 = self.scratch, self.mask_b1, self.mask_b2
        np.multiply(alloc, rtt, out=f)
        np.maximum(f, self.react10, out=f)
        np.multiply(f, 1.5, out=f)
        np.greater(kern.cwnd, f, out=b1)
        np.logical_and(kern.needs_validation, b1, out=b1)
        np.multiply(alloc, 1.2, out=f)
        np.greater(self.wr, f, out=b2)
        al_mask = np.logical_and(b1, b2, out=b1)
        return kern.cc_feedback(
            now, self.dt, rtt, delivered, loss_idx, al_mask, self.max_window
        )

    def cpu_costs(
        self, alloc: np.ndarray, delivered: np.ndarray, rtt: float,
        reduce: Callable[[np.ndarray], object],
    ) -> tuple[tuple, np.ndarray]:
        """CPU cost at this tick's operating point.

        Returns ``(sums, zc_frac)``: ``reduce`` applied to the cycle
        products alloc·(tx app, tx irq) and drate·(rx app, rx irq), then
        to the zerocopy fractions, plus the fractions themselves.
        """
        drate = np.divide(delivered, self.dt, out=self.drate)
        tx_app, tx_irq, zc_frac, rx_app, rx_irq = self.kern.cpu_costs(
            alloc, drate, rtt, self.foot
        )
        acc = self.scratch
        sums = (
            reduce(np.multiply(alloc, tx_app, out=acc)),
            reduce(np.multiply(alloc, tx_irq, out=acc)),
            reduce(np.multiply(drate, rx_app, out=acc)),
            reduce(np.multiply(drate, rx_irq, out=acc)),
            reduce(zc_frac),
        )
        return sums, zc_frac


def _place_drops(
    rng: np.random.Generator, trains: np.ndarray, overflow: float,
    standing: np.ndarray, dropped: float, zeros: np.ndarray,
) -> np.ndarray:
    """One queue's per-flow drops: the train overflow lands on a few
    flows ∝ ``trains``, then the standing-queue drop ∝ ``standing``.

    Drop-free ticks return the shared ``zeros``: ``concentrate_drops``
    returns all-zeros without touching the RNG when its drop volume is
    0, and adding a zero array to non-negative drops is a bitwise no-op,
    so the skipped calls cannot change any number downstream.
    """
    if overflow > 0.0:
        drops = concentrate_drops(rng, trains, overflow)
        if dropped > 0.0:
            drops += concentrate_drops(rng, standing, dropped)
        return drops
    if dropped > 0.0:
        return concentrate_drops(rng, standing, dropped)
    return zeros


class FlowSimulator:
    """Simulates a set of flows between ``sender`` and ``receiver``."""

    def __init__(
        self,
        sender: Host,
        receiver: Host,
        path: NetworkPath,
        flows: list[FlowSpec],
        profile: SimProfile | None = None,
        rng: RngFactory | None = None,
    ) -> None:
        if not flows:
            raise ConfigurationError("need at least one flow")
        self.sender = sender
        self.receiver = receiver
        self.path = path
        self.flows = list(flows)
        self.profile = profile or SimProfile()
        self.rng = rng or RngFactory(seed=1)
        self._validate()

    # ------------------------------------------------------------------

    def _validate(self) -> None:
        any_zc = any(f.zerocopy for f in self.flows)
        if any_zc:
            self.sender.require_zerocopy()
            self.sender.check_zerocopy_bigtcp_combo()
        for f in self.flows:
            # Instantiating checks the cc name early.
            make_cc(f.cc)

    # ------------------------------------------------------------------

    def run(self, rep: int = 0) -> RunResult:
        """Simulate one test run (≈ one iperf3 invocation)."""
        prof = self.profile
        n = len(self.flows)
        burst_rng = self.rng.stream("burst", rep)
        setup = RunSetup(
            self.sender, self.receiver, self.path, [(f, 1) for f in self.flows],
            prof, rng=self.rng, rep=rep,
            jitter_rng=self.rng.stream("hostjitter", rep),
            place_rng=self.rng.stream("placement", rep),
            bg_rng=self.rng.stream("background", rep),
            context="flowsim",
        )
        dt, mss, bus, san = setup.dt, setup.mss, setup.bus, setup.san
        q_switch, q_ring = setup.q_switch, setup.q_ring
        send_models = setup.send_models

        # The sanitizer additionally audits per-flow conservation by
        # consuming the "flow.tick" wire format through a private
        # single-sink bus, so the ledger exercises the exact stream
        # exports would see.
        self.last_ledger = None
        ledger_bus = None
        if san is not None:
            ledger = FlowConservationLedger(
                n, mss=float(mss), context=f"flowsim rep={rep}"
            )
            self.last_ledger = ledger
            ledger_bus = TraceBus(sinks=[ledger])
        want_flow = bus is not None and bus.wants("flow")
        want_cc = bus is not None and bus.wants("cc")
        want_zc = bus is not None and bus.wants("zerocopy")
        want_probe = setup.want_probe
        emit_flow = want_flow or ledger_bus is not None
        drops_cum = np.zeros(n) if want_probe else None

        # The tick kernel (scalar reference or vectorized fast path,
        # selected via REPRO_SIM_KERNEL) owns the warm per-flow state —
        # congestion windows and the damped receiver CPU limit — and the
        # four per-flow hooks.  Everything else in the loop below is
        # shared driver code: RNG draws, cross-flow reductions, queues,
        # and trace emission, so the kernels are byte-interchangeable.
        kern = make_kernel(
            ccs=[make_cc(f.cc, mss=float(mss)) for f in self.flows],
            send_models=send_models,
            recv_models=setup.recv_models,
            **setup.kernel_args,
        )
        lanes = FlowLanes(kern, setup, setup.pace_eff)
        burst = BurstModel(rng=burst_rng)
        slacks = setup.slacks
        persistent_w = burst.persistent_weights(slacks)
        prev_alloc = np.zeros(n)
        metrics = MetricsAccumulator(n, prof.duration, prof.omit)
        capacity = setup.capacity
        all_smooth = setup.all_smooth
        # Shared all-zero per-flow array for drop-free ticks (never
        # mutated) and the matching empty loss index.
        zeros = np.zeros(n)
        empty_idx = np.zeros(0, dtype=np.intp)
        zc_flows = [i for i in range(n) if send_models[i].zc_model is not None]
        # ndarray.sum() dispatches to np.add.reduce; calling the ufunc
        # directly skips a wrapper layer with identical pairwise bits.
        asum = np.add.reduce
        # ``prev_alloc`` keeps the freshly allocated maxmin output, never
        # scratch, so nothing per-tick survives the tick through a buffer.
        sent_buf = np.empty(n)

        setup.emit_run_start(rep)
        for step in range(setup.n_ticks):
            # Closed form, not `now += dt`: a million accumulated float
            # adds drift the clock by enough to flip boundary
            # comparisons downstream (lint rule FLOAT002 flags the
            # accumulating pattern in simulation code).
            now = (step + 1) * dt
            rtt = setup.begin_tick(step, now)
            if ledger_bus is not None:
                ledger_bus.set_time(now)

            # --- per-flow caps and shared capacity ----------------------
            cwnd = kern.cwnd
            pace, footprint, rcv_limit, caps = lanes.rate_caps(rtt, prev_alloc)
            # One fused burst-model draw covers this tick's rx-ceiling
            # noise, max-min weight jitter, and packet-train volumes —
            # a single RNG call whose consumption order is part of the
            # shared driver, hence identical across kernels.
            noise_z, weights, trains = burst.tick_draw(
                persistent_w, slacks, cwnd, smooth=all_smooth
            )
            rcv_drain = setup.rx_drain(
                float(asum(footprint)), noise_z, float(asum(rcv_limit))
            )
            # (Background traffic shares the *physical* link; the admin
            # cap applies to test traffic only.  TCP adapts to the
            # *average* background — the micro-burst sample drives the
            # queue drain, so spikes show up as queueing and loss, not
            # as an instant, clairvoyant rate adjustment.)  Weights come
            # out of the lognormal jitter (positive by construction), so
            # the validation pass is skipped.  Always route through the
            # module global (the allocator has its own uncongested fast
            # path) so it stays swappable under test.
            alloc = maxmin_allocate(caps, capacity, weights, validate=False)

            # --- queues + packet-train loss ------------------------------
            # Standing queues carry the *average* volume (sum of
            # allocations never exceeds the drain by construction, so
            # they only build transiently when background-traffic spikes
            # eat into the drain).
            sent = np.multiply(alloc, dt, out=sent_buf)  # goodput bytes emitted
            tick_per_rtt = dt / max(rtt, dt)
            offered1 = float(asum(sent))
            dropped_std1, ov1, _ = setup.offer_switch(offered1, trains, tick_per_rtt)
            drops1 = _place_drops(burst_rng, trains, ov1, sent, dropped_std1, zeros)

            if drops1 is zeros:
                # On drop-free ticks after1 IS sent, whose sum is offered1.
                after1, trains_after, offered2 = sent, trains, offered1
            else:
                after1 = np.maximum(0.0, sent - drops1)
                trains_after = np.maximum(0.0, trains - drops1)
                offered2 = float(asum(after1))
            dropped_std2, ov2, _ = setup.offer_ring(
                offered2, rcv_drain, trains_after, tick_per_rtt
            )
            drops2 = _place_drops(
                burst_rng, trains_after, ov2, after1, dropped_std2, zeros
            )

            if drops1 is zeros and drops2 is zeros:
                drops = zeros
                delivered = sent
            else:
                drops = drops1 + drops2
                delivered = np.maximum(0.0, sent - drops)
            if san is not None:
                san.check_non_negative("alloc", alloc)
                san.check_non_negative("sent", sent)
                san.check_non_negative("drops", drops)
                san.check_non_negative("delivered", delivered)
                san.check_non_negative(
                    "queue occupancy", (q_switch.occupancy, q_ring.occupancy)
                )
                san.check_positive("rtt", rtt)
                san.check_positive("cwnd", cwnd)

            if drops_cum is not None:
                drops_cum += drops
            if emit_flow:
                # cwnd here is the window that bounded THIS tick's
                # allocation (the cc update below may change it).
                for i in range(n):
                    args = {
                        "flow": i,
                        "sent": float(sent[i]),
                        "delivered": float(delivered[i]),
                        "dropped": float(drops[i]),
                        "alloc": float(alloc[i]),
                        "cwnd": float(cwnd[i]),
                        "rtt": rtt,
                    }
                    if want_flow:
                        bus.emit("flow", "flow.tick", **args)
                    if ledger_bus is not None:
                        ledger_bus.emit("flow", "flow.tick", **args)

            # --- congestion feedback ------------------------------------
            if drops is zeros:
                # No drop volume: segments lost is exactly 0 and no flow
                # can clear the (strictly positive) loss-react threshold.
                retr_segments = 0.0
                loss_idx = empty_idx
            else:
                retr_segments = float(asum(drops) / mss)
                loss_idx = lanes.loss_idx(drops, sent)
            reacted = lanes.cc_feedback(now, rtt, alloc, delivered, loss_idx)
            loss_events = len(reacted)
            if want_cc:
                for i, before, after in reacted:
                    bus.emit(
                        "cc",
                        "cc.loss",
                        flow=i,
                        cwnd_before=before,
                        cwnd_after=after,
                        dropped=float(drops[i]),
                        rtt=rtt,
                    )
            prev_alloc = alloc

            # --- CPU accounting and metrics -----------------------------
            sums, zc_frac = lanes.cpu_costs(alloc, delivered, rtt, asum)
            tx_app, tx_irq, rx_app, rx_irq = setup.record_tick(
                metrics,
                delivered,
                retr_segments,
                loss_events,
                sums,
                # Drop-free ticks deliver exactly what was sent, whose
                # sum was already taken for the switch offer.
                offered1 if delivered is sent else float(asum(delivered)),
            )
            if want_zc:
                for i in zc_flows:
                    # Edge-triggered: one event when the flow starts
                    # falling back to copying (optmem exhausted),
                    # one when it recovers.
                    bus.emit_edge(
                        ("zc", i),
                        "zerocopy",
                        "zc.fallback",
                        bool(zc_frac[i] < 0.999),
                        flow=i,
                        zc_fraction=round(float(zc_frac[i]), 4),
                    )

            if want_probe and step % setup.probe_stride == 0:
                bus.emit(
                    "probe",
                    "probe.mpstat",
                    **mpstat_probe(
                        snd_app_pct=100.0 * tx_app / n,
                        snd_irq_pct=100.0 * tx_irq / n,
                        rcv_app_pct=100.0 * rx_app / n,
                        rcv_irq_pct=100.0 * rx_irq / n,
                    ),
                )
                bus.emit(
                    "probe",
                    "probe.nic",
                    **nic_probe(q_switch, q_ring, flow_control=setup.flow_control),
                )
                for i in range(n):
                    zc_model = send_models[i].zc_model
                    bus.emit(
                        "probe",
                        "probe.socket",
                        **socket_probe(
                            i,
                            cwnd=float(cwnd[i]),
                            pacing_rate=float(pace[i]),
                            rtt=rtt,
                            send_rate=float(alloc[i]),
                            delivered_rate=float(delivered[i]) / dt,
                            retrans_cum=float(drops_cum[i]) / mss,
                            zc_fraction=(
                                None
                                if zc_model is None
                                else zc_model.zc_fraction(float(alloc[i]), rtt)
                            ),
                        ),
                    )

        result = metrics.finalize()
        setup.emit_run_end(rep, result)
        return result
