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

This module holds the run set-up and link step both flow engines share
(:class:`RunSetup`) and FlowSimulator's per-flow trace
(:class:`FlowEvents`).  The tick loop itself is the one driver in
:mod:`repro.sim.engine`: :class:`FlowSimulator` is a thin constructor
that runs it with :data:`repro.sim.shard.FLOWSIM_NUMERICS` on one
in-process block of exactly its ``n`` flows, drawing from the caller's
:class:`~repro.core.rng.RngFactory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.net.switch import SharedBufferQueue, SwitchModel
from repro.sim.cpumodel import CpuCostModel
from repro.sim.kernels import TickKernel, make_kernel
from repro.sim.lossmodel import BurstModel, flow_release_slack
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

__all__ = [
    "FlowSpec", "SimProfile", "FlowSimulator", "RunSetup", "FlowEvents",
]

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

    The tick driver builds one per run from the streams its numerics
    claim, whose labels stay per engine (``hostjitter`` vs
    ``shard:hostjitter``), so no draw changes stream or order.  The
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
        it came from (None when the overflow is skipped).
        """
        q = self.q_switch
        dropped = self._offer(q, "switch-buffer", offered, self.cap_net, False)
        overflow, total = self._overflow(trains, self.fill1, self.buf1, q, tick_per_rtt)
        return dropped, overflow, total

    def offer_ring(
        self, offered: float, drain: float, trains: np.ndarray, tick_per_rtt: float,
        trains_total: float | None = None,
    ) -> tuple[float, float, float | None]:
        """Offer the switch's survivors to the NIC ring.

        Same return shape as :meth:`offer_switch`; ``trains_total`` is
        the sum of ``trains`` when the caller already holds it (the
        switch took it over the same array).  The ring drains at
        what the receiver actually consumes; trains arrive at the path's
        bottleneck line rate.  With 802.3x flow control, pause frames
        hold the overflow upstream and nothing is dropped at the ring.
        """
        q = self.q_ring
        dropped = self._offer(q, "rx-ring", offered, drain, self.flow_control)
        if self.flow_control:
            return 0.0, 0.0, None
        fill = max(0.0, 1.0 - drain / self.line2_den)
        overflow, total = self._overflow(
            trains, fill, self.buf2, q, tick_per_rtt, trains_total
        )
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
        tick_per_rtt: float, total: float | None = None,
    ) -> tuple[float, float | None]:
        # Packet trains are per-RTT time-compression: each RTT a train of
        # V_i bytes arrives at line rate; the fraction the drain cannot
        # absorb (``fill``) deposits into the buffer, and the part beyond
        # the free headroom is tail-dropped.  Train overflow is converted
        # to a per-tick drop volume by dt/rtt.  ``all_smooth`` ticks have
        # all-zero trains, so the overflow reduces to max(0, -headroom)
        # == 0; skipping the sum changes nothing.
        if fill > 0.0 and not self.all_smooth:
            if total is None:
                total = float(np.add.reduce(trains))
            headroom = max(0.0, buf - q.occupancy)
            return max(0.0, total * fill - headroom) * tick_per_rtt, total
        return 0.0, None

    def record_tick(
        self, metrics: MetricsAccumulator, retr_segments: float,
        loss_events: int, sums: Sequence, delivered_sum: float,
    ) -> tuple[float, float, float, float]:
        """Record one tick given its five CPU-cost sums (tx app, tx irq,
        rx app, rx irq cycles per second, and zerocopy fractions).

        Returns the (tx app, tx irq, rx app, rx irq) loads in cores,
        summed over flows.
        """
        n = self.n
        tx_app = float(sums[0]) / self.budget_tx
        tx_irq = float(sums[1]) / self.budget_tx
        rx_app = float(sums[2]) / self.budget_rx
        rx_irq = float(sums[3]) / self.budget_rx
        metrics.record_tick(
            self.dt, retr_segments, loss_events,
            (tx_app / n, tx_irq / n, rx_app / n, rx_irq / n), float(sums[4]) / n,
            delivered_sum=delivered_sum,
        )
        return tx_app, tx_irq, rx_app, rx_irq

    def kernel(self, f0: int, f1: int, name: str | None) -> TickKernel:
        """The ``name``d tick kernel (None: ``REPRO_SIM_KERNEL``) over
        lanes ``[f0, f1)``, built from their cc kinds."""
        return make_kernel(
            name, self.kinds[f0:f1], float(self.mss),
            self.send_models[f0:f1], self.recv_models[f0:f1], **self.kernel_args,
        )

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


class FlowEvents:
    """FlowSimulator's per-flow trace and sanitizer audit, once a tick.

    Built only when a trace bus or the sanitizer is attached.  ``lanes``
    is the driver's single worker, read after the tick in the order the
    events have always had: sanitizer checks, ``flow.tick``,
    ``cc.loss``, ``zc.fallback`` edges, then the probes.  A ``flow.tick``
    reports the window that bounded the tick's allocation (the worker
    keeps it in ``cwnd_pre``); probes report the window after feedback.
    The sanitizer also audits per-flow conservation by consuming the
    ``flow.tick`` wire format through a private single-sink bus, so the
    ledger exercises the exact stream exports would see.
    """

    def __init__(self, setup: RunSetup, lanes, rep: int) -> None:
        n, bus, san = setup.n, setup.bus, setup.san
        self.setup, self.lanes = setup, lanes
        self.ledger = self.ledger_bus = None
        if san is not None:
            self.ledger = FlowConservationLedger(
                n, mss=float(setup.mss), context=f"flowsim rep={rep}"
            )
            self.ledger_bus = TraceBus(sinks=[self.ledger])
        self.want_flow = bus is not None and bus.wants("flow")
        self.want_cc = bus is not None and bus.wants("cc")
        self.want_zc = bus is not None and bus.wants("zerocopy")
        if self.want_flow or san is not None:
            lanes.cwnd_pre = np.empty(n)
        self.drops_cum = np.zeros(n) if setup.want_probe else None
        self.zc_flows = [
            i for i in range(n) if setup.send_models[i].zc_model is not None
        ]

    def tick(
        self, step: int, now: float, rtt: float, loads: tuple,
        offered: float, delivered_sum: float,
    ) -> None:
        setup, w = self.setup, self.lanes
        bus, san, n = setup.bus, setup.san, setup.n
        sent, delivered, drops = w.sent, w.delivered, w.drops
        alloc = w.prev_alloc  # this tick's allocation, after the swap
        if san is not None:
            for name, values in (
                ("alloc", alloc), ("sent", sent), ("drops", drops),
                ("delivered", delivered),
                ("queue occupancy", (setup.q_switch.occupancy, setup.q_ring.occupancy)),
            ):
                san.check_non_negative(name, values)
            san.check_positive("rtt", rtt)
            san.check_positive("cwnd", w.cwnd_pre)
        if self.drops_cum is not None:
            self.drops_cum += drops
        if self.want_flow or self.ledger_bus is not None:
            if self.ledger_bus is not None:
                self.ledger_bus.set_time(now)
            cwnd = w.cwnd_pre
            for i in range(n):
                args = {
                    "flow": i, "sent": float(sent[i]),
                    "delivered": float(delivered[i]), "dropped": float(drops[i]),
                    "alloc": float(alloc[i]), "cwnd": float(cwnd[i]), "rtt": rtt,
                }
                if self.want_flow:
                    bus.emit("flow", "flow.tick", **args)
                if self.ledger_bus is not None:
                    self.ledger_bus.emit("flow", "flow.tick", **args)
        if self.want_cc:
            for i, before, after in w.reacted:
                bus.emit(
                    "cc", "cc.loss", flow=i, cwnd_before=before,
                    cwnd_after=after, dropped=float(drops[i]), rtt=rtt,
                )
        if self.want_zc:
            for i in self.zc_flows:
                # Edge-triggered: one event when the flow starts falling
                # back to copying (optmem exhausted), one when it recovers.
                frac = float(w.zc_frac[i])
                bus.emit_edge(
                    ("zc", i), "zerocopy", "zc.fallback", frac < 0.999,
                    flow=i, zc_fraction=round(frac, 4),
                )
        if setup.want_probe and step % setup.probe_stride == 0:
            tx_app, tx_irq, rx_app, rx_irq = loads
            bus.emit("probe", "probe.mpstat", **mpstat_probe(
                snd_app_pct=100.0 * tx_app / n, snd_irq_pct=100.0 * tx_irq / n,
                rcv_app_pct=100.0 * rx_app / n, rcv_irq_pct=100.0 * rx_irq / n,
            ))
            bus.emit("probe", "probe.nic", **nic_probe(
                setup.q_switch, setup.q_ring, flow_control=setup.flow_control
            ))
            cwnd, pace = w.kern.cwnd, w.pace
            for i in range(n):
                zc_model = setup.send_models[i].zc_model
                bus.emit("probe", "probe.socket", **socket_probe(
                    i, cwnd=float(cwnd[i]), pacing_rate=float(pace[i]), rtt=rtt,
                    send_rate=float(alloc[i]),
                    delivered_rate=float(delivered[i]) / setup.dt,
                    retrans_cum=float(self.drops_cum[i]) / setup.mss,
                    zc_fraction=(
                        None if zc_model is None
                        else zc_model.zc_fraction(float(alloc[i]), rtt)
                    ),
                ))


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
        # A function-local import breaks the flowsim <-> shard cycle:
        # the driver builds on this module's RunSetup and FlowEvents.
        from repro.sim.shard import FLOWSIM_NUMERICS, ShardPlan, run_engine

        self.last_ledger = None
        result, events = run_engine(
            FLOWSIM_NUMERICS, self, [(f, 1) for f in self.flows], self.rng,
            rep, ShardPlan.single(len(self.flows)),
        )
        if events is not None:
            self.last_ledger = events.ledger
        return result
