"""Burstiness and packet-loss model.

The central loss mechanism in the paper's environments (no IEEE 802.3x
flow control) is **burst overrun**: TCP without pacing transmits its
window in line-rate packet trains; trains longer than the downstream
buffering (switch shared buffer, receiver NIC ring) minus what drains
during the train get tail-dropped.  Pacing with fq spaces the packets
out and the trains disappear.

The fluid simulator cannot see individual packets, so trains enter
statistically.  Per RTT, flow *i* emits

.. math::

    V_i = s_i \\cdot X \\cdot 0.08 \\cdot cwnd_i

bytes as back-to-back line-rate trains, where

* ``s_i`` is the flow's *burst slack* — 1.0 for an unpaced zerocopy
  flow (sendmsg returns instantly, the qdisc fills as fast as the wire
  empties it), a calibrated ~0.3 for an unpaced *copying* flow (the
  copy loop itself spreads the writes), and 0.0 under fq pacing;
* 0.08 (``TRAIN_FRACTION``) is the auto-pacing overshoot: modern TCP
  internally paces even "unpaced" flows at ~1.2x the delivery rate,
  so only that overshoot travels in trains;
* ``X`` is a lognormal draw with mean 1 supplying burst-to-burst noise
  (ACK compression, stretch ACKs, slow-start overshoot).

A train of volume V arriving at line rate into a queue draining at
``d`` deposits ``V * (1 - d/line)`` bytes; whatever exceeds the free
buffer headroom is tail-dropped.  Because V scales with cwnd, LAN flows
(MB windows vs tens-of-MB buffers) never overflow while WAN flows
(hundreds of MB windows) do — exactly the paper's "increases in hop
count and path latency create longer packet trains" (§II.D).  Dropped
bytes are charged back to flows in proportion to their train volumes,
becoming congestion events and retransmit counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BurstModel",
    "COPY_MODE_SLACK",
    "IN_PLACE_LANES",
    "TRAIN_FRACTION",
    "concentrate_drops",
    "flow_release_slack",
]

#: Burst slack of an unpaced copying sender: the user->kernel copy
#: naturally spreads transmission, leaving moderate residual trains.
COPY_MODE_SLACK = 0.30

#: Fraction of the congestion window an unpaced (slack=1) flow emits as
#: line-rate trains per RTT — the auto-pacing overshoot.
TRAIN_FRACTION = 0.08

#: Lognormal sigma of the burst-to-burst variability multiplier X
#: (E[X] = 1).
BURST_SIGMA = 0.25

#: Lane count from which :meth:`BurstModel.tick_volumes` computes in
#: place (the block engine's workers; FlowSimulator's few lanes stay
#: below it).
IN_PLACE_LANES = 256


@dataclass
class BurstModel:
    """Per-run burst state (owns the RNG stream for reproducibility)."""

    rng: np.random.Generator
    sigma: float = BURST_SIGMA
    #: Cached all-zero trains array returned by the smooth fast path of
    #: :meth:`tick_draw`; consumers treat train volumes as read-only.
    _zero_trains: np.ndarray | None = None

    def __post_init__(self) -> None:
        # The (weights, trains) rows' exponent scale and shift for the
        # one fused exp of :meth:`tick_volumes`.
        sigma = self.sigma
        self._exp_scale = np.array([[self.TICK_WEIGHT_SIGMA], [sigma]])
        self._exp_shift = np.array([[0.0], [-sigma**2 / 2.0]])

    def slack_for(self, paced_smooth: bool, pacing_enabled: bool, zerocopy: bool) -> float:
        """Burst slack for a flow configuration."""
        if paced_smooth:
            return 0.0
        if pacing_enabled:
            # paced, but by coarse internal pacing (non-fq qdisc)
            return 0.35
        return 1.0 if zerocopy else COPY_MODE_SLACK

    def persistent_weights(self, slacks: np.ndarray) -> np.ndarray:
        """Per-run max-min weights modelling unpaced flow unfairness.

        Unpaced flows grab persistently uneven shares of a congested
        bottleneck — hash-based queue placement, NUMA luck, and loss
        asymmetry hold for the whole run (the paper saw 5-30 Gbps per
        flow in one run, and 9-16 Gbps in Table III).  Paced flows are
        equalized by their own rate caps, so their weight noise is
        irrelevant.  Drawn once per run.
        """
        n = slacks.size
        noise = self.rng.lognormal(mean=0.0, sigma=0.28, size=n)
        return 1.0 + slacks * (noise - 1.0)

    #: Lognormal sigma of the per-tick max-min weight jitter.
    TICK_WEIGHT_SIGMA = 0.1

    def tick_draw(
        self,
        persistent: np.ndarray,
        slacks: np.ndarray,
        cwnd_bytes: np.ndarray,
        smooth: bool | None = None,
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """All of one tick's burst-model randomness in a single RNG call.

        Returns ``(rx_noise_z, weights, trains)``: the standard-normal
        draw behind the receiver-ceiling jitter, then
        :meth:`tick_volumes` of the next ``n`` and last ``n`` normals of
        one ``standard_normal(2n + 1)``.  One generator call both cuts
        per-tick Python overhead and pins the consumption order in one
        place, which is what keeps the scalar and vector kernels on
        identical random streams.

        ``smooth`` asserts that every slack is 0 (callers may hoist the
        check out of their loop; ``None`` means "check here").  With all
        slacks 0 the weight jitter multiplies out to exactly 1.0 and the
        train volumes to exactly +0.0 in IEEE-754, so the fast path
        returns ``persistent`` and a zero array with identical bits —
        after making the very same RNG draw, keeping the stream aligned.
        """
        n = slacks.size
        z = self.rng.standard_normal(2 * n + 1)
        if smooth is None:
            smooth = not slacks.any()
        if smooth:
            if self._zero_trains is None or self._zero_trains.size != n:
                self._zero_trains = np.zeros(n)
            return float(z[0]), persistent, self._zero_trains
        weights, trains = self.tick_volumes(persistent, slacks, cwnd_bytes, z[1:])
        return float(z[0]), weights, trains

    def tick_volumes(
        self,
        persistent: np.ndarray,
        slacks: np.ndarray,
        cwnd_bytes: np.ndarray,
        z: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-tick max-min weights and packet-train volumes from ``2n``
        standard normals (the weights' ``n``, then the trains' ``n``).

        Weights: lognormal jitter (sigma ``TICK_WEIGHT_SIGMA``) on the
        persistent ones, ``persistent * (1 + s * (X - 1))``.  Trains:
        modern Linux TCP auto-paces even "unpaced" flows at ~1.2x the
        delivery rate, so the back-to-back bytes per RTT are the
        overshoot, ``s * X * TRAIN_FRACTION * cwnd``, with a mean-1
        lognormal X (ACK compression, stretch ACKs, slow-start
        overshoot).  Both engines call this, so they share one
        association of every product.  One ``exp`` covers both halves
        (the weight half's ``+ 0.0`` shift is exact).  From
        ``IN_PLACE_LANES`` lanes on, the same products run in place:
        temporaries cost memory there, in-place ufuncs time at few lanes.
        """
        x = np.exp(z.reshape(2, -1) * self._exp_scale + self._exp_shift)
        if slacks.size < IN_PLACE_LANES:
            weights = persistent * (1.0 + slacks * (x[0] - 1.0))
            trains = slacks * x[1] * TRAIN_FRACTION * cwnd_bytes
            return weights, trains
        weights, trains = x
        weights -= 1.0
        weights *= slacks
        weights += 1.0
        weights *= persistent
        trains *= slacks
        trains *= TRAIN_FRACTION
        trains *= cwnd_bytes
        return weights, trains


def flow_release_slack(pacing, zerocopy: bool, burst: BurstModel) -> float:
    """Burst slack of one flow, honouring pacer-owned release schedules.

    Kernel pacing (:class:`~repro.tcp.pacing.PacingConfig`) derives its
    slack from the qdisc, so the driver asks :meth:`BurstModel.slack_for`.
    Userspace pacers (the QUIC stack) own their release schedule outright
    and advertise it via a ``release_slack(zerocopy)`` method; when the
    pacing object provides one, its answer *is* the slack.  Duck typing
    rather than an import keeps the dependency arrow pointing into the
    simulator (quic -> sim), never out of it.
    """
    release = getattr(pacing, "release_slack", None)
    if release is not None:
        return float(release(zerocopy))
    return burst.slack_for(pacing.smooths_bursts, pacing.enabled, zerocopy)


def concentrate_drops(
    rng: np.random.Generator,
    arrivals: np.ndarray,
    dropped: float,
    spread: int = 2,
) -> np.ndarray:
    """Charge ``dropped`` bytes to a *few* flows, chosen ∝ arrivals.

    Tail drops in a shared buffer land on whichever flows' packets are
    in flight at the overflow instant — a small subset, not everyone.
    This asymmetry is what keeps parallel unpaced flows churning at a
    ceiling (some flows cut while others push) instead of synchronizing
    into a global backoff; it is the source of the paper's sustained
    WAN retransmit counts and per-flow unfairness.  ``spread`` flows
    share each tick's drop volume.
    """
    n = arrivals.size
    total = float(arrivals.sum())
    if total <= 0 or dropped <= 0:
        return np.zeros_like(arrivals)
    if n == 1:
        return np.array([float(dropped)])
    p = np.asarray(arrivals, dtype=float) / total
    k = min(spread, n, int(np.count_nonzero(p)))
    if k == 0:
        return np.zeros_like(arrivals)
    victims = rng.choice(n, size=k, replace=False, p=p)
    out = np.zeros_like(arrivals, dtype=float)
    shares = np.array([0.7, 0.3, 0.15][:k])
    shares = shares / shares.sum()
    out[victims] = dropped * shares
    return out
