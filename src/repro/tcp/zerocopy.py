"""MSG_ZEROCOPY send-path model with ``optmem_max`` accounting.

How the real mechanism works (de Bruijn & Dumazet, netdev 2017):

1. ``send(fd, buf, len, MSG_ZEROCOPY)`` *pins* the user pages and links
   them into skb fragments instead of copying — cheap per byte.
2. The kernel must tell the application when the pages are safe to
   reuse, which happens only once the data is cumulatively ACKed —
   i.e. roughly one RTT later.  The pending completion notification is
   charged against the socket's *ancillary buffer* allowance,
   ``net.core.optmem_max``, at a fixed kernel-structure cost per
   outstanding sendmsg.
3. If the allowance is exhausted, the send does **not** block — it
   silently *falls back to copying*, after having paid part of the
   zerocopy setup cost.  Fallback is therefore strictly more expensive
   than an ordinary copying send.

Consequences, all visible in the paper's Fig. 9:

* default ``optmem_max`` (20 KB) → nearly every send falls back →
  zerocopy *hurts*: same throughput, higher sender CPU;
* 1 MB → enough notification space for the 25/54 ms paths at 50 Gbps,
  but on the 104 ms path a large fraction still falls back and the
  sender tops out near 40 Gbps, CPU-bound;
* ~3.25 MB (the paper's empirically best 3405376) → the whole
  bandwidth-delay product's worth of sends fits → full pacing rate at
  every RTT and minimum CPU.

Model: with block size ``B`` per sendmsg (iperf3 default 128 KB),
notification structure cost ``NOTIF_BYTES`` each, and round-trip time
``rtt``, the number of in-flight sends at goodput rate ``r`` is
``r * rtt / B``; the socket can hold ``optmem_max / NOTIF_BYTES``
pending notifications, so the fraction of sends taking the true
zerocopy path is::

    zc_fraction = min(1, (optmem_max / NOTIF_BYTES) * B / (r * rtt))

``NOTIF_BYTES = 687`` is back-solved from the paper's own data point:
3405376 B of optmem was exactly enough for 104 ms x ~50 Gbps with
128 KB sends (3405376 / (0.104 * 6.25e9 / 131072) ≈ 687).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import units
from repro.core.errors import ConfigurationError

__all__ = ["ZerocopyModel", "NOTIF_BYTES", "NOTIF_BYTES_COALESCED", "DEFAULT_SEND_BLOCK"]

#: Ancillary-space cost per outstanding zerocopy sendmsg, back-solved
#: from the paper's best-value measurement (see module docstring).
#: Kernels >= 6.6 coalesce completion notifications more aggressively,
#: shrinking the effective per-send cost — which is how kernel 6.8
#: reaches the full 50 Gbps pacing rate on the 104 ms path with only
#: 1 MB of optmem where 6.5 needed ~3.25 MB (paper Figs. 5 vs 9, and
#: the paper's own note that the best optmem value "didn't have
#: consistent behaviour across all kernel versions").
NOTIF_BYTES = 687.0
NOTIF_BYTES_COALESCED = 350.0

#: iperf3's default TCP read/write block size.
DEFAULT_SEND_BLOCK = 131072.0


@dataclass(frozen=True)
class ZerocopyModel:
    """Per-socket MSG_ZEROCOPY accounting."""

    optmem_max: float
    send_block_bytes: float = DEFAULT_SEND_BLOCK
    notif_bytes: float = NOTIF_BYTES

    def __post_init__(self) -> None:
        if self.optmem_max <= 0:
            raise ConfigurationError("optmem_max must be positive")
        if self.send_block_bytes <= 0:
            raise ConfigurationError("send block must be positive")
        if self.notif_bytes <= 0:
            raise ConfigurationError("notification size must be positive")

    @property
    def max_pending_sends(self) -> float:
        """Completion notifications the socket can hold at once."""
        return self.optmem_max / self.notif_bytes

    @property
    def max_inflight_bytes(self) -> float:
        """Unacked bytes coverable by true-zerocopy sends."""
        return self.max_pending_sends * self.send_block_bytes

    def inflight_sends(self, rate: float, rtt: float) -> float:
        """Sends awaiting completion at goodput ``rate`` over ``rtt``."""
        return max(0.0, rate * rtt / self.send_block_bytes)

    def zc_fraction(self, rate: float, rtt: float) -> float:
        """Fraction of sends taking the true zerocopy path.

        At rate 0 (or zero RTT — loopback-ish LAN) everything fits and
        the fraction is 1.
        """
        inflight = rate * rtt
        if inflight <= 0:
            return 1.0
        return min(1.0, self.max_inflight_bytes / inflight)

    def required_optmem(self, rate: float, rtt: float) -> float:
        """optmem_max needed for 100% zerocopy at ``rate`` over ``rtt``.

        This is the planning helper the paper's recommendations imply:
        size optmem to the BDP's worth of notifications.
        """
        return self.inflight_sends(rate, rtt) * self.notif_bytes

    def describe(self, rate: float, rtt: float) -> str:
        frac = self.zc_fraction(rate, rtt)
        return (
            f"optmem_max={self.optmem_max:.0f}B -> "
            f"{self.max_pending_sends:.0f} pending sends "
            f"({self.max_inflight_bytes / units.M:.0f} MB coverable); "
            f"zerocopy fraction at load: {frac:.0%}"
        )
