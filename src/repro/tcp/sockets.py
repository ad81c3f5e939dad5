"""Socket buffer sizing and window caps.

TCP throughput over a long path requires window ≥ BDP; windows are
bounded by the send/receive buffer autotuning limits (``tcp_wmem`` /
``tcp_rmem`` max).  Stock Ubuntu limits (6 MB receive, 4 MB send) cap a
104 ms path at roughly ``3 MB / 0.104 s ≈ 230 Mbps`` — three orders of
magnitude below the testbed links, which is why buffer tuning is item
one on fasterdata.es.net and why the paper's base tuning raises both
maxima to 2 GiB.

The *effective* window also drives the cache-footprint term of the CPU
model: a WAN-sized send buffer no longer fits in L3, raising per-byte
copy cost (see :mod:`repro.sim.cpumodel`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.host.sysctl import Sysctls

__all__ = ["SocketProfile"]


@dataclass(frozen=True)
class SocketProfile:
    """Window limits derived from the two endpoints' sysctls."""

    max_send_window: float
    max_recv_window: float

    @classmethod
    def from_sysctls(cls, sender: Sysctls, receiver: Sysctls) -> "SocketProfile":
        return cls(
            max_send_window=sender.max_send_window(),
            max_recv_window=receiver.max_recv_window(),
        )

    @property
    def max_window(self) -> float:
        """The binding window limit (min of both sides)."""
        return min(self.max_send_window, self.max_recv_window)

    def window_limited_rate(self, rtt: float) -> float:
        """Ceiling on throughput from window limits alone, bytes/s."""
        if rtt <= 0:
            return float("inf")
        return self.max_window / rtt
