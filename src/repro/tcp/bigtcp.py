"""BIG TCP configuration (GSO/GRO sizes above 64 KB).

BIG TCP (Dumazet, netdev 0x15) raises the GSO/GRO super-packet ceiling
from the legacy 64 KB to up to 512 KB, cutting the number of times the
stack is traversed per byte.  The paper tests 150 KB-class sizes via::

    ip link set dev eth100 gso_ipv4_max_size 150000 gro_ipv4_max_size 150000

Constraints reproduced (kernel limits in :mod:`repro.host.kernel`, the
checks in :class:`~repro.host.machine.Host`):

* needs kernel >= 5.19 (IPv6) or >= 6.3 (IPv4); the configuring tool
  (iproute2 >= 6.2) is assumed;
* cannot be combined with MSG_ZEROCOPY on stock kernels — both consume
  skb fragment slots and the stock ``MAX_SKB_FRAGS=17`` cannot hold a
  512 KB zerocopy chain.  A custom ``CONFIG_MAX_SKB_FRAGS=45`` build
  (paper §V.C) lifts this; the paper measured up to +65% with the
  combination but found it unstable (it also required an mlx5 driver
  patch), which we mirror with a configurable instability jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.host.kernel import Kernel

__all__ = ["BigTcpConfig", "PAPER_BIG_TCP_SIZE"]

#: The GSO/GRO size used in the paper's BIG TCP runs (~150 KB).
PAPER_BIG_TCP_SIZE = 153600


@dataclass(frozen=True)
class BigTcpConfig:
    """A validated BIG TCP setting for one host."""

    gso_size: int
    gro_size: int
    ipv6: bool = False

    def __post_init__(self) -> None:
        if self.gso_size < 65536 or self.gro_size < 65536:
            raise ConfigurationError(
                "BIG TCP sizes start at the 64 KB legacy maximum"
            )

    @classmethod
    def paper(cls) -> "BigTcpConfig":
        return cls(gso_size=PAPER_BIG_TCP_SIZE, gro_size=PAPER_BIG_TCP_SIZE)

    def effective_gso(self, kernel: Kernel) -> float:
        return float(min(self.gso_size, kernel.big_tcp_limit(ipv6=self.ipv6)))

    def effective_gro(self, kernel: Kernel) -> float:
        return float(min(self.gro_size, kernel.big_tcp_limit(ipv6=self.ipv6)))
