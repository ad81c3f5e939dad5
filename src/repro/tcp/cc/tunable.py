"""TCPTuner-style CUBIC with runtime-settable alpha / beta / C.

"TCPTuner: Congestion Control Your Way" (Miller & Hsiao) exposes
CUBIC's compiled-in constants as knobs.  This class does the same for
the fluid model: ``c`` scales the cubic growth term, ``beta`` the
multiplicative decrease, and ``alpha`` the TCP-friendly Reno-tracking
slope (default: the standard ``3(1-beta)/(1+beta)`` derived from the
chosen beta).  A parameter sweep is then just a set of flow kinds —
``make_cc`` accepts ``"tunable-cubic:alpha=1.5,beta=0.5,c=0.8"`` — so
an alpha x beta grid is an ordinary experiment campaign
(``repro run cc-tuner``).

The implementation *is* :class:`~repro.tcp.cc.cubic.Cubic`: the knobs
shadow the class constants as instance attributes, which the parent's
methods already read through ``self``.  The batch layer steps each
distinct parameterization as its own ``_TunableCubicBatch`` group,
with that kind's constants.
"""

from __future__ import annotations

from repro.core.errors import ConfigurationError
from repro.tcp.cc.cubic import Cubic

__all__ = ["TunableCubic"]


class TunableCubic(Cubic):
    """CUBIC whose C / beta / alpha are constructor parameters."""

    name = "tunable-cubic"

    def __init__(
        self,
        mss: float = 8960.0,
        initial_cwnd_segments: int = 10,
        *,
        alpha: float | None = None,
        beta: float = Cubic.BETA,
        c: float = Cubic.C,
    ):
        beta = float(beta)
        c = float(c)
        if not 0.0 < beta < 1.0:
            raise ConfigurationError(f"tunable-cubic beta must be in (0, 1), got {beta}")
        if c <= 0.0:
            raise ConfigurationError(f"tunable-cubic c must be positive, got {c}")
        # Shadow the class constants before Cubic.__init__ derives the
        # default TCP-friendly slope from self.BETA.
        self.BETA = beta
        self.C = c
        super().__init__(mss, initial_cwnd_segments)
        if alpha is not None:
            alpha = float(alpha)
            if alpha <= 0.0:
                raise ConfigurationError(
                    f"tunable-cubic alpha must be positive, got {alpha}"
                )
            self._alpha = alpha
