"""Batched congestion-control state for the vectorized tick kernel.

The scalar simulator keeps one :class:`~repro.tcp.cc.base.CongestionControl`
object per flow and advances them in a Python loop every tick.  For the
vector kernel (``REPRO_SIM_KERNEL=vector``) this module groups flows by
algorithm and keeps each group's state in flat numpy arrays, so a tick
costs O(1) Python-level work per *group*, whatever its lane count.

That flat cost (~6-28 µs per group per tick) only pays for itself
when the group is wide: a scalar object steps in ~0.4-3 µs.  So
:class:`CcBatch` picks the path per algorithm from its lane count —
:data:`OBJECT_LANES` or more lanes get the array stepper, fewer join
the one :class:`_ObjectGroup` and run the scalar objects in a plain
loop.  Both paths are exact, so the choice moves time, never bits.

Stepper registry
----------------
Each array-batched algorithm registers its stepper with the
:func:`batch_stepper` decorator, which stamps the CC class's
``batch_group`` attribute and appends to one ordered ``_REGISTRY``
list, the order of :class:`CcBatch`'s array groups.  Dispatch walks the CC class's MRO: a class with its own registration
batches; a class that *inherits* a stepper without registering its own
raises (the parent's stepper would compute the parent's dynamics for
the subclass's flows); a class with ``batch_group = None`` anywhere on
the MRO (BBR) always runs as scalar objects in the
:class:`_ObjectGroup`.

Byte-parity discipline
----------------------
The arrays must produce *bit-identical* trajectories to the scalar
objects, because golden digests and trace ``events_digest`` values are
compared across kernels.  Three rules make that provable:

* every formula is a literal transcription of the scalar method with
  the same association (e.g. ``C * (d * d * d)`` — see
  :meth:`~repro.tcp.cc.cubic.Cubic._w_cubic_seg` — because elementwise
  float64 ``+ - * /`` round identically in numpy ufuncs and CPython);
* rare per-event work (loss reactions and RTO collapses, which need
  real cube roots or per-flow branches) stays scalar: it loops over the
  handful of affected flows running the same arithmetic the object
  method runs;
* algorithms whose state does not vectorize (BBR's windowed-max deques)
  and groups narrower than :data:`OBJECT_LANES` run the scalar objects
  inside the :class:`_ObjectGroup`, so they are not merely equivalent
  but literally the same code.

Table-driven responses (HighSpeed's RFC 3649 a/b lookup) precompute
their tables once at import; the per-tick work is then a
``searchsorted`` — the same comparisons ``bisect`` runs in the scalar
class — plus the elementwise subset.

Flow-local event order is preserved (loss -> tick -> clamp per flow and
flows are independent), so reordering the loops across flows cannot
change any number.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.tcp.cc.base import CongestionControl
from repro.tcp.cc.cubic import Cubic
from repro.tcp.cc.highspeed import A_STEP, B_STEP, W_BOUNDS, HighSpeed
from repro.tcp.cc.htcp import HTcp
from repro.tcp.cc.reno import Reno
from repro.tcp.cc.scalable import Scalable
from repro.tcp.cc.tunable import TunableCubic
from repro.tcp.cc.westwood import WestwoodPlus

__all__ = [
    "OBJECT_LANES",
    "CcBatch",
    "batch_stepper",
    "group_class_for",
    "is_batchable",
    "template_kinds",
]


#: Fewest lanes of one algorithm that get its array stepper; smaller
#: groups step through their scalar objects in the :class:`_ObjectGroup`.
#: Below 8 lanes the objects are faster for every algorithm; the array
#: steppers win from 16-32 lanes (measured table: DESIGN.md §16).
OBJECT_LANES = 8

#: (CC class, stepper class) in registration order — the order of
#: :class:`CcBatch`'s array groups.
_REGISTRY: list[tuple[type[CongestionControl], type["_ArrayGroup"]]] = []


def batch_stepper(cc_cls: type[CongestionControl]):
    """Class decorator: register an :class:`_ArrayGroup` for ``cc_cls``."""

    def register(group_cls: type["_ArrayGroup"]) -> type["_ArrayGroup"]:
        cc_cls.batch_group = group_cls
        _REGISTRY.append((cc_cls, group_cls))
        return group_cls

    return register


def group_class_for(cc_cls: type) -> type["_ArrayGroup"] | None:
    """The stepper for ``cc_cls``, ``None`` for the object path.

    Raises :class:`ConfigurationError` for a subclass of an
    array-batched algorithm that has no registration of its own —
    never silently degrade, never silently compute the wrong dynamics.
    """
    for klass in cc_cls.__mro__:
        if "batch_group" not in vars(klass):
            continue
        group = vars(klass)["batch_group"]
        if group is None or klass is cc_cls:
            return group
        raise ConfigurationError(
            f"{cc_cls.__name__} inherits {klass.__name__}'s batch stepper "
            f"{group.__name__} but registers none of its own; add a "
            f"@batch_stepper({cc_cls.__name__}) stepper in "
            f"repro.tcp.cc.batch, or set batch_group = None on "
            f"{cc_cls.__name__} to run it as scalar objects"
        )
    return None


def is_batchable(kind: str) -> bool:
    """Whether a cc *kind* string names an algorithm with an array stepper.

    Accepts the same parameterized kind grammar as
    :func:`repro.tcp.cc.make_cc` (``"tunable-cubic:c=0.8,beta=0.9"``).
    This is the one batchability predicate shared by every consumer of
    the registry — the sharded simulator's validation and the QUIC
    stack's pacer/cc wiring both route through it, so "which kinds can
    batch" has exactly one answer.
    """
    from repro.tcp.cc import CC_ALGORITHMS

    base = kind.partition(":")[0].strip().lower()
    cc_cls = CC_ALGORITHMS.get(base)
    return cc_cls is not None and group_class_for(cc_cls) is not None


def template_kinds() -> list[str]:
    """Registered algorithm names that have an array stepper."""
    from repro.tcp.cc import CC_ALGORITHMS

    return sorted(
        name
        for name, cc_cls in CC_ALGORITHMS.items()
        if group_class_for(cc_cls) is not None
    )


class _ArrayGroup:
    """Shared slow-start machinery for array-backed algorithm groups."""

    def __init__(self, idx: np.ndarray, template: CongestionControl) -> None:
        """Lanes ``idx`` of one kind, each starting from ``template``'s
        freshly constructed state."""
        g = int(idx.size)
        self.idx = idx
        #: True when this group holds every flow in natural order, so
        #: per-flow inputs can be used directly instead of gathered and
        #: the group window array can back the full ``CcBatch.cwnd``.
        self.full = False
        self.mss = template.mss
        self.cwnd = np.full(g, float(template.state.cwnd_bytes))
        self.ssthresh = np.full(g, float(template.state.ssthresh_bytes))
        self.in_ss = np.full(g, bool(template.state.in_slow_start))
        self.any_ss = bool(self.in_ss.any())
        self.last_loss = np.full(g, float("-inf"))
        self.loss_events = np.zeros(g, dtype=int)

    def pacing(self, rtt: float, pace: np.ndarray) -> None:
        return  # loss-based algorithms are window-limited (pacing_rate None)

    def _slow_start(self, delivered: np.ndarray, ss_idx: np.ndarray) -> np.ndarray:
        """Advance slow start for ``ss_idx``; returns the exiting subset.

        Mirrors ``CongestionControl._slow_start_tick``: cwnd grows by the
        ACKed bytes and collapses onto ssthresh on crossing.
        """
        self.cwnd[ss_idx] += delivered[ss_idx]
        ex = ss_idx[self.cwnd[ss_idx] >= self.ssthresh[ss_idx]]
        if ex.size:
            self.cwnd[ex] = self.ssthresh[ex]
            self.in_ss[ex] = False
            self.any_ss = bool(self.in_ss.any())
        return ex

    def _loss_gate(self, now: float, rtt: float, pos: int) -> bool:
        """Rate limit mirroring ``CongestionControl.on_loss``."""
        if now - self.last_loss[pos] < CongestionControl.LOSS_REACTION_RTTS * rtt:
            return False
        self.last_loss[pos] = now
        self.loss_events[pos] += 1
        return True

    def timeout_one(self, now: float, pos: int) -> tuple[float, float]:
        """Scalar transcription of ``CongestionControl.on_timeout`` for
        one flow; subclass epoch state resets via :meth:`_timeout_reset`
        (the batch mirror of ``_react_to_timeout``)."""
        before = float(self.cwnd[pos])
        self.ssthresh[pos] = max(2 * self.mss, self.cwnd[pos] * 0.5)
        self.cwnd[pos] = 2 * self.mss
        if not self.in_ss[pos]:
            self.in_ss[pos] = True
            self.any_ss = True
        self.loss_events[pos] += 1
        self.last_loss[pos] = now
        self._timeout_reset(now, pos)
        return before, float(self.cwnd[pos])

    def _timeout_reset(self, now: float, pos: int) -> None:
        return

    def clamp(self, max_window: float) -> None:
        np.minimum(self.cwnd, max_window, out=self.cwnd)

    def sync(self, cwnd_full: np.ndarray) -> None:
        if cwnd_full is self.cwnd:
            return  # full group: the batch shares this very array
        cwnd_full[self.idx] = self.cwnd


@batch_stepper(Cubic)
class _CubicBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.cubic.Cubic`.

    The CUBIC constants (``C``, ``BETA`` and the Reno-tracking slope
    ``_alpha``) are read from the template as Python floats, so the
    same code serves :class:`_TunableCubicBatch`, whose kinds set them.
    """

    def __init__(self, idx: np.ndarray, template: Cubic) -> None:
        super().__init__(idx, template)
        g = int(idx.size)
        self._c = float(template.C)
        self._beta = float(template.BETA)
        self._alpha = float(template._alpha)
        self.w_max = np.zeros(g)
        self.k = np.zeros(g)
        # NaN encodes the scalar model's ``_epoch_start is None``; the
        # bool array and count mirror it so the hot path never needs a
        # per-tick isnan scan.
        self.epoch = np.full(g, np.nan)
        self.epoch_open = np.zeros(g, dtype=bool)
        self.n_open = 0
        self.w_est = np.zeros(g)
        # Steady-state scratch buffers (out= targets only move where
        # results land, never their bits).
        self._t1 = np.empty(g)
        self._t2 = np.empty(g)

    def _open_epoch(self, now: float, sel: np.ndarray) -> None:
        """Epoch open at a slow-start exit: w_start == w_max, so the
        scalar ``delta ** (1/3)`` is exactly 0.0 and no cbrt is needed."""
        w = self.cwnd[sel] / self.mss
        self.w_max[sel] = w
        self.k[sel] = 0.0
        self.epoch[sel] = now
        self.epoch_open[sel] = True
        self.n_open += int(sel.size)
        self.w_est[sel] = w

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        full = self.full
        d = delivered if full else delivered[self.idx]
        al = al_mask if full else al_mask[self.idx]
        any_al = bool(al.any())
        g = self.cwnd.size
        if not self.any_ss and not any_al and self.n_open == g:
            # Steady state: the whole group is in congestion avoidance
            # with open epochs — same formulas (left-to-right, with
            # commutative swaps like ``x * C`` for ``C * x`` that round
            # identically), no gathers, scatters, or allocations.
            b1, b2 = self._t1, self._t2
            np.subtract(now, self.epoch, out=b1)  # t
            np.subtract(b1, self.k, out=b1)  # dd
            np.multiply(b1, b1, out=b2)
            np.multiply(b2, b1, out=b2)  # dd**3
            np.multiply(b2, self._c, out=b2)
            np.add(b2, self.w_max, out=b2)  # target
            if rtt > 0:
                # min(cwnd) > 0 iff every cwnd > 0 (no NaNs here); one
                # reduce is cheaper than a compare plus .all().
                if float(np.minimum.reduce(self.cwnd)) > 0.0:
                    np.divide(d, self.cwnd, out=b1)
                    np.multiply(b1, self._alpha, out=b1)
                    np.add(self.w_est, b1, out=self.w_est)
                else:
                    pi = np.nonzero(self.cwnd > 0)[0]
                    self.w_est[pi] += self._alpha * (d[pi] / self.cwnd[pi])
            np.maximum(b2, self.w_est, out=b2)
            np.multiply(b2, self.mss, out=b2)
            # where(new > cw, new, cw) == maximum(new, cw) bit-for-bit
            # (both operands are ordinary positive floats).
            np.maximum(b2, self.cwnd, out=self.cwnd)
            return
        if any_al and self.n_open == g and al.all():
            # Whole group app-limited with open epochs: no flow runs the
            # growth step, and the slide mask equals ``al`` (all true) —
            # a masked += with an all-true mask adds the same bits
            # elementwise.
            np.add(self.epoch, dt, out=self.epoch)
            return
        run = ~al
        if self.any_ss:
            ss = run & self.in_ss
            if ss.any():
                ex = self._slow_start(d, np.nonzero(ss)[0])
                if ex.size:
                    self._open_epoch(now, ex)
            gi = np.nonzero(run & ~self.in_ss)[0]
        else:
            gi = np.nonzero(run)[0]
        if gi.size:
            if self.n_open < g:
                need = gi[~self.epoch_open[gi]]
                if need.size:
                    self._open_epoch(now, need)
            t = now - self.epoch[gi]
            dd = t - self.k[gi]
            target = self._c * (dd * dd * dd) + self.w_max[gi]
            if rtt > 0:
                pi = gi[self.cwnd[gi] > 0]
                self.w_est[pi] += self._alpha * (d[pi] / self.cwnd[pi])
            new_bytes = np.maximum(target, self.w_est[gi]) * self.mss
            cw = self.cwnd[gi]
            self.cwnd[gi] = np.where(new_bytes > cw, new_bytes, cw)
        if any_al:
            slide = al & self.epoch_open
            if slide.any():
                # Cubic.on_app_limited: the epoch origin slides with
                # app-limited wall time (legitimate duration integral).
                self.epoch[slide] += dt  # repro: noqa-FLOAT002

    def loss_one(self, now: float, rtt: float, pos: int):
        """Scalar transcription of ``Cubic._react_to_loss`` for one flow."""
        if not self._loss_gate(now, rtt, pos):
            return None
        c, beta = self._c, self._beta
        before = float(self.cwnd[pos])
        w_seg = self.cwnd[pos] / self.mss
        if w_seg < self.w_max[pos]:
            w_max = w_seg * (1.0 + beta) / 2.0
        else:
            w_max = w_seg
        self.cwnd[pos] = max(2 * self.mss, self.cwnd[pos] * beta)
        self.ssthresh[pos] = self.cwnd[pos]
        if self.in_ss[pos]:
            self.in_ss[pos] = False
            self.any_ss = bool(self.in_ss.any())
        w_start = self.cwnd[pos] / self.mss
        self.w_max[pos] = w_max
        delta = max(0.0, (w_max - w_start) / c)
        self.k[pos] = delta ** (1.0 / 3.0)
        self.epoch[pos] = now
        if not self.epoch_open[pos]:
            self.epoch_open[pos] = True
            self.n_open += 1
        self.w_est[pos] = w_start
        return before, float(self.cwnd[pos])

    def _timeout_reset(self, now: float, pos: int) -> None:
        """Mirror of ``Cubic._react_to_timeout``: forget the epoch."""
        self.w_max[pos] = 0.0
        self.k[pos] = 0.0
        self.w_est[pos] = 0.0
        self.epoch[pos] = np.nan
        if self.epoch_open[pos]:
            self.epoch_open[pos] = False
            self.n_open -= 1


@batch_stepper(Reno)
class _RenoBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.reno.Reno`."""

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        full = self.full
        d = delivered if full else delivered[self.idx]
        al = al_mask if full else al_mask[self.idx]
        run = ~al
        # Reno returns after a slow-start tick even when it exits, so the
        # avoidance set is fixed *before* the slow-start advance.
        if self.any_ss:
            ca = run & ~self.in_ss
            ss = run & self.in_ss
            if ss.any():
                self._slow_start(d, np.nonzero(ss)[0])
        else:
            ca = run
        if rtt > 0:
            ci = np.nonzero(ca)[0]
            ci = ci[self.cwnd[ci] > 0]
            if ci.size:
                cw = self.cwnd[ci]
                self.cwnd[ci] = cw + self.mss * (d[ci] / cw)

    def loss_one(self, now: float, rtt: float, pos: int):
        if not self._loss_gate(now, rtt, pos):
            return None
        before = float(self.cwnd[pos])
        self.ssthresh[pos] = max(2 * self.mss, self.cwnd[pos] * Reno.BETA)
        self.cwnd[pos] = self.ssthresh[pos]
        if self.in_ss[pos]:
            self.in_ss[pos] = False
            self.any_ss = bool(self.in_ss.any())
        return before, float(self.cwnd[pos])


@batch_stepper(HighSpeed)
class _HighSpeedBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.highspeed.HighSpeed`.

    ``np.searchsorted(..., side="right")`` on the import-time table
    runs the same comparisons as the scalar class's ``bisect_right`` on
    the same values, so the gathered a/b steps are identical floats.
    """

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        full = self.full
        d = delivered if full else delivered[self.idx]
        al = al_mask if full else al_mask[self.idx]
        run = ~al
        # HighSpeed returns after a slow-start tick (Reno-style exit).
        if self.any_ss:
            ca = run & ~self.in_ss
            ss = run & self.in_ss
            if ss.any():
                self._slow_start(d, np.nonzero(ss)[0])
        else:
            ca = run
        if rtt > 0:
            ci = np.nonzero(ca)[0]
            ci = ci[self.cwnd[ci] > 0]
            if ci.size:
                cw = self.cwnd[ci]
                a = A_STEP[np.searchsorted(W_BOUNDS, cw / self.mss, side="right")]
                self.cwnd[ci] = cw + a * (self.mss * (d[ci] / cw))

    def loss_one(self, now: float, rtt: float, pos: int):
        if not self._loss_gate(now, rtt, pos):
            return None
        before = float(self.cwnd[pos])
        w_seg = self.cwnd[pos] / self.mss
        b = float(B_STEP[int(np.searchsorted(W_BOUNDS, w_seg, side="right"))])
        self.cwnd[pos] = max(2 * self.mss, self.cwnd[pos] * (1.0 - b))
        self.ssthresh[pos] = self.cwnd[pos]
        if self.in_ss[pos]:
            self.in_ss[pos] = False
            self.any_ss = bool(self.in_ss.any())
        return before, float(self.cwnd[pos])


@batch_stepper(HTcp)
class _HtcpBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.htcp.HTcp`.

    The epoch clock uses the cubic NaN encoding (``start`` is NaN while
    the scalar model's ``_delta_start`` is None, with a bool mirror).
    """

    def __init__(self, idx: np.ndarray, template: HTcp) -> None:
        super().__init__(idx, template)
        g = int(idx.size)
        self.start = np.full(g, np.nan)
        self.started = np.zeros(g, dtype=bool)
        self.rtt_min = np.full(g, float("inf"))
        self.rtt_max = np.zeros(g)

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        full = self.full
        d = delivered if full else delivered[self.idx]
        al = al_mask if full else al_mask[self.idx]
        run = ~al
        ri = np.nonzero(run)[0]
        if rtt > 0 and ri.size:
            # `if rtt < min: min = rtt` == minimum() for NaN-free floats.
            self.rtt_min[ri] = np.minimum(self.rtt_min[ri], rtt)
            self.rtt_max[ri] = np.maximum(self.rtt_max[ri], rtt)
        if self.any_ss:
            ss = run & self.in_ss
            if ss.any():
                self._slow_start(d, np.nonzero(ss)[0])
            gi = np.nonzero(run & ~self.in_ss)[0]
        else:
            gi = ri
        if gi.size:
            # Seed the epoch clock at slow-start exit / first CA tick
            # (scalar: ``_delta_start = now`` in both branches).
            need = gi[~self.started[gi]]
            if need.size:
                self.start[need] = now
                self.started[need] = True
            if rtt > 0:
                pi = gi[self.cwnd[gi] > 0]
                if pi.size:
                    delta = now - self.start[pi]
                    ex_t = delta - HTcp.DELTA_L
                    half = ex_t * 0.5
                    a_poly = 1.0 + 10.0 * ex_t + half * half
                    # Branch select, not arithmetic — parity-safe.
                    a = np.where(delta <= HTcp.DELTA_L, 1.0, a_poly)
                    cw = self.cwnd[pi]
                    self.cwnd[pi] = cw + a * (self.mss * (d[pi] / cw))
        if al.any():
            slide = al & self.started
            if slide.any():
                # HTcp.on_app_limited: the epoch clock slides with
                # app-limited wall time (legitimate duration integral).
                self.start[slide] += dt  # repro: noqa-FLOAT002

    def loss_one(self, now: float, rtt: float, pos: int):
        if not self._loss_gate(now, rtt, pos):
            return None
        before = float(self.cwnd[pos])
        if self.rtt_max[pos] > 0.0:
            beta = self.rtt_min[pos] / self.rtt_max[pos]
            if beta < HTcp.BETA_MIN:
                beta = HTcp.BETA_MIN
            elif beta > HTcp.BETA_MAX:
                beta = HTcp.BETA_MAX
        else:
            beta = HTcp.BETA_MIN
        self.cwnd[pos] = max(2 * self.mss, self.cwnd[pos] * beta)
        self.ssthresh[pos] = self.cwnd[pos]
        if self.in_ss[pos]:
            self.in_ss[pos] = False
            self.any_ss = bool(self.in_ss.any())
        self.start[pos] = now
        self.started[pos] = True
        self.rtt_min[pos] = float("inf")
        self.rtt_max[pos] = 0.0
        return before, float(self.cwnd[pos])

    def _timeout_reset(self, now: float, pos: int) -> None:
        """Mirror of ``HTcp._react_to_timeout``: drop the epoch clock."""
        self.start[pos] = np.nan
        self.started[pos] = False
        self.rtt_min[pos] = float("inf")
        self.rtt_max[pos] = 0.0


@batch_stepper(Scalable)
class _ScalableBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.scalable.Scalable`."""

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        full = self.full
        d = delivered if full else delivered[self.idx]
        al = al_mask if full else al_mask[self.idx]
        run = ~al
        if self.any_ss:
            ca = run & ~self.in_ss
            ss = run & self.in_ss
            if ss.any():
                self._slow_start(d, np.nonzero(ss)[0])
        else:
            ca = run
        if rtt > 0:
            ci = np.nonzero(ca)[0]
            ci = ci[self.cwnd[ci] > 0]
            if ci.size:
                cw = self.cwnd[ci]
                self.cwnd[ci] = cw + Scalable.AI * d[ci]

    def loss_one(self, now: float, rtt: float, pos: int):
        if not self._loss_gate(now, rtt, pos):
            return None
        before = float(self.cwnd[pos])
        self.cwnd[pos] = max(2 * self.mss, self.cwnd[pos] * Scalable.BETA)
        self.ssthresh[pos] = self.cwnd[pos]
        if self.in_ss[pos]:
            self.in_ss[pos] = False
            self.any_ss = bool(self.in_ss.any())
        return before, float(self.cwnd[pos])


@batch_stepper(WestwoodPlus)
class _WestwoodBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.westwood.WestwoodPlus`."""

    def __init__(self, idx: np.ndarray, template: WestwoodPlus) -> None:
        super().__init__(idx, template)
        g = int(idx.size)
        self.bw = np.zeros(g)
        self.acked = np.zeros(g)
        self.win_start = np.zeros(g)
        self.rtt_min = np.full(g, float("inf"))

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        full = self.full
        d = delivered if full else delivered[self.idx]
        al = al_mask if full else al_mask[self.idx]
        run = ~al
        ri = np.nonzero(run)[0]
        if ri.size:
            if rtt > 0:
                self.rtt_min[ri] = np.minimum(self.rtt_min[ri], rtt)
            # Sample-window byte counter, consumed by the filter below.
            self.acked[ri] += d[ri]  # repro: noqa-FLOAT002
            if rtt > 0:
                span = now - self.win_start[ri]
                closing = span >= rtt
                ui = ri[closing]
                if ui.size:
                    sample = self.acked[ui] / span[closing]
                    self.bw[ui] = (
                        WestwoodPlus.FILTER_OLD * self.bw[ui]
                        + WestwoodPlus.FILTER_NEW * sample
                    )
                    self.acked[ui] = 0.0
                    self.win_start[ui] = now
        # Growth is exactly Reno's (returns after a slow-start tick).
        if self.any_ss:
            ca = run & ~self.in_ss
            ss = run & self.in_ss
            if ss.any():
                self._slow_start(d, np.nonzero(ss)[0])
        else:
            ca = run
        if rtt > 0:
            ci = np.nonzero(ca)[0]
            ci = ci[self.cwnd[ci] > 0]
            if ci.size:
                cw = self.cwnd[ci]
                self.cwnd[ci] = cw + self.mss * (d[ci] / cw)

    def _bdp_at(self, pos: int) -> float:
        if self.rtt_min[pos] == float("inf"):
            return 0.0
        return self.bw[pos] * self.rtt_min[pos]

    def loss_one(self, now: float, rtt: float, pos: int):
        if not self._loss_gate(now, rtt, pos):
            return None
        before = float(self.cwnd[pos])
        self.ssthresh[pos] = max(2 * self.mss, self._bdp_at(pos))
        if self.cwnd[pos] > self.ssthresh[pos]:
            self.cwnd[pos] = self.ssthresh[pos]
        if self.in_ss[pos]:
            self.in_ss[pos] = False
            self.any_ss = bool(self.in_ss.any())
        return before, float(self.cwnd[pos])

    def _timeout_reset(self, now: float, pos: int) -> None:
        """Mirror of ``WestwoodPlus._react_to_timeout``."""
        self.ssthresh[pos] = max(2 * self.mss, self._bdp_at(pos))
        self.acked[pos] = 0.0
        self.win_start[pos] = now


@batch_stepper(TunableCubic)
class _TunableCubicBatch(_CubicBatch):
    """:class:`_CubicBatch` for :class:`~repro.tcp.cc.tunable.TunableCubic`.

    Each distinct kind string (``"tunable-cubic:beta=0.6"``) is its own
    group, so a group's alpha/beta/C are its template's floats.
    """


class _ObjectGroup:
    """Flows advanced through their scalar CC objects.

    Two kinds of flow land here.  BBR's windowed-max filters and phase
    wheels are deque/state-machine shaped, so it has no array stepper.
    And any batchable algorithm with fewer than :data:`OBJECT_LANES`
    lanes in a batch runs here too, because at that width the objects
    are faster than an array stepper's flat per-group cost.  Either
    way parity is trivial — this *is* the scalar path.
    """

    def __init__(self, idx: np.ndarray, ccs: list[CongestionControl]) -> None:
        self.idx = idx
        self.ccs = ccs
        self._lanes = list(zip(idx.tolist(), ccs))

    def pacing(self, rtt: float, pace: np.ndarray) -> None:
        for i, cc in self._lanes:
            rate = cc.pacing_rate(rtt)
            if rate is not None:
                pace[i] = min(pace[i], rate)

    def tick(self, now: float, dt: float, rtt: float,
             delivered: np.ndarray, al_mask: np.ndarray) -> None:
        # Python floats run the same IEEE operations as np.float64
        # scalars, and one bulk read is cheaper than per-lane indexing.
        d = delivered.tolist()
        al = al_mask.tolist()
        for i, cc in self._lanes:
            if al[i]:
                cc.on_app_limited(now, dt)
            else:
                cc.on_tick(now, dt, d[i], rtt)

    def loss_one(self, now: float, rtt: float, pos: int):
        cc = self.ccs[pos]
        before = float(cc.cwnd_bytes)
        if cc.on_loss(now, rtt):
            return before, float(cc.cwnd_bytes)
        return None

    def timeout_one(self, now: float, pos: int) -> tuple[float, float]:
        cc = self.ccs[pos]
        before = float(cc.cwnd_bytes)
        cc.on_timeout(now)
        return before, float(cc.cwnd_bytes)

    def clamp(self, max_window: float) -> None:
        for cc in self.ccs:
            cc.clamp(max_window)

    def sync(self, cwnd_full: np.ndarray) -> None:
        cwnd_full[self.idx] = [cc.cwnd_bytes for cc in self.ccs]


class CcBatch:
    """Batched congestion feedback over a mixed set of flows.

    Built from per-flow cc kinds, the :func:`~repro.tcp.cc.make_cc`
    names (``"cubic"``, ``"tunable-cubic:beta=0.6"``).  Each distinct
    kind gets one template object, whose fresh state every array lane
    of that kind starts from.  Array groups follow the registry order,
    sub-ordered by a kind's first appearance; flows of an algorithm
    with fewer than :data:`OBJECT_LANES` lanes, and every flow of an
    algorithm with no stepper (BBR), step as per-flow objects in the
    one :class:`_ObjectGroup`, last.  Set-up is O(kinds) plus those
    objects, whatever the flow count.
    """

    def __init__(self, kinds: Sequence[str], mss: float) -> None:
        from repro.tcp.cc import make_cc

        n = len(kinds)
        if n == 0:
            raise ConfigurationError("need at least one flow")
        by_kind: dict[str, list[int]] = {}
        for i, kind in enumerate(kinds):
            by_kind.setdefault(kind, []).append(i)
        templates = {kind: make_cc(kind, mss=mss) for kind in by_kind}
        group_of = {
            kind: group_class_for(type(cc)) for kind, cc in templates.items()
        }
        # Lanes per algorithm (not per parameterized kind string).
        lanes: dict[type | None, int] = {}
        for kind, idx in by_kind.items():
            gcls = group_of[kind]
            lanes[gcls] = lanes.get(gcls, 0) + len(idx)
        #: Whether any flow may impose its own pacing rate: only classes
        #: without a batch stepper (BBR) do; lets the kernel skip the fold.
        self.self_paced = None in lanes
        self.cwnd = np.empty(n)
        self.needs_validation = np.empty(n, dtype=bool)
        reg_pos = {gcls: p for p, (_cc_cls, gcls) in enumerate(_REGISTRY)}
        groups: list = []
        objects: dict[int, CongestionControl] = {}
        # A stable sort keeps first appearance within an algorithm.
        for kind in sorted(by_kind, key=lambda k: reg_pos.get(group_of[k], -1)):
            idx, gcls, template = by_kind[kind], group_of[kind], templates[kind]
            lanes_of_kind = np.array(idx)
            self.cwnd[lanes_of_kind] = template.cwnd_bytes
            self.needs_validation[lanes_of_kind] = template.needs_cwnd_validation
            if gcls is None or lanes[gcls] < OBJECT_LANES:
                # The untouched template steps as the kind's first flow.
                objects[idx[0]] = template
                objects.update((i, make_cc(kind, mss=mss)) for i in idx[1:])
            else:
                groups.append(gcls(lanes_of_kind, template))
        if objects:
            idx = sorted(objects)
            groups.append(
                _ObjectGroup(np.array(idx), [objects[i] for i in idx])
            )
        self._groups = groups
        # flow index -> (owning group, position within the group)
        self._owner: dict[int, tuple] = {}
        for grp in groups:
            for pos, i in enumerate(grp.idx.tolist()):
                self._owner[i] = (grp, pos)
        # Homogeneous common case: one array group holding every flow
        # in natural order.  The group's state array then backs
        # ``self.cwnd`` directly — per-flow inputs need no gather, the
        # window sync no scatter.
        if len(groups) == 1 and isinstance(groups[0], _ArrayGroup):
            groups[0].full = True
            self.cwnd = groups[0].cwnd

    def pacing(self, rtt: float, pace: np.ndarray) -> None:
        """Fold self-imposed (BBR) pacing rates into ``pace`` in place."""
        for grp in self._groups:
            grp.pacing(rtt, pace)

    def feedback(
        self,
        now: float,
        dt: float,
        rtt: float,
        delivered: np.ndarray,
        loss_idx: np.ndarray,
        al_mask: np.ndarray,
        max_window: float,
    ) -> list[tuple[int, float, float]]:
        """One tick of congestion feedback for every flow.

        Applies loss reactions for ``loss_idx`` (ascending), then the
        window advance (tick or app-limited freeze), then the socket
        clamp — the same flow-local order as the scalar loop.  Returns
        ``(flow, cwnd_before, cwnd_after)`` per *reacted* loss, for the
        driver's ``cc.loss`` trace events.
        """
        reacted: list[tuple[int, float, float]] = []
        for i in loss_idx:
            grp, pos = self._owner[int(i)]
            res = grp.loss_one(now, rtt, pos)
            if res is not None:
                reacted.append((int(i), res[0], res[1]))
        for grp in self._groups:
            grp.tick(now, dt, rtt, delivered, al_mask)
            grp.clamp(max_window)
            grp.sync(self.cwnd)
        return reacted

    def timeout(self, now: float, idx) -> list[tuple[int, float, float]]:
        """RTO collapse for the given flows (rare; scalar per flow).

        The fluid driver never starves a flow long enough to RTO — this
        exists so the timeout path has a batch transcription at all,
        keeping ``on_timeout``/``_react_to_timeout`` under the same
        scalar<->vector parity tests as the tick and loss paths.
        """
        reacted: list[tuple[int, float, float]] = []
        for i in idx:
            grp, pos = self._owner[int(i)]
            before, after = grp.timeout_one(now, pos)
            reacted.append((int(i), before, after))
        for grp in self._groups:
            grp.sync(self.cwnd)
        return reacted
