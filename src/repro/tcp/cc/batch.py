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
list.  That single list drives *both* :class:`CcBatch` constructors —
the object path (``__init__``) and the template path (``from_kinds``) —
so their group ordering cannot diverge (it used to be hard-coded twice,
and a divergence would silently break scalar<->batch digest parity).
Dispatch walks the CC class's MRO: a class with its own registration
batches; a class that *inherits* a stepper without registering its own
raises (the parent's stepper would compute the parent's dynamics for
the subclass's flows — silently demoting it to the object path, the
old behaviour, is exactly the bug this replaces); a class with
``batch_group = None`` anywhere on the MRO always runs as scalar
objects in the :class:`_ObjectGroup`.

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

#: (CC class, stepper class) in registration order — the one canonical
#: group ordering shared by both :class:`CcBatch` constructors.
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
    """Whether a cc *kind* string names a template-batchable algorithm.

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
    """Registered algorithm names that support template batching."""
    from repro.tcp.cc import CC_ALGORITHMS

    return sorted(
        name
        for name, cc_cls in CC_ALGORITHMS.items()
        if group_class_for(cc_cls) is not None
    )


class _ArrayGroup:
    """Shared slow-start machinery for array-backed algorithm groups."""

    def __init__(self, idx: np.ndarray, ccs: list[CongestionControl]) -> None:
        g = len(ccs)
        self.idx = idx
        #: True when this group holds every flow in natural order, so
        #: per-flow inputs can be used directly instead of gathered and
        #: the group window array can back the full ``CcBatch.cwnd``.
        self.full = False
        self.mss = ccs[0].mss
        self.cwnd = np.array([cc.state.cwnd_bytes for cc in ccs])
        self.ssthresh = np.array([cc.state.ssthresh_bytes for cc in ccs])
        self.in_ss = np.array([cc.state.in_slow_start for cc in ccs])
        self.any_ss = bool(self.in_ss.any())
        self.last_loss = np.full(g, float("-inf"))
        self.loss_events = np.zeros(g, dtype=int)

    @classmethod
    def _from_template(
        cls, idx: np.ndarray, template: CongestionControl
    ) -> "_ArrayGroup":
        """Build a group by replicating one template CC's initial state.

        The per-object constructor reads identical freshly-constructed
        state from every object of a kind, so replicating one template's
        values produces the same arrays without materializing one Python
        CC object per flow — the massive-flow (sharded) path relies on
        this to stay O(kinds) rather than O(flows) at setup.
        """
        self = cls.__new__(cls)
        g = int(idx.size)
        self.idx = idx
        self.full = False
        self.mss = template.mss
        self.cwnd = np.full(g, float(template.state.cwnd_bytes))
        self.ssthresh = np.full(g, float(template.state.ssthresh_bytes))
        self.in_ss = np.full(g, bool(template.state.in_slow_start))
        self.any_ss = bool(self.in_ss.any())
        self.last_loss = np.full(g, float("-inf"))
        self.loss_events = np.zeros(g, dtype=int)
        return self

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


#: Cubic's TCP-friendly Reno-tracking slope, 3(1-β)/(1+β) — the same
#: scalar expression ``Cubic.__init__`` evaluates, precomputed once.
_CUBIC_ALPHA = 3.0 * (1.0 - Cubic.BETA) / (1.0 + Cubic.BETA)


@batch_stepper(Cubic)
class _CubicBatch(_ArrayGroup):
    """Array transcription of :class:`~repro.tcp.cc.cubic.Cubic`.

    The CUBIC constants live in ``self._c`` / ``self._beta`` /
    ``self._alpha`` — Python floats here, per-flow arrays in the
    :class:`_TunableCubicBatch` subclass.  Elementwise multiplication
    by a scalar and by an array of that scalar round identically, so
    the shared formulas stay bit-exact in both shapes.
    """

    def __init__(self, idx: np.ndarray, ccs: list[Cubic]) -> None:
        super().__init__(idx, ccs)
        self._init_cubic_state(len(ccs))
        self._init_params(ccs)

    @classmethod
    def _from_template(cls, idx: np.ndarray, template: Cubic) -> "_CubicBatch":
        self = super()._from_template(idx, template)
        self._init_cubic_state(int(idx.size))
        self._init_template_params(template, int(idx.size))
        return self

    def _init_cubic_state(self, g: int) -> None:
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

    # -- parameter plumbing (scalars here, arrays in the tunable subclass) --

    def _init_params(self, ccs: list[Cubic]) -> None:
        self._c = Cubic.C
        self._beta = Cubic.BETA
        self._alpha = _CUBIC_ALPHA

    def _init_template_params(self, template: Cubic, g: int) -> None:
        self._c = Cubic.C
        self._beta = Cubic.BETA
        self._alpha = _CUBIC_ALPHA

    def _c_at(self, sel: np.ndarray):
        return self._c

    def _alpha_at(self, sel: np.ndarray):
        return self._alpha

    def _loss_params(self, pos: int) -> tuple[float, float]:
        return self._c, self._beta

    # -----------------------------------------------------------------------

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
                    self.w_est[pi] += self._alpha_at(pi) * (d[pi] / self.cwnd[pi])
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
            target = self._c_at(gi) * (dd * dd * dd) + self.w_max[gi]
            if rtt > 0:
                pi = gi[self.cwnd[gi] > 0]
                self.w_est[pi] += self._alpha_at(pi) * (d[pi] / self.cwnd[pi])
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
        c, beta = self._loss_params(pos)
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

    def __init__(self, idx: np.ndarray, ccs: list[HTcp]) -> None:
        super().__init__(idx, ccs)
        self._init_htcp_state(len(ccs))

    @classmethod
    def _from_template(cls, idx: np.ndarray, template: HTcp) -> "_HtcpBatch":
        self = super()._from_template(idx, template)
        self._init_htcp_state(int(idx.size))
        return self

    def _init_htcp_state(self, g: int) -> None:
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

    def __init__(self, idx: np.ndarray, ccs: list[WestwoodPlus]) -> None:
        super().__init__(idx, ccs)
        self._init_westwood_state(len(ccs))

    @classmethod
    def _from_template(
        cls, idx: np.ndarray, template: WestwoodPlus
    ) -> "_WestwoodBatch":
        self = super()._from_template(idx, template)
        self._init_westwood_state(int(idx.size))
        return self

    def _init_westwood_state(self, g: int) -> None:
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
    """:class:`_CubicBatch` with per-flow alpha/beta/C parameter arrays.

    The object constructor may mix parameterizations in one group; the
    template path builds one group per distinct kind string, so the
    arrays are then constant — still bit-identical, since elementwise
    array arithmetic equals the scalar-constant arithmetic lane by lane.
    """

    def _init_params(self, ccs: list[TunableCubic]) -> None:
        self._c = np.array([cc.C for cc in ccs])
        self._beta = np.array([cc.BETA for cc in ccs])
        self._alpha = np.array([cc._alpha for cc in ccs])

    def _init_template_params(self, template: TunableCubic, g: int) -> None:
        self._c = np.full(g, float(template.C))
        self._beta = np.full(g, float(template.BETA))
        self._alpha = np.full(g, float(template._alpha))

    def _c_at(self, sel: np.ndarray):
        return self._c[sel]

    def _alpha_at(self, sel: np.ndarray):
        return self._alpha[sel]

    def _loss_params(self, pos: int) -> tuple[float, float]:
        return float(self._c[pos]), float(self._beta[pos])


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
    """Batched congestion feedback over a mixed set of flows."""

    def __init__(self, ccs: list[CongestionControl]) -> None:
        self.cwnd = np.array([cc.cwnd_bytes for cc in ccs])
        self.needs_validation = np.array(
            [cc.needs_cwnd_validation for cc in ccs]
        )
        by_group: dict[type, list[int]] = {}
        objects: dict[int, CongestionControl] = {}
        for i, cc in enumerate(ccs):
            gcls = group_class_for(type(cc))
            if gcls is None:
                objects[i] = cc
            else:
                by_group.setdefault(gcls, []).append(i)
        #: Whether any flow may impose its own pacing rate: only classes
        #: without a batch stepper (BBR) do; lets the kernel skip the fold.
        self.self_paced = bool(objects)
        # Deterministic group order: registry (definition) order, object
        # group last — from_kinds derives its order from the same
        # registry list, so the two constructors cannot diverge.
        groups: list = []
        for _cc_cls, gcls in _REGISTRY:
            idx = by_group.pop(gcls, None)
            if not idx:
                continue
            if len(idx) < OBJECT_LANES:
                objects.update((i, ccs[i]) for i in idx)
            else:
                groups.append(gcls(np.array(idx), [ccs[i] for i in idx]))
        self._assemble(groups, objects)

    @classmethod
    def from_kinds(cls, kinds: list[str], mss: float) -> "CcBatch":
        """Build a batch from per-flow algorithm *names* via templates.

        The object constructor above needs one Python CC object per
        flow; at sharded campaign scale (10k–1M flows) that is the
        setup bottleneck.  Freshly-constructed CCs of a kind are
        interchangeable, so one template per kind supplies the initial
        state (:meth:`_ArrayGroup._from_template`) and group membership
        comes straight from the name list.  Parameterized kinds
        (``"tunable-cubic:alpha=..."``) group per distinct string, each
        with its own template.  An algorithm with fewer than
        :data:`OBJECT_LANES` lanes gets per-flow objects instead, as in
        the object constructor; that is fewer than ``OBJECT_LANES``
        objects per algorithm, so setup stays O(kinds).  Only
        array-backed algorithms are supported — object-group CCs (BBR)
        would need per-flow objects at any scale, defeating the point.
        """
        from repro.tcp.cc import CC_ALGORITHMS, make_cc

        self = cls.__new__(cls)
        n = len(kinds)
        if n == 0:
            raise ConfigurationError("need at least one flow")
        reg_pos = {cc_cls: p for p, (cc_cls, _g) in enumerate(_REGISTRY)}
        by_kind: dict[str, list[int]] = {}
        group_types: dict[str, type] = {}
        # Kind -> (registry position, first appearance): the same
        # registry order the object constructor walks, sub-ordered by
        # first appearance for parameterized variants of one algorithm.
        order: dict[str, tuple[int, int]] = {}
        for i, kind in enumerate(kinds):
            if kind not in group_types:
                base = kind.partition(":")[0].strip().lower()
                cc_cls = CC_ALGORITHMS.get(base)
                gcls = group_class_for(cc_cls) if cc_cls is not None else None
                if gcls is None:
                    raise ConfigurationError(
                        f"cc {kind!r} does not support template batching; "
                        f"choose one of {template_kinds()}"
                    )
                group_types[kind] = gcls
                order[kind] = (reg_pos[cc_cls], len(order))
            by_kind.setdefault(kind, []).append(i)
        # Lanes per algorithm, as the object constructor counts them.
        lanes: dict[type, int] = {}
        for kind, idx in by_kind.items():
            gcls = group_types[kind]
            lanes[gcls] = lanes.get(gcls, 0) + len(idx)
        self.cwnd = np.empty(n)
        self.needs_validation = np.empty(n, dtype=bool)
        self.self_paced = False
        groups: list = []
        objects: dict[int, CongestionControl] = {}
        for kind in sorted(by_kind, key=order.__getitem__):
            idx = by_kind[kind]
            gcls = group_types[kind]
            template = make_cc(kind, mss=mss)
            self.cwnd[idx] = template.cwnd_bytes
            self.needs_validation[idx] = template.needs_cwnd_validation
            if lanes[gcls] < OBJECT_LANES:
                objects.update((i, make_cc(kind, mss=mss)) for i in idx)
            else:
                groups.append(gcls._from_template(np.array(idx), template))
        self._assemble(groups, objects)
        return self

    def _assemble(
        self, groups: list, objects: dict[int, CongestionControl]
    ) -> None:
        """Finish construction: append the object group (flows in index
        order), map each flow to its owner, alias a lone array group."""
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
