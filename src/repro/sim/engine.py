"""The one tick driver of both flow engines.

:func:`run_engine` advances every simulated run: one coordinator loop
over one :class:`_ShardWorker` phase set, with one path for the trace
hook, the sanitizer, the ledger and the metrics.  The entry points pick
its numerics (:class:`repro.sim.shard.Numerics`) and plan: one
in-process block of exactly the flows for
:class:`~repro.sim.flowsim.FlowSimulator`, ``BLOCK_FLOWS``-lane blocks,
possibly across worker processes (a ``multiprocessing.shared_memory``
exchange matrix and a barrier), for the sharded engine.  A one-row
exchange is read directly — the same bits as the fold, without its
per-call cost — so a FlowSimulator tick costs what a dedicated loop
would.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import threading
from multiprocessing.shared_memory import SharedMemory
from typing import Sequence

import numpy as np

from repro.core.faults import crash_once
from repro.core.rng import RngFactory
from repro.sim.bottleneck import maxmin_allocate
from repro.sim.flowsim import LOSS_REACT_FRACTION, FlowSpec, RunSetup
from repro.sim.lossmodel import BurstModel, concentrate_drops
from repro.sim.metrics import MetricsAccumulator, RunResult

__all__ = ["BLOCK_FLOWS", "CRASH_ONCE_ENV", "ShardCrashError", "run_engine"]

CRASH_ONCE_ENV = "REPRO_SHARD_CRASH_ONCE"

#: Flows per reduction block.  Partial sums are always over exactly this
#: many lanes (the population is padded with inert flows), so reduction
#: bits depend only on the block grid — never on the shard count.
BLOCK_FLOWS = 32

#: Exchange-matrix columns, one row per block.  Workers publish partial
#: aggregates; the coordinator writes per-block drop volumes back.
(
    _FOOT,      # sum of working-set footprints (valid lanes)
    _CAPS,      # sum of per-flow rate caps
    _WSUM,      # sum of max-min weights over still-active lanes
    _TRAIN,     # sum of packet-train volumes
    _RCV,       # sum of receiver CPU rate limits (valid lanes)
    _CAPPED,    # water-filling: sum of caps newly limited this round
    _NLIM,      # water-filling: count newly limited this round
    _SENT,      # sum of bytes emitted this tick
    _AFTER1,    # sum of bytes surviving the switch-buffer drops
    _TAFTER,    # sum of train volumes surviving the switch-buffer drops
    _DROPS,     # sum of dropped bytes
    _LOSSN,     # count of reacted loss events (first row per shard)
    _TXAPP,     # sum of alloc * tx app cyc/byte
    _TXIRQ,     # sum of alloc * tx irq cyc/byte
    _RXAPP,     # sum of drate * rx app cyc/byte
    _RXIRQ,     # sum of drate * rx irq cyc/byte
    _ZC,        # sum of zerocopy fractions
    _DSUM,      # sum of delivered bytes
    _D1T,       # coordinator->worker: block train-drop volume, stage 1
    _D1S,       # coordinator->worker: block standing-drop volume, stage 1
    _D2T,       # coordinator->worker: block train-drop volume, stage 2
    _D2S,       # coordinator->worker: block standing-drop volume, stage 2
) = range(22)
_N_COLS = 22

#: Bytes per element of the float64 shared segments.
_F64 = np.dtype(np.float64).itemsize

#: Phase commands, written to the control channel before each barrier.
_CMD_CAPS, _CMD_WF, _CMD_SEND, _CMD_DROPS1, _CMD_FEEDBACK, _CMD_END = range(
    1, 7
)


class ShardCrashError(RuntimeError):
    """A shard worker process died mid-run (barrier broken)."""


def _maybe_crash(shard_id: int, tick: int) -> None:
    """Fault-injection hook: kill shard 0 on its second tick.

    ``REPRO_SHARD_CRASH_ONCE`` is ``always`` or a sentinel path; see
    :func:`repro.core.faults.crash_once`.
    """
    hook = os.environ.get(CRASH_ONCE_ENV)
    if hook and shard_id == 0 and tick == 2:
        crash_once(hook)


def _blocksums(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Per-block partial sums along the last (lane) axis, in fixed lane
    order.  ``axis`` is always -1: it is accepted so a worker calls this
    and ``np.add.reduce`` alike.

    Each output element reduces exactly ``BLOCK_FLOWS`` contiguous
    lanes, so the bits are identical no matter how many blocks one
    worker holds, or how many rows it reduces at once.
    """
    return np.add.reduce(
        values.reshape(*values.shape[:-1], -1, BLOCK_FLOWS), axis=-1
    )


def _concentrate_block(
    gen: np.random.Generator,
    basis: np.ndarray,
    lo: int,
    volume: float,
    out: np.ndarray,
) -> None:
    """Block-local drop concentration, accumulated into ``out``.

    Same physics as :func:`~repro.sim.lossmodel.concentrate_drops` —
    the volume lands on a couple of victims chosen ∝ ``basis`` — but
    via inverse-CDF sampling instead of ``Generator.choice`` with
    ``replace=False``, whose rejection loop dominates massive-flow
    tick cost.  Exactly two uniforms are consumed per call regardless
    of the basis, so the per-block draw count (the shard-invariance
    anchor) never depends on lane data; coinciding victims merge their
    shares, concentrating further, never less.
    """
    cdf = np.cumsum(basis[lo : lo + BLOCK_FLOWS])
    total = float(cdf[-1])
    x = gen.random(2)
    if total <= 0.0:
        return
    v0 = int(cdf.searchsorted(x[0] * total, side="right"))
    v1 = int(cdf.searchsorted(x[1] * total, side="right"))
    if v0 == v1:
        out[lo + v0] += volume  # repro: noqa-SHARD001 — documented fold
    else:
        out[lo + v0] += volume * 0.7  # repro: noqa-SHARD001
        out[lo + v1] += volume * 0.3  # repro: noqa-SHARD001


def _concentrate_lanes(
    gen: np.random.Generator,
    basis: np.ndarray,
    lo: int,
    volume: float,
    out: np.ndarray,
) -> None:
    """:func:`concentrate_drops` over every lane (``lo`` is 0), into
    ``out``; ``out`` starts at +0.0 and drops are non-negative, so the
    fold keeps the bits of the plain sum."""
    out += concentrate_drops(gen, basis, volume)  # repro: noqa-SHARD001


# ----------------------------------------------------------------------
# Worker


class _ShardWorker:
    """One worker's flow lanes: the per-lane formulas and its side of
    the exchange protocol.

    Built in the coordinator process *before* forking, so process-mode
    children inherit every array (scratch pages go copy-on-write; the
    exchange/control/accumulator views map shared segments).  The
    phases evaluate the per-lane formulas, add the numerics' draws,
    allocation and drop placement, and publish partials into ``cols``,
    its blocks' exchange rows indexed by column first (one block: a
    scalar, the same bits as a one-row :func:`_blocksums`).

    Every buffer is fully rewritten each tick before its first read, and
    ``out=`` only changes where results land, never their bits.  (min
    and max are exact and commutative here — both operands are ordinary
    positive floats, so swapped-argument ties return identical bits;
    ``c * x`` rounds as ``x * c``.)
    """

    def __init__(
        self,
        num: Numerics,
        shard_id: int,
        plan: ShardPlan,
        setup: RunSetup,
        *,
        persistent_w: np.ndarray,
        bursts: list[np.random.Generator],
        drop_rngs: list[np.random.Generator],
        exchange: np.ndarray,
        accum: np.ndarray,
    ) -> None:
        self.num = num
        self.shard_id = shard_id
        self.b0, self.b1 = plan.block_range(shard_id)
        self.block = plan.block
        f0, f1 = plan.flow_range(shard_id)
        m = f1 - f0
        self.kern = setup.kernel(f0, f1, num.kernel)
        self.pace_eff = setup.pace_eff[f0:f1]
        self.slacks = setup.slacks[f0:f1]
        self.persistent_w = persistent_w[f0:f1]
        self.bursts = [BurstModel(rng=gen) for gen in bursts[self.b0 : self.b1]]
        self.drop_rngs = drop_rngs[self.b0 : self.b1]
        self.place = _concentrate_lanes if num.lane_drops else _concentrate_block
        self.ex = exchange
        self.one_block = self.b1 - self.b0 == 1
        if self.one_block:
            self.cols = exchange[self.b0]
            self.partials = np.add.reduce
        else:
            self.cols = exchange[self.b0 : self.b1].T
            self.partials = _blocksums
        self.accum = accum[f0:f1]
        self.dt = setup.dt
        self.omit = setup.profile.omit
        self.capacity = setup.capacity
        self.all_smooth = setup.all_smooth
        self.react10, self.max_window = setup.react10, setup.max_window
        # A mask and-ed with all-True validation flags is unchanged.
        self.validate_all = bool(self.kern.needs_validation.all())
        self.fp_floor, self.fp_cap = setup.fp_floor, setup.fp_cap
        # Pad lanes of THIS shard (only the globally last block has any).
        n_valid = min(m, plan.n - f0)
        self.valid_b = np.arange(m) < n_valid
        self.pad_slice = slice(n_valid, m)
        self.valid_f = self.valid_b.astype(float) if n_valid < m else None

        # Persistent per-run state.
        self.tick = 0
        self.now = 0.0
        self.prev_alloc = np.zeros(m)
        self.alloc = np.zeros(m)
        self.active = np.zeros(m, dtype=bool)
        self.had_drops1 = False
        self.empty_idx = np.zeros(0, dtype=np.intp)
        #: Never written: smooth ticks' trains, drop-free ticks' drops.
        self.zeros = np.zeros(m)
        #: Pre-feedback windows, kept only for a per-flow trace.
        self.cwnd_pre: np.ndarray | None = None
        self.drops1, self.drops2 = np.zeros(m), np.zeros(m)
        # Per-tick scratch, rewritten before first read each tick.
        (
            self.foot, self.caps, self.drate, self.scratch, self.sent,
            self.dropsum, self.del_buf,
        ) = (np.empty(m) for _ in range(7))
        self.z_all = np.empty(2 * m)  # weight normals, then train normals
        self.mask_b1, self.mask_b2 = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
        # The CPU-cost products, one row per exchange column TXAPP..RXIRQ,
        # share memory with four buffers nothing reads once they are
        # formed: the window rates (last read by the validation mask),
        # the fair share (water-fill and send) and the stage-1
        # survivors (read by stage-2 placement).
        self.costs = np.empty((4, m))
        self.cost_rows = tuple(self.costs)
        self.wr, self.fair, self.after1, self.tafter = self.cost_rows

    def phases(self) -> dict:
        """The phase methods by command.  (Not kept on the worker: the
        bound methods would make a cycle that outlives the run.)"""
        return {
            _CMD_CAPS: self.round_caps,
            _CMD_WF: self.round_wf,
            _CMD_SEND: self.round_send,
            _CMD_DROPS1: self.round_drops1,
            _CMD_FEEDBACK: self.round_feedback,
        }

    # -- phases --------------------------------------------------------

    def round_caps(self, rtt: float) -> None:
        """Rate caps, this tick's draws, and (local max-min) the send."""
        self.tick += 1
        self.now = self.tick * self.dt
        self.rtt = rtt
        kern, num = self.kern, self.num
        cols, red = self.cols, self.partials
        cwnd = kern.cwnd
        if self.cwnd_pre is not None:
            np.copyto(self.cwnd_pre, cwnd)
        window_rate = np.divide(cwnd, max(rtt, 1e-6), out=self.wr)
        self.pace = pace = kern.pacing(rtt, self.pace_eff)
        # Working set the sender actually touches: the in-flight bytes
        # (~rate*RTT) plus qdisc/socket slack — NOT the raw cwnd, which
        # can sit far above what an app-limited flow uses (cwnd
        # validation keeps them close anyway).
        foot = self.foot
        np.multiply(self.prev_alloc, rtt, out=foot)
        np.multiply(foot, 1.5, out=foot)
        np.maximum(foot, self.fp_floor, out=foot)
        np.minimum(foot, cwnd, out=foot)
        np.minimum(foot, self.fp_cap, out=foot)
        snd_limit, rcv_limit = kern.cpu_limits(rtt, foot)
        # Same left-fold association as np.minimum.reduce([...]).
        caps = np.minimum(window_rate, pace, out=self.caps)
        np.minimum(caps, snd_limit, out=caps)
        np.minimum(caps, rcv_limit, out=caps)

        if num.fused_draw:
            self.noise_z, self.w, self.trains = self.bursts[0].tick_draw(
                self.persistent_w, self.slacks, cwnd, smooth=self.all_smooth
            )
        elif self.all_smooth:
            # All slacks 0: the jitter multiplies out to the persistent
            # weights exactly and trains to +0.0; skip the draws.  The
            # condition is global, so every shard count skips together.
            self.w, self.trains = self.persistent_w, self.zeros
        else:
            # One fixed-size draw per *block* from that block's own
            # stream: the first half jitters the max-min weights, the
            # second scales the packet trains.
            b, m = self.block, self.slacks.size
            z_all = self.z_all
            for j, burst in enumerate(self.bursts):
                z = burst.rng.standard_normal(2 * b)
                z_all[j * b : (j + 1) * b] = z[:b]
                z_all[m + j * b : m + (j + 1) * b] = z[b:]
            self.w, self.trains = self.bursts[0].tick_volumes(
                self.persistent_w, self.slacks, cwnd, z_all
            )

        if self.valid_f is None:
            cols[_FOOT] = red(foot)
            cols[_RCV] = red(rcv_limit)
        else:
            # Pad lanes must allocate exactly 0 in the SEND fast path,
            # which takes max(caps, 0): zero their caps.  FOOT and RCV
            # mask them (their values are kernel-owned and nonzero);
            # multiplying the valid lanes by 1.0 is bit-exact.  The
            # rest are naturally zero on pads (w, trains).
            caps[self.pad_slice] = 0.0
            cols[_FOOT] = red(np.multiply(foot, self.valid_f, out=self.scratch))
            cols[_RCV] = red(np.multiply(rcv_limit, self.valid_f, out=self.scratch))
        if num.local_maxmin:
            # No coordinator round is needed, so the send happens here
            # too.  The weights come out of lognormal jitter (positive
            # by construction), so validation is skipped; the module
            # global stays swappable under test.
            self.alloc = maxmin_allocate(caps, self.capacity, self.w, validate=False)
            cols[_SENT] = red(np.multiply(self.alloc, self.dt, out=self.sent))
        else:
            cols[_CAPS] = red(caps)
            cols[_WSUM] = red(self.w)
            self.alloc.fill(0.0)
            np.copyto(self.active, self.valid_b)
        if not num.lane_drops:
            cols[_TRAIN] = red(self.trains)
        self.had_drops1 = False

    def round_wf(self, share: float) -> None:
        """One water-filling round at the coordinator's fair share."""
        cols, red = self.cols, self.partials
        caps, scratch = self.caps, self.scratch
        np.multiply(self.w, share, out=self.fair)
        limited = np.less_equal(caps, self.fair, out=self.mask_b1)
        np.logical_and(limited, self.active, out=limited)
        np.copyto(self.alloc, caps, where=limited)
        np.multiply(caps, limited, out=scratch)
        cols[_CAPPED] = red(scratch)
        cols[_NLIM] = red(limited)
        np.logical_not(limited, out=self.mask_b2)
        np.logical_and(self.active, self.mask_b2, out=self.active)
        np.multiply(self.w, self.active, out=scratch)
        cols[_WSUM] = red(scratch)

    def round_send(self, mode: float) -> None:
        """Settle the water-fill's allocation and send."""
        caps = self.caps
        resolved = int(mode)
        if resolved == 0:
            # Uncongested fast path: every flow at its (clipped) cap.
            np.maximum(caps, 0.0, out=self.alloc)
        else:
            if resolved == 1:
                # Converged water-fill: still-active flows take the
                # final fair share; limited flows already hold their
                # caps from the WF rounds.
                np.copyto(self.alloc, self.fair, where=self.active)
            np.minimum(self.alloc, caps, out=self.alloc)
            np.maximum(self.alloc, 0.0, out=self.alloc)
        np.multiply(self.alloc, self.dt, out=self.sent)
        self.cols[_SENT] = self.partials(self.sent)

    def _place_drops(
        self,
        out: np.ndarray,
        trains_basis: np.ndarray,
        std_basis: np.ndarray,
        train_col: int,
        std_col: int,
    ) -> None:
        """Concentrate per-block drop volumes onto a few lanes each.

        The volumes (written by the coordinator into ``train_col`` /
        ``std_col``) are global quantities apportioned per block, so
        the per-block draw counts — hence the drop streams — are
        shard-count-invariant.  Draw order within a block is fixed:
        train drops, then standing-queue drops.
        """
        out.fill(0.0)
        ex, place = self.ex, self.place
        for j, gen in enumerate(self.drop_rngs):
            block = self.b0 + j
            lo = j * self.block
            v_train = float(ex[block, train_col])
            if v_train > 0.0:
                place(gen, trains_basis, lo, v_train, out)
            v_std = float(ex[block, std_col])
            if v_std > 0.0:
                place(gen, std_basis, lo, v_std, out)

    def round_drops1(self, _: float = 0.0) -> None:
        cols = self.cols
        self._place_drops(self.drops1, self.trains, self.sent, _D1T, _D1S)
        np.subtract(self.sent, self.drops1, out=self.after1)
        np.maximum(self.after1, 0.0, out=self.after1)
        np.subtract(self.trains, self.drops1, out=self.tafter)
        np.maximum(self.tafter, 0.0, out=self.tafter)
        cols[_AFTER1] = self.partials(self.after1)
        if not self.num.lane_drops:
            cols[_TAFTER] = self.partials(self.tafter)
        self.had_drops1 = True

    def round_feedback(self, any_d2: float) -> None:
        """Stage-2 drops, congestion feedback, CPU costs, accounting."""
        cols, red = self.cols, self.partials
        kern, rtt, alloc = self.kern, self.rtt, self.alloc
        drops: np.ndarray | None
        if any_d2:
            trains_basis = self.tafter if self.had_drops1 else self.trains
            std_basis = self.after1 if self.had_drops1 else self.sent
            self._place_drops(self.drops2, trains_basis, std_basis, _D2T, _D2S)
            if self.had_drops1:
                drops = np.add(self.drops1, self.drops2, out=self.dropsum)
            else:
                drops = self.drops2
        elif self.had_drops1:
            drops = self.drops1
        else:
            drops = None

        if drops is None:
            # No drop volume: delivered is sent, and no flow can clear
            # the (strictly positive) loss-react threshold.  DROPS and
            # DSUM are not read on drop-free ticks.
            delivered = self.sent
            loss_idx = self.empty_idx
            self.drops = self.zeros
        else:
            np.subtract(self.sent, drops, out=self.del_buf)
            np.maximum(self.del_buf, 0.0, out=self.del_buf)
            delivered = self.del_buf
            cols[_DROPS] = red(drops)
            cols[_DSUM] = red(delivered)
            # Flows whose drops exceed the loss-react fraction of their
            # sends.
            threshold = np.maximum(self.sent, 1.0, out=self.scratch)
            np.multiply(threshold, LOSS_REACT_FRACTION, out=threshold)
            loss_idx = np.nonzero(drops > threshold)[0]
            self.drops = drops
        self.delivered = delivered

        # Congestion feedback behind the RFC 7661 validation mask:
        # loss-based algorithms only grow while the window is what
        # binds.  The mask reads this tick's pre-update windows and
        # allocation, with the same left-fold ``(nv & a) & b`` as the
        # expression form (``&`` on bool arrays is logical_and).
        f, mask, b2 = self.scratch, self.mask_b1, self.mask_b2
        np.multiply(alloc, rtt, out=f)
        np.maximum(f, self.react10, out=f)
        np.multiply(f, 1.5, out=f)
        np.greater(kern.cwnd, f, out=mask)
        if not self.validate_all:
            np.logical_and(kern.needs_validation, mask, out=mask)
        np.multiply(alloc, 1.2, out=f)
        np.greater(self.wr, f, out=b2)
        np.logical_and(mask, b2, out=mask)
        self.reacted = reacted = kern.cc_feedback(
            self.now, self.dt, rtt, delivered, loss_idx, mask, self.max_window
        )

        # CPU cost at this tick's operating point: the cycle products
        # alloc·(tx app, tx irq) and drate·(rx app, rx irq), then the
        # zerocopy fractions.
        drate = np.divide(delivered, self.dt, out=self.drate)
        tx_app, tx_irq, self.zc_frac, rx_app, rx_irq = kern.cpu_costs(
            alloc, drate, rtt, self.foot
        )
        c_txapp, c_txirq, c_rxapp, c_rxirq = self.cost_rows
        np.multiply(alloc, tx_app, out=c_txapp)
        np.multiply(alloc, tx_irq, out=c_txirq)
        np.multiply(drate, rx_app, out=c_rxapp)
        np.multiply(drate, rx_irq, out=c_rxirq)
        # One reduction for the four rows: each row's lanes are
        # contiguous, so every sum has the bits of its own reduction.
        cols[_TXAPP : _RXIRQ + 1] = red(self.costs, axis=-1)
        cols[_ZC] = red(self.zc_frac)
        if self.one_block:
            cols[_LOSSN] = len(reacted)
        else:
            cols[_LOSSN] = 0.0
            cols[_LOSSN, 0] = len(reacted)

        if self.now > self.omit:
            np.add(self.accum, delivered, out=self.accum)
        # This tick's allocation becomes prev_alloc, the next tick's
        # footprint input (and what the per-flow trace reads).
        self.prev_alloc, self.alloc = alloc, self.prev_alloc


def _serve(
    worker: _ShardWorker,
    ctl: np.ndarray,
    barrier,
    shard_id: int,
) -> None:
    """Child-process loop: wait, dispatch, wait, repeat until END.

    Any failure — including a broken barrier after a sibling died —
    exits the process immediately; the coordinator's watchdog turns
    that into :class:`ShardCrashError`.
    """
    phases = worker.phases()
    try:
        while True:
            barrier.wait()
            cmd = int(ctl[0])
            if cmd == _CMD_END:
                return
            phases[cmd](float(ctl[1]))
            if cmd == _CMD_CAPS:
                _maybe_crash(shard_id, worker.tick)
            barrier.wait()
    except BaseException:
        os._exit(1)


# ----------------------------------------------------------------------
# Transports: phases map each command to a call taking its float.


def _each(calls: list, f0: float) -> None:
    for call in calls:
        call(f0)


def _inproc_phases(workers: list[_ShardWorker]) -> dict:
    """Phases run in the coordinator process (FlowSimulator, one shard,
    runner pool workers, tests); a single worker's are its bound
    methods, called directly."""
    phases = workers[0].phases()
    if len(workers) > 1:
        each = [worker.phases() for worker in workers]
        phases = {
            cmd: functools.partial(_each, [ph[cmd] for ph in each])
            for cmd in phases
        }
    return phases


def _await(barrier) -> None:
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        raise ShardCrashError("a shard worker process died mid-tick")


def _process_phase(ctl: np.ndarray, barrier, cmd: int, f0: float) -> None:
    # ``ctl`` is the shared-memory control channel: writing it is the
    # protocol.
    ctl[0] = float(cmd)  # repro: noqa-SHARD001
    ctl[1] = float(f0)  # repro: noqa-SHARD001
    _await(barrier)  # release workers into the phase
    _await(barrier)  # wait for every worker's partials


class _SharedMemTransport:
    """Fork one process per shard; synchronize phases via a barrier.

    The workers' exchange/control/accumulator arrays view shared-memory
    segments, so coordinator writes are visible after the start barrier
    and worker writes after the done barrier.  A watchdog thread aborts
    the barrier if any worker dies, converting a hang into
    :class:`ShardCrashError`.  Never ``barrier.wait(timeout)`` on a
    barrier that will be used again — a timed-out wait *breaks* it for
    everyone (the END release is the one exception: it is the
    barrier's last use, and the watchdog is already stopped there).
    """

    def __init__(self, workers: list[_ShardWorker], ctl: np.ndarray) -> None:
        ctx = mp.get_context("fork")
        self.ctl = ctl
        self.barrier = ctx.Barrier(len(workers) + 1)
        self.procs: list = []
        self._stop = threading.Event()
        try:
            for worker in workers:
                proc = ctx.Process(
                    target=_serve,
                    args=(worker, ctl, self.barrier, worker.shard_id),
                    daemon=True,
                )
                proc.start()
                self.procs.append(proc)
        except BaseException:
            # Children already started wait on the start barrier for a
            # release that will never come.
            self.close()
            raise
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()
        # Module-level calls, not bound methods: no cycle through self.
        self.phases = {
            cmd: functools.partial(_process_phase, ctl, self.barrier, cmd)
            for cmd in workers[0].phases()
        }

    def _watch(self) -> None:
        while not self._stop.wait(0.05):
            if any(not proc.is_alive() for proc in self.procs):
                self.barrier.abort()
                return

    def end(self) -> None:
        # Every worker write is already published by the last phase's
        # done barrier; END only releases the workers to exit.  Stop
        # the watchdog *first*: workers dying is expected from here on,
        # and the watchdog aborting the release barrier behind a
        # fast-exiting worker would masquerade as a crash — a spurious
        # retry that duplicates the whole run's trace events.  The
        # timed wait covers a worker that died before reading END: the
        # timeout breaks the barrier (safe — this is its last use) and
        # surfaces as a crash below.
        self._stop.set()
        self._watchdog.join()
        self.ctl[0] = float(_CMD_END)
        self.ctl[1] = 0.0
        try:
            self.barrier.wait(timeout=10.0)
        except threading.BrokenBarrierError:
            raise ShardCrashError(
                "a shard worker process died at end of run"
            )
        for proc in self.procs:
            proc.join(timeout=10.0)

    def close(self) -> None:
        self._stop.set()
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=10.0)


# ----------------------------------------------------------------------
# The tick loop


def run_engine(
    num: Numerics,
    sim,
    groups: Sequence[tuple[FlowSpec, int]],
    rng: RngFactory,
    rep: int,
    plan: ShardPlan,
    *,
    use_procs: bool = False,
    shm_names: list[str] | None = None,
) -> tuple[RunResult, object]:
    """One run of ``sim``'s hosts, path and profile over ``groups``
    (``(spec, count)`` pairs), drawing from ``rng``.

    A process run (one worker process per shard) appends its segment
    names to ``shm_names``; FlowSimulator's numerics need one in-process
    block.  Returns the result and the trace hook, if any.
    """
    prof, n = sim.profile, plan.n
    jitter, place, background, bursts, drop_rngs, rx = num.streams(
        rng, rep, plan.n_blocks
    )
    setup = RunSetup(
        sim.sender, sim.receiver, sim.path, groups, prof, rng=rng, rep=rep,
        jitter_rng=jitter, place_rng=place, bg_rng=background,
        context=num.context, pads=plan.n_pad - n,
    )
    metrics = MetricsAccumulator(prof.duration, prof.omit)

    # Per-run persistent max-min weights, drawn per block from that
    # block's burst stream.
    persistent_w = np.empty(plan.n_pad)
    for block, gen in enumerate(bursts):
        lanes = slice(block * plan.block, (block + 1) * plan.block)
        persistent_w[lanes] = BurstModel(rng=gen).persistent_weights(setup.slacks[lanes])
    persistent_w[n:] = 0.0

    # Shared buffers: the block-partials exchange, the 2-float control
    # channel, and the per-flow delivered-bytes accumulator.
    segments: list[SharedMemory] = []

    def zeros(*shape: int) -> np.ndarray:
        if not use_procs:
            return np.zeros(shape)
        seg = SharedMemory(create=True, size=int(np.prod(shape)) * _F64)
        segments.append(seg)
        if shm_names is not None:
            shm_names.append(seg.name)
        view = np.ndarray(shape, dtype=np.float64, buffer=seg.buf)
        view.fill(0.0)
        return view

    procs: _SharedMemTransport | None = None
    try:
        exchange = zeros(plan.n_blocks, _N_COLS)
        ctl = zeros(2)
        accum = zeros(plan.n_pad)
        workers = [
            _ShardWorker(
                num, shard, plan, setup, persistent_w=persistent_w,
                bursts=bursts, drop_rngs=drop_rngs, exchange=exchange,
                accum=accum,
            )
            for shard in range(plan.shards)
        ]
        lead = workers[0]
        events = num.events(setup, lead, rep)
        # Same wire format for any shard count: the event stream must be
        # shard-count-invariant.
        setup.emit_run_start(rep)
        if use_procs:
            procs = _SharedMemTransport(workers, ctl)
        phases = procs.phases if procs is not None else _inproc_phases(workers)
        caps, wf, send, drops1, feedback = (
            phases[cmd]
            for cmd in (_CMD_CAPS, _CMD_WF, _CMD_SEND, _CMD_DROPS1, _CMD_FEEDBACK)
        )
        dt, mss, capacity = setup.dt, setup.mss, setup.capacity
        red = np.add.reduce
        one_row = plan.n_blocks == 1
        if one_row:
            # A single row is its own fold (same bits), read directly.
            total = exchange[0].item
            cost_row = exchange[0, _TXAPP : _ZC + 1]
        else:
            # Block partials fold in global block order.
            def total(col: int) -> float:
                return float(red(exchange[:, col]))

        # The queues' train bases: the lanes' own volumes, which the
        # link step sums itself, or the columns of block partials.
        lane_drops = num.lane_drops
        col_train, col_tafter = exchange[:, _TRAIN], exchange[:, _TAFTER]

        def apportion(src: int, volume: float, total_: float, dst: int) -> None:
            """Hand a global drop volume to the lanes whole, or split it
            over blocks ∝ column ``src``."""
            if lane_drops:
                exchange[0, dst] = volume
            elif volume > 0.0 and total_ > 0.0:
                np.multiply(exchange[:, src], volume / total_, out=exchange[:, dst])
            else:
                exchange[:, dst] = 0.0

        for step in range(setup.n_ticks):
            # Closed form, not `now += dt`: a million accumulated float
            # adds drift the clock by enough to flip boundary
            # comparisons downstream (lint rule FLOAT002 flags the
            # accumulating pattern in simulation code).
            now = (step + 1) * dt
            rtt = setup.begin_tick(step, now)

            # --- caps, draws, receiver ceiling (and local max-min) ----
            caps(rtt)
            rcv_drain = setup.rx_drain(
                total(_FOOT),
                lead.noise_z if rx is None else float(rx.standard_normal()),
                total(_RCV),
            )

            # --- water-filling over block partials --------------------
            # (Background traffic shares the *physical* link; the admin
            # cap applies to test traffic only.  TCP adapts to the
            # *average* background — the micro-burst sample drives the
            # queue drain, so spikes show up as queueing and loss, not
            # as an instant, clairvoyant rate adjustment.)
            if not num.local_maxmin:
                mode = 0.0
                if capacity <= 0:
                    mode = 2.0
                elif total(_CAPS) > capacity:
                    mode = 2.0
                    remaining = float(capacity)
                    wsum = total(_WSUM)
                    n_active = n
                    for _ in range(n):
                        if n_active == 0 or remaining <= 1e-12:
                            break
                        wf(remaining / wsum)
                        n_limited = int(total(_NLIM))
                        if n_limited == 0:
                            mode = 1.0
                            break
                        remaining -= total(_CAPPED)
                        n_active -= n_limited
                        wsum = total(_WSUM)
                send(mode)

            # --- queues + packet-train loss ---------------------------
            # Standing queues carry the *average* volume (allocations
            # never exceed the drain by construction, so they only build
            # transiently when background spikes eat into the drain).
            offered1 = total(_SENT)
            tick_per_rtt = dt / max(rtt, dt)
            dropped_std1, ov1, trains_total = setup.offer_switch(
                offered1, lead.trains if lane_drops else col_train, tick_per_rtt
            )
            need_d1 = ov1 > 0.0 or dropped_std1 > 0.0
            if need_d1:
                apportion(_TRAIN, ov1, trains_total, _D1T)
                apportion(_SENT, dropped_std1, offered1, _D1S)
                drops1(0.0)
                offered2 = total(_AFTER1)
                basis2 = lead.tafter if lane_drops else col_tafter
            else:
                offered2 = offered1
                basis2 = lead.trains if lane_drops else col_train
            dropped_std2, ov2, basis_total = setup.offer_ring(
                offered2, rcv_drain, basis2, tick_per_rtt,
                None if need_d1 else trains_total,
            )
            need_d2 = ov2 > 0.0 or dropped_std2 > 0.0
            if need_d2:
                apportion(_TAFTER if need_d1 else _TRAIN, ov2, basis_total, _D2T)
                apportion(_AFTER1 if need_d1 else _SENT, dropped_std2, offered2, _D2S)
            feedback(1.0 if need_d2 else 0.0)

            # --- metrics and trace ------------------------------------
            # Drop-free ticks deliver exactly what was sent.
            any_drops = need_d1 or need_d2
            delivered_sum = total(_DSUM) if any_drops else offered1
            loads = setup.record_tick(
                metrics, total(_DROPS) / mss if any_drops else 0.0,
                int(total(_LOSSN)),
                cost_row if one_row else [total(c) for c in range(_TXAPP, _ZC + 1)],
                delivered_sum,
            )
            if events is not None:
                events.tick(step, now, rtt, loads, offered1, delivered_sum)
        if procs is not None:
            procs.end()
        # The goodput it divides out is a fresh array: safe to return
        # after the segments unlink.
        result = metrics.finalize(accum[:n])
    finally:
        if procs is not None:
            procs.close()
        for seg in segments:
            try:
                seg.close()
            except BufferError:
                # numpy views of the mapping are still alive in this
                # process; the kernel frees the pages when they go.
                pass
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
    setup.emit_run_end(rep, result)
    return result, events
