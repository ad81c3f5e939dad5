"""Sharded massive-flow simulation: 10k–1M flows across worker processes.

The paper drives at most 16 parallel iperf3 streams, but the R&E links
it studies carry thousands of concurrent flows.  This module scales the
PR-5 :class:`~repro.sim.kernels.VectorKernel` to that regime by
splitting the per-flow arrays across worker processes.  Workers own
contiguous *blocks* of flows; every cross-flow quantity the tick needs
(max-min water-filling state, queue offers, CPU budget sums) travels as
O(blocks) partial aggregates through a ``multiprocessing.shared_memory``
exchange matrix, synchronized by a barrier — two waits per phase, a
handful of phases per tick.

Shard-count invariance
----------------------
``n_shards ∈ {1, 2, 4}`` produce byte-identical
``ExperimentResult.digest()`` and ``events_digest``.  Two mechanisms
carry the guarantee:

* **Blockwise reductions in fixed global order.**  Flows are padded to
  a multiple of ``BLOCK_FLOWS`` and every partial aggregate is a
  per-block sum (``np.add.reduce`` over exactly ``BLOCK_FLOWS`` lanes).
  The block grid depends only on the flow count, never on the shard
  count; the coordinator folds block partials in global block order.
  A sum computed this way cannot see where the shard boundaries fall.

* **A fixed shard→RNG-stream mapping.**  Every random draw belongs to
  a *block*, not a shard: block ``b`` draws bursts from the stream
  ``shard:burst:b{b}`` and drop placement from ``shard:drop:b{b}``,
  claimed up front on the run's :class:`~repro.core.rng.RngFactory`
  (which raises :class:`~repro.core.rng.RngStreamCollisionError` on
  any label collision).  Run-global draws (host jitter, background
  samples, rx-ceiling noise) stay on the coordinator.  Whichever
  worker owns block ``b`` consumes exactly the same stream in exactly
  the same order.

Shared physics, per-engine layout
---------------------------------
The engine reuses the unsharded simulator's code wherever both compute
the same floats: set-up and the per-tick link step come from
:class:`~repro.sim.flowsim.RunSetup` (placement, geometry, cost models,
queues, background resample, RTT, receiver ceiling, switch and ring
offers, train overflow) and the per-lane caps, validation mask and
CPU-cost formulas from :class:`~repro.sim.flowsim.FlowLanes`.  What stays
here is where the numbers differ by design: drop placement is per block
(:func:`_concentrate_block`, not
:func:`~repro.sim.lossmodel.concentrate_drops`), max-min runs as a block
water-fill, and burst and weight draws follow the block RNG layout.  So
its numbers are compared against *its own* goldens (any shard count),
not against the unsharded simulator's.

Fault handling
--------------
A watchdog thread aborts the barrier when any worker process dies, the
coordinator surfaces :class:`ShardCrashError`, the run unlinks its
shared-memory segments and retries from the seed (fresh RNG streams,
hence byte-identical results).  The ``REPRO_SHARD_CRASH_ONCE``
environment hook (a sentinel path, or ``always``) kills shard 0 on its
second tick for the fault-injection tests.

Selection mirrors :mod:`repro.sim.kernels`: ``REPRO_SIM_SHARDS`` or the
:func:`force_shards` / :func:`forced_shards` programmatic overrides.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Iterator, Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.faults import crash_once
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.sim.flowsim import FlowLanes, FlowSpec, RunSetup, SimProfile
from repro.sim.kernels import VectorKernel
from repro.sim.lossmodel import BURST_SIGMA, TRAIN_FRACTION, BurstModel
from repro.sim.metrics import MetricsAccumulator, RunResult
from repro.tcp.cc.batch import CcBatch

__all__ = [
    "ENV_VAR",
    "CRASH_ONCE_ENV",
    "BLOCK_FLOWS",
    "FlowPopulation",
    "ShardPlan",
    "ShardCrashError",
    "ShardedFlowSimulator",
    "shard_count",
    "force_shards",
    "forced_shards",
]

ENV_VAR = "REPRO_SIM_SHARDS"
CRASH_ONCE_ENV = "REPRO_SHARD_CRASH_ONCE"

#: Flows per reduction block.  Partial sums are always over exactly this
#: many lanes (the population is padded with inert flows), so reduction
#: bits depend only on the block grid — never on the shard count.
BLOCK_FLOWS = 32

#: Crashed runs restart from the seed this many times before giving up.
MAX_ATTEMPTS = 3

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

#: Shared empty array for the coordinator's metrics accumulator — the
#: per-flow byte totals live in the shared ``accum`` segment instead.
_EMPTY = np.zeros(0)

#: Programmatic override: None defers to the environment variable.
_forced: int | None = None


class ShardCrashError(RuntimeError):
    """A shard worker process died mid-run (barrier broken)."""


def shard_count() -> int:
    """The shard count the next sharded run will use."""
    if _forced is not None:
        return _forced
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigurationError(
            f"{ENV_VAR}={raw!r} is not a shard count; need an integer >= 1"
        )
    return count


def force_shards(count: int | None) -> None:
    """Override the environment selection (None restores it)."""
    global _forced
    if count is not None and count < 1:
        raise ConfigurationError("shard count must be >= 1")
    _forced = count


@contextmanager
def forced_shards(count: int) -> Iterator[None]:
    """Scope a shard-count selection (used by the runner and tests)."""
    prev = _forced
    force_shards(count)
    try:
        yield
    finally:
        force_shards(prev)


def _burst_label(block: int) -> str:
    """RNG stream label for block ``block``'s burst draws."""
    return f"shard:burst:b{block}"


def _drop_label(block: int) -> str:
    """RNG stream label for block ``block``'s drop placement."""
    return f"shard:drop:b{block}"


def _maybe_crash(shard_id: int, tick: int) -> None:
    """Fault-injection hook: kill shard 0 on its second tick.

    ``REPRO_SHARD_CRASH_ONCE`` is ``always`` or a sentinel path; see
    :func:`repro.core.faults.crash_once`.
    """
    hook = os.environ.get(CRASH_ONCE_ENV)
    if hook and shard_id == 0 and tick == 2:
        crash_once(hook)


def _blocksums(values: np.ndarray) -> np.ndarray:
    """Per-block partial sums in fixed lane order.

    Each output element reduces exactly ``BLOCK_FLOWS`` lanes, so the
    bits are identical no matter how many blocks one worker holds.
    """
    return np.add.reduce(values.reshape(-1, BLOCK_FLOWS), axis=1)


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


# ----------------------------------------------------------------------
# Population and partitioning


@dataclass(frozen=True)
class FlowPopulation:
    """Compact grouped description of a (possibly huge) flow set.

    Massive campaigns repeat a handful of flow configurations tens of
    thousands of times; storing ``(spec, count)`` groups keeps setup
    O(groups) where a per-flow list would be O(flows).
    """

    groups: tuple[tuple[FlowSpec, int], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("need at least one flow group")
        for _, count in self.groups:
            if count < 1:
                raise ConfigurationError("flow group counts must be >= 1")

    @classmethod
    def uniform(cls, spec: FlowSpec, count: int) -> "FlowPopulation":
        """``count`` identical flows."""
        return cls(groups=((spec, int(count)),))

    @classmethod
    def of(cls, flows: Sequence[FlowSpec]) -> "FlowPopulation":
        """Group an explicit flow list (adjacent equal specs merge)."""
        groups: list[tuple[FlowSpec, int]] = []
        for spec in flows:
            if groups and groups[-1][0] == spec:
                prev, count = groups[-1]
                groups[-1] = (prev, count + 1)
            else:
                groups.append((spec, 1))
        return cls(groups=tuple(groups))

    @property
    def n(self) -> int:
        return sum(count for _, count in self.groups)


@dataclass(frozen=True)
class ShardPlan:
    """Block grid and shard ownership for a flow population.

    Blocks are global: the grid depends only on the flow count.  Shards
    own contiguous whole-block ranges, so every reduction block lives
    entirely inside one shard and pads exist only in the final block.
    """

    n: int             # real flows
    n_blocks: int      # ceil(n / BLOCK_FLOWS)
    n_pad: int         # n_blocks * BLOCK_FLOWS
    bounds: tuple[int, ...]  # block boundaries, len == shards + 1

    @classmethod
    def build(cls, n: int, requested: int) -> "ShardPlan":
        if n < 1:
            raise ConfigurationError("need at least one flow")
        if requested < 1:
            raise ConfigurationError("shard count must be >= 1")
        n_blocks = -(-n // BLOCK_FLOWS)
        shards = max(1, min(requested, n_blocks))
        bounds = tuple(
            (s * n_blocks) // shards for s in range(shards + 1)
        )
        return cls(
            n=n,
            n_blocks=n_blocks,
            n_pad=n_blocks * BLOCK_FLOWS,
            bounds=bounds,
        )

    @property
    def shards(self) -> int:
        return len(self.bounds) - 1

    def block_range(self, shard: int) -> tuple[int, int]:
        return self.bounds[shard], self.bounds[shard + 1]

    def flow_range(self, shard: int) -> tuple[int, int]:
        b0, b1 = self.block_range(shard)
        return b0 * BLOCK_FLOWS, b1 * BLOCK_FLOWS


# ----------------------------------------------------------------------
# Worker


class _ShardWorker:
    """One shard's flow lanes plus its side of the exchange protocol.

    Built in the coordinator process *before* forking, so process-mode
    children inherit every array (scratch pages go copy-on-write; the
    exchange/control/accumulator views map shared segments).  The
    per-lane formulas are the unsharded engine's own
    (:class:`~repro.sim.flowsim.FlowLanes`); the phases add the block
    layout around them — per-block burst draws, water-filling rounds,
    block drop placement — and publish per-block partials.  The module
    docstring explains why that makes the results shard-count-invariant.
    """

    def __init__(
        self,
        shard_id: int,
        plan: ShardPlan,
        setup: RunSetup,
        *,
        persistent_w: np.ndarray,
        valid: np.ndarray,
        burst_rngs: list[np.random.Generator],
        drop_rngs: list[np.random.Generator],
        exchange: np.ndarray,
        accum: np.ndarray,
    ) -> None:
        self.shard_id = shard_id
        self.b0, self.b1 = plan.block_range(shard_id)
        f0, f1 = plan.flow_range(shard_id)
        m = f1 - f0
        # Each shard rebuilds its slice of the congestion state from
        # per-kind templates; only algorithms narrower than
        # OBJECT_LANES get per-flow CC objects.
        self.kern = kern = VectorKernel.from_batch(
            CcBatch.from_kinds(setup.kinds[f0:f1], mss=float(setup.mss)),
            setup.send_models[f0:f1],
            setup.recv_models[f0:f1],
            **setup.kernel_args,
        )
        self.lanes = FlowLanes(kern, setup, setup.pace_eff[f0:f1])
        self.slacks = setup.slacks[f0:f1]
        self.persistent_w = persistent_w[f0:f1]
        valid_b = self.valid_b = valid[f0:f1]
        self.valid_f = valid_b.astype(float)
        self.burst_rngs = burst_rngs[self.b0 : self.b1]
        self.drop_rngs = drop_rngs[self.b0 : self.b1]
        self.ex = exchange
        self.rows = slice(self.b0, self.b1)
        self.accum = accum[f0:f1]
        self.dt = setup.dt
        self.omit = setup.profile.omit
        self.all_smooth = setup.all_smooth
        # Pad lanes of THIS shard (only the globally last block has any).
        n_local_valid = int(np.count_nonzero(valid_b))
        self.pad_slice = slice(n_local_valid, m)

        # Persistent per-run state.
        self.tick = 0
        self.now = 0.0
        self.prev_alloc = np.zeros(m)
        self.alloc = np.zeros(m)
        self.active = np.zeros(m, dtype=bool)
        self.had_drops1 = False
        self.empty_idx = np.zeros(0, dtype=np.intp)
        self.zero_trains = np.zeros(m)

        # Per-tick scratch, rewritten before first read each tick.
        self.fair = np.empty(m)
        self.sent = np.empty(m)
        self.after1 = np.empty(m)
        self.tafter = np.empty(m)
        self.drops1 = np.zeros(m)
        self.drops2 = np.zeros(m)
        self.dropsum = np.empty(m)
        self.del_buf = np.empty(m)
        self.zw_all = np.empty(m)
        self.zt_all = np.empty(m)
        self.t_buf = np.empty(m)
        self.w_buf = np.empty(m)
        self.trains_buf = np.empty(m)
        # The arrays this tick's draws landed in (fast path aliases the
        # persistent/zero arrays; see round_caps).
        self.w: np.ndarray = self.persistent_w
        self.trains: np.ndarray = self.zero_trains

    # -- phases --------------------------------------------------------

    def round_caps(self, rtt: float) -> None:
        self.tick += 1
        self.now = self.tick * self.dt
        self.rtt = rtt
        ex, rows, lanes = self.ex, self.rows, self.lanes
        _, footprint, rcv_limit, caps = lanes.rate_caps(rtt, self.prev_alloc)
        # Pad lanes must allocate exactly 0 in the SEND fast path, which
        # takes max(caps, 0); zero their caps after the min fold.
        caps[self.pad_slice] = 0.0

        if self.all_smooth:
            # All slacks 0: the jitter multiplies out to the persistent
            # weights exactly and trains to +0.0; skip the draws.  The
            # condition is global, so every shard count skips together.
            self.w = self.persistent_w
            self.trains = self.zero_trains
        else:
            # One fixed-size draw per *block* from that block's own
            # stream: z[:BLOCK_FLOWS] jitters the max-min weights,
            # z[BLOCK_FLOWS:] scales the packet trains — the same split
            # as the driver's fused tick_draw, per block.
            for j, gen in enumerate(self.burst_rngs):
                lanes_j = slice(j * BLOCK_FLOWS, (j + 1) * BLOCK_FLOWS)
                z = gen.standard_normal(2 * BLOCK_FLOWS)
                self.zw_all[lanes_j] = z[:BLOCK_FLOWS]
                self.zt_all[lanes_j] = z[BLOCK_FLOWS:]
            t = self.t_buf
            np.multiply(self.zw_all, BurstModel.TICK_WEIGHT_SIGMA, out=t)
            np.exp(t, out=t)
            np.subtract(t, 1.0, out=t)
            np.multiply(self.slacks, t, out=t)
            np.add(t, 1.0, out=t)
            self.w = np.multiply(self.persistent_w, t, out=self.w_buf)
            np.multiply(self.zt_all, BURST_SIGMA, out=t)
            np.add(t, -(BURST_SIGMA**2) / 2.0, out=t)
            np.exp(t, out=t)
            np.multiply(self.slacks, t, out=t)
            np.multiply(t, TRAIN_FRACTION, out=t)
            self.trains = np.multiply(t, self.kern.cwnd, out=self.trains_buf)

        # Partials.  FOOT and RCV mask the pad lanes (their values are
        # kernel-owned and nonzero); multiplying the valid lanes by 1.0
        # is bit-exact and pads contribute +0.0.  The rest are naturally
        # zero on pads (w, trains, caps).
        scratch = lanes.scratch
        np.multiply(footprint, self.valid_f, out=scratch)
        ex[rows, _FOOT] = _blocksums(scratch)
        ex[rows, _CAPS] = _blocksums(caps)
        np.multiply(rcv_limit, self.valid_f, out=scratch)
        ex[rows, _RCV] = _blocksums(scratch)
        ex[rows, _WSUM] = _blocksums(self.w)
        ex[rows, _TRAIN] = _blocksums(self.trains)

        self.alloc.fill(0.0)
        np.copyto(self.active, self.valid_b)
        self.had_drops1 = False

    def round_wf(self, share: float) -> None:
        """One water-filling round at the coordinator's fair share."""
        ex, rows, lanes = self.ex, self.rows, self.lanes
        caps, scratch = lanes.caps, lanes.scratch
        np.multiply(self.w, share, out=self.fair)
        limited = np.less_equal(caps, self.fair, out=lanes.mask_b1)
        np.logical_and(limited, self.active, out=limited)
        np.copyto(self.alloc, caps, where=limited)
        np.multiply(caps, limited, out=scratch)
        ex[rows, _CAPPED] = _blocksums(scratch)
        ex[rows, _NLIM] = _blocksums(limited)
        np.logical_not(limited, out=lanes.mask_b2)
        np.logical_and(self.active, lanes.mask_b2, out=self.active)
        np.multiply(self.w, self.active, out=scratch)
        ex[rows, _WSUM] = _blocksums(scratch)

    def round_send(self, mode: float) -> None:
        ex, rows = self.ex, self.rows
        caps = self.lanes.caps
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
        ex[rows, _SENT] = _blocksums(self.sent)

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
        ex = self.ex
        for j in range(self.b1 - self.b0):
            block = self.b0 + j
            lo = j * BLOCK_FLOWS
            v_train = float(ex[block, train_col])
            if v_train > 0.0:
                _concentrate_block(
                    self.drop_rngs[j], trains_basis, lo, v_train, out
                )
            v_std = float(ex[block, std_col])
            if v_std > 0.0:
                _concentrate_block(
                    self.drop_rngs[j], std_basis, lo, v_std, out
                )

    def round_drops1(self) -> None:
        ex, rows = self.ex, self.rows
        self._place_drops(self.drops1, self.trains, self.sent, _D1T, _D1S)
        np.subtract(self.sent, self.drops1, out=self.after1)
        np.maximum(self.after1, 0.0, out=self.after1)
        np.subtract(self.trains, self.drops1, out=self.tafter)
        np.maximum(self.tafter, 0.0, out=self.tafter)
        ex[rows, _AFTER1] = _blocksums(self.after1)
        ex[rows, _TAFTER] = _blocksums(self.tafter)
        self.had_drops1 = True

    def round_feedback(self, any_d2: bool) -> None:
        ex, rows = self.ex, self.rows
        rtt = self.rtt
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

        lanes = self.lanes
        if drops is None:
            delivered = self.sent
            ex[rows, _DROPS] = 0.0
            loss_idx = self.empty_idx
        else:
            np.subtract(self.sent, drops, out=self.del_buf)
            np.maximum(self.del_buf, 0.0, out=self.del_buf)
            delivered = self.del_buf
            ex[rows, _DROPS] = _blocksums(drops)
            loss_idx = lanes.loss_idx(drops, self.sent)

        reacted = lanes.cc_feedback(self.now, rtt, self.alloc, delivered, loss_idx)
        ex[rows, _LOSSN] = 0.0
        ex[self.b0, _LOSSN] = float(len(reacted))

        sums, _ = lanes.cpu_costs(self.alloc, delivered, rtt, _blocksums)
        for col, partials in zip(range(_TXAPP, _ZC + 1), sums):
            ex[rows, col] = partials
        ex[rows, _DSUM] = _blocksums(delivered)

        if self.now > self.omit:
            np.add(self.accum, delivered, out=self.accum)
        self.prev_alloc, self.alloc = self.alloc, self.prev_alloc

    def dispatch(self, cmd: int, f0: float) -> None:
        if cmd == _CMD_CAPS:
            self.round_caps(f0)
        elif cmd == _CMD_WF:
            self.round_wf(f0)
        elif cmd == _CMD_SEND:
            self.round_send(f0)
        elif cmd == _CMD_DROPS1:
            self.round_drops1()
        elif cmd == _CMD_FEEDBACK:
            self.round_feedback(int(f0) == 1)
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown shard command {cmd}")


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
    try:
        while True:
            barrier.wait()
            cmd = int(ctl[0])
            if cmd == _CMD_END:
                return
            f0 = float(ctl[1])
            worker.dispatch(cmd, f0)
            if cmd == _CMD_CAPS:
                _maybe_crash(shard_id, worker.tick)
            barrier.wait()
    except BaseException:
        os._exit(1)


# ----------------------------------------------------------------------
# Transports


class _InProcTransport:
    """Loop the workers in the coordinator process (1 shard, tests)."""

    name = "inproc"

    def __init__(self, workers: list[_ShardWorker], ctl: np.ndarray) -> None:
        self.workers = workers
        self.ctl = ctl

    def phase(self, cmd: int, f0: float) -> None:
        for worker in self.workers:
            worker.dispatch(cmd, f0)

    def end(self) -> None:
        pass

    def close(self) -> None:
        pass


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

    name = "process"

    def __init__(self, workers: list[_ShardWorker], ctl: np.ndarray) -> None:
        ctx = mp.get_context("fork")
        self.ctl = ctl
        self.barrier = ctx.Barrier(len(workers) + 1)
        self.procs = [
            ctx.Process(
                target=_serve,
                args=(worker, ctl, self.barrier, worker.shard_id),
                daemon=True,
            )
            for worker in workers
        ]
        for proc in self.procs:
            proc.start()
        self._stop = threading.Event()
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()

    def _watch(self) -> None:
        while not self._stop.wait(0.05):
            if any(not proc.is_alive() for proc in self.procs):
                self.barrier.abort()
                return

    def _await(self) -> None:
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise ShardCrashError("a shard worker process died mid-tick")

    def phase(self, cmd: int, f0: float) -> None:
        self.ctl[0] = float(cmd)
        self.ctl[1] = float(f0)
        self._await()  # release workers into the phase
        self._await()  # wait for every worker's partials

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
# Coordinator


class ShardedFlowSimulator:
    """Sharded massive-flow counterpart of :class:`FlowSimulator`.

    ``shards=None`` resolves the ambient selection (``REPRO_SIM_SHARDS``
    / :func:`force_shards`) at each :meth:`run`.  ``mode`` picks the
    transport: ``"process"`` forks one worker per shard, ``"inproc"``
    loops them in-process (bit-identical by construction — the same
    worker methods run in the same order on the same arrays), and
    ``"auto"`` forks only when more than one effective shard is
    requested and the platform allows it.
    """

    def __init__(
        self,
        sender: Host,
        receiver: Host,
        path: NetworkPath,
        flows: FlowPopulation | Sequence[FlowSpec],
        profile: SimProfile | None = None,
        rng: RngFactory | None = None,
        shards: int | None = None,
        mode: str = "auto",
    ) -> None:
        if not isinstance(flows, FlowPopulation):
            flows = FlowPopulation.of(flows)
        if mode not in ("auto", "process", "inproc"):
            raise ConfigurationError(
                f"{mode!r} is not a shard transport; "
                "choose one of ['auto', 'process', 'inproc']"
            )
        if shards is not None and shards < 1:
            raise ConfigurationError("shard count must be >= 1")
        self.sender = sender
        self.receiver = receiver
        self.path = path
        self.population = flows
        self.profile = profile or SimProfile()
        self.rng = rng or RngFactory(seed=1)
        self.shards = shards
        self.mode = mode
        #: Shared-memory segment names of every attempt of the last
        #: :meth:`run` (the fault tests prove they were all unlinked).
        self.last_shm_names: list[str] = []
        self._validate()

    def _validate(self) -> None:
        any_zc = any(spec.zerocopy for spec, _ in self.population.groups)
        if any_zc:
            self.sender.require_zerocopy()
            self.sender.check_zerocopy_bigtcp_combo()
        # Shardable == template-batchable: each shard rebuilds its slice
        # of the congestion state from per-kind templates, so the batch
        # stepper registry is the single source of truth for which cc
        # kinds work here (scalar-state CCs like BBR cannot shard).
        from repro.tcp.cc.batch import is_batchable, template_kinds

        for spec, _ in self.population.groups:
            if not is_batchable(spec.cc):
                raise ConfigurationError(
                    f"sharded campaigns support cc in {template_kinds()}, "
                    f"not {spec.cc!r} (scalar-state CCs cannot shard)"
                )

    # -- selection -----------------------------------------------------

    def _resolve(self, plan: ShardPlan) -> bool:
        """Whether this run forks worker processes."""
        can_fork = os.name == "posix" and not mp.current_process().daemon
        if self.mode == "inproc":
            return False
        if self.mode == "process":
            if not can_fork:
                raise ConfigurationError(
                    "mode='process' needs a non-daemonic POSIX parent "
                    "(fork); use mode='auto' to fall back in-process"
                )
            return True
        return plan.shards > 1 and can_fork

    # -- run -----------------------------------------------------------

    def run(self, rep: int = 0) -> RunResult:
        """Simulate one test run; crashed attempts retry from the seed."""
        requested = self.shards if self.shards is not None else shard_count()
        plan = ShardPlan.build(self.population.n, requested)
        use_procs = self._resolve(plan)
        self.last_shm_names = []
        last_error: ShardCrashError | None = None
        for _ in range(MAX_ATTEMPTS):
            try:
                return self._run_once(rep, plan, use_procs)
            except ShardCrashError as exc:
                last_error = exc
        raise last_error

    def _run_once(
        self, rep: int, plan: ShardPlan, use_procs: bool
    ) -> RunResult:
        prof = self.profile
        n = plan.n
        dt = prof.tick
        # A fresh factory per attempt: generator state must restart
        # from the seed so a retried run is byte-identical.
        rng = RngFactory(seed=self.rng.seed)
        rx_rng = rng.stream("shard:rxnoise", rep)
        # The label helpers are constant-prefix f-strings behind one
        # definition shared with the worker side (and monkeypatchable
        # by the collision tests) — static to us, opaque to the lint.
        burst_rngs = [
            rng.stream(_burst_label(block), rep)  # repro: noqa-RNG001
            for block in range(plan.n_blocks)
        ]
        drop_rngs = [
            rng.stream(_drop_label(block), rep)  # repro: noqa-RNG001
            for block in range(plan.n_blocks)
        ]
        setup = RunSetup(
            self.sender, self.receiver, self.path, self.population.groups, prof,
            rng=rng, rep=rep, jitter_rng=rng.stream("shard:hostjitter", rep),
            place_rng=rng.stream("shard:placement", rep),
            bg_rng=rng.stream("shard:background", rep),
            context="shard",
            pads=plan.n_pad - n,
        )
        valid = np.zeros(plan.n_pad, dtype=bool)
        valid[:n] = True
        metrics = MetricsAccumulator(0, prof.duration, prof.omit)

        # Per-run persistent max-min weights, drawn per block from that
        # block's stream (the shard-invariant unit of randomness).
        persistent_w = np.empty(plan.n_pad)
        for block in range(plan.n_blocks):
            lanes = slice(block * BLOCK_FLOWS, (block + 1) * BLOCK_FLOWS)
            block_model = BurstModel(rng=burst_rngs[block])
            persistent_w[lanes] = block_model.persistent_weights(setup.slacks[lanes])
        persistent_w[n:] = 0.0

        # Shared buffers: the block-partials exchange, the 2-float
        # control channel, and the per-flow delivered-bytes accumulator.
        segments: list[SharedMemory] = []

        def zeros(*shape: int) -> np.ndarray:
            if not use_procs:
                return np.zeros(shape)
            seg = SharedMemory(create=True, size=int(np.prod(shape)) * _F64)
            segments.append(seg)
            self.last_shm_names.append(seg.name)
            view = np.ndarray(shape, dtype=np.float64, buffer=seg.buf)
            view.fill(0.0)
            return view

        exchange = zeros(plan.n_blocks, _N_COLS)
        ctl = zeros(2)
        accum = zeros(plan.n_pad)
        workers = [
            _ShardWorker(
                shard, plan, setup, persistent_w=persistent_w, valid=valid,
                burst_rngs=burst_rngs, drop_rngs=drop_rngs, exchange=exchange,
                accum=accum,
            )
            for shard in range(plan.shards)
        ]

        def apportion(src: int, volume: float, total: float, dst: int) -> None:
            """Split a global drop volume over blocks ∝ column ``src``."""
            if volume > 0.0 and total > 0.0:
                np.multiply(exchange[:, src], volume / total, out=exchange[:, dst])
            else:
                exchange[:, dst] = 0.0

        # Same wire format as the unsharded run.start — no shard count:
        # the event stream must be shard-count-invariant.
        setup.emit_run_start(rep)
        bus = setup.bus
        capacity = setup.capacity
        transport = (
            _SharedMemTransport(workers, ctl)
            if use_procs
            else _InProcTransport(workers, ctl)
        )
        red = np.add.reduce  # block partials fold in global block order
        try:
            for step in range(setup.n_ticks):
                now = (step + 1) * dt
                rtt = setup.begin_tick(step, now)

                transport.phase(_CMD_CAPS, rtt)

                # The coordinator draws the rx-ceiling noise from its
                # own stream every tick (the driver's fused draw is
                # per-block here, so z cannot ride along with it).
                rcv_drain = setup.rx_drain(
                    float(red(exchange[:, _FOOT])),
                    float(rx_rng.standard_normal()),
                    float(red(exchange[:, _RCV])),
                )

                # --- max-min allocation over block partials ----------
                caps_total = float(red(exchange[:, _CAPS]))
                if capacity <= 0:
                    mode = 2.0
                elif caps_total <= capacity:
                    mode = 0.0
                else:
                    mode = 2.0
                    remaining = float(capacity)
                    wsum = float(red(exchange[:, _WSUM]))
                    n_active = n
                    for _ in range(n):
                        if n_active == 0 or remaining <= 1e-12:
                            break
                        share = remaining / wsum
                        transport.phase(_CMD_WF, share)
                        n_limited = int(red(exchange[:, _NLIM]))
                        if n_limited == 0:
                            mode = 1.0
                            break
                        remaining -= float(red(exchange[:, _CAPPED]))
                        n_active -= n_limited
                        wsum = float(red(exchange[:, _WSUM]))
                transport.phase(_CMD_SEND, mode)

                # --- queues + packet-train loss ----------------------
                offered1 = float(red(exchange[:, _SENT]))
                tick_per_rtt = dt / max(rtt, dt)
                dropped_std1, ov1, trains_total = setup.offer_switch(
                    offered1, exchange[:, _TRAIN], tick_per_rtt
                )
                need_d1 = ov1 > 0.0 or dropped_std1 > 0.0
                if need_d1:
                    apportion(_TRAIN, ov1, trains_total, _D1T)
                    apportion(_SENT, dropped_std1, offered1, _D1S)
                    transport.phase(_CMD_DROPS1, 0.0)
                    offered2 = float(red(exchange[:, _AFTER1]))
                else:
                    offered2 = offered1

                t_col = _TAFTER if need_d1 else _TRAIN
                dropped_std2, ov2, basis_total = setup.offer_ring(
                    offered2, rcv_drain, exchange[:, t_col], tick_per_rtt
                )
                need_d2 = ov2 > 0.0 or dropped_std2 > 0.0
                if need_d2:
                    apportion(t_col, ov2, basis_total, _D2T)
                    apportion(
                        _AFTER1 if need_d1 else _SENT, dropped_std2, offered2, _D2S
                    )
                transport.phase(_CMD_FEEDBACK, 1.0 if need_d2 else 0.0)

                # --- metrics -----------------------------------------
                any_drops = need_d1 or need_d2
                retr_segments = (
                    float(red(exchange[:, _DROPS])) / setup.mss
                    if any_drops
                    else 0.0
                )
                delivered_sum = (
                    float(red(exchange[:, _DSUM])) if any_drops else offered1
                )
                setup.record_tick(
                    metrics, _EMPTY, retr_segments, int(red(exchange[:, _LOSSN])),
                    [red(exchange[:, col]) for col in range(_TXAPP, _ZC + 1)],
                    delivered_sum,
                )
                if setup.want_probe and step % setup.probe_stride == 0:
                    # Globally-reduced values only, so the stream is
                    # shard-count-invariant.
                    bus.emit(
                        "probe",
                        "probe.shard",
                        flows=n,
                        offered=round(offered1, 3),
                        delivered=round(delivered_sum, 3),
                        rtt=rtt,
                        switch_occupancy=setup.q_switch.occupancy,
                        ring_occupancy=setup.q_ring.occupancy,
                    )
            transport.end()
            result = metrics.finalize()
            t_meas = max(metrics.measured_time, 1e-9)
            # A fresh array: safe to return after the segments unlink.
            per_flow = accum[:n] / t_meas
        finally:
            transport.close()
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
        result = dataclasses.replace(result, per_flow_goodput=per_flow)
        setup.emit_run_end(rep, result)
        return result
