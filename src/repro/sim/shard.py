"""The block engine: 10k–1M flows, sharded across worker processes.

:class:`ShardedFlowSimulator` runs the one tick driver
(:func:`repro.sim.engine.run_engine`) under :data:`BLOCK_NUMERICS`: the
flows are padded to ``BLOCK_FLOWS``-lane blocks, shards own contiguous
block ranges (:class:`ShardPlan`), and ``mode="process"`` forks one
worker per shard.  :class:`~repro.sim.flowsim.FlowSimulator` runs the
same driver under :data:`FLOWSIM_NUMERICS`.  :class:`Numerics` holds
the four decisions the engines still make differently — the RNG
layout, drop placement, max-min and the trace events — so each engine
keeps its own numbers.

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

Fault handling
--------------
A watchdog thread aborts the barrier when any worker process dies, the
coordinator surfaces :class:`ShardCrashError`, the run unlinks its
shared-memory segments and retries from the seed (fresh RNG streams,
hence byte-identical results).  A run whose workers fail to start
terminates the children already started and unlinks its segments too.
The ``REPRO_SHARD_CRASH_ONCE`` environment hook (a sentinel path, or
``always``) kills shard 0 on its second tick for the fault-injection
tests.

Selection mirrors :mod:`repro.sim.kernels`: ``REPRO_SIM_SHARDS`` or the
:func:`force_shards` / :func:`forced_shards` programmatic overrides.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.errors import ConfigurationError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.sim.engine import BLOCK_FLOWS, CRASH_ONCE_ENV, ShardCrashError, run_engine
from repro.sim.flowsim import FlowEvents, FlowSpec, RunSetup, SimProfile
from repro.sim.metrics import RunResult

__all__ = [
    "ENV_VAR",
    "CRASH_ONCE_ENV",
    "BLOCK_FLOWS",
    "Numerics",
    "FLOWSIM_NUMERICS",
    "BLOCK_NUMERICS",
    "run_engine",
    "FlowPopulation",
    "ShardPlan",
    "ShardCrashError",
    "ShardedFlowSimulator",
    "shard_count",
    "force_shards",
    "forced_shards",
]

ENV_VAR = "REPRO_SIM_SHARDS"

#: Crashed runs restart from the seed this many times before giving up.
MAX_ATTEMPTS = 3

#: Programmatic override: None defers to the environment variable.
_forced: int | None = None


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


# ----------------------------------------------------------------------
# Numerics: what the two engines still compute differently


@dataclass(frozen=True)
class Numerics:
    """The choices the two flow engines still make differently.

    The tick driver is shared; these flags decide each engine's numbers
    (and so its goldens).  Exactly two instances exist,
    :data:`FLOWSIM_NUMERICS` and :data:`BLOCK_NUMERICS`, and the entry
    point picks one, so no option selects them.  Every FlowSimulator
    choice needs the whole population in one in-process block.
    """

    #: Sanitizer and run context.
    context: str
    #: RNG layout: per tick one fused :meth:`BurstModel.tick_draw`
    #: (rx-ceiling noise, weights, trains) on the caller's ``burst``
    #: stream, which also places the drops; or a draw per block on
    #: ``shard:burst:b<n>``, drops on ``shard:drop:b<n>`` and the noise
    #: on ``shard:rxnoise``.
    fused_draw: bool
    #: Drop placement: :func:`concentrate_drops` over the lanes at each
    #: queue's global volume, or :func:`_concentrate_block` at volumes
    #: apportioned over blocks.
    lane_drops: bool
    #: Max-min: :func:`maxmin_allocate` on the block's lanes, or
    #: coordinator water-fill rounds over block partials.
    local_maxmin: bool
    #: Trace events: per flow (``flow.tick``, ``cc.loss``,
    #: ``zc.fallback``, ``probe.socket|mpstat|nic``), or ``probe.shard``.
    flow_events: bool
    #: Tick kernel: None for the ambient ``REPRO_SIM_KERNEL`` selection,
    #: or a kernel name the engine always uses (the block engine's
    #: 10k–1M lanes are never stepped as scalar objects).
    kernel: str | None

    def streams(self, rng: RngFactory, rep: int, n_blocks: int) -> tuple:
        """``(jitter, placement, background, bursts, drops, rx)``:
        run-global generators, per-block lists, and the rx-noise stream
        (None when the noise rides the fused draw)."""
        if self.fused_draw:
            burst = rng.stream("burst", rep)
            return (
                rng.stream("hostjitter", rep), rng.stream("placement", rep),
                rng.stream("background", rep), [burst], [burst], None,
            )
        # The label helpers are constant-prefix f-strings behind one
        # definition (monkeypatchable by the collision tests) — static
        # to us, opaque to the lint.
        return (
            rng.stream("shard:hostjitter", rep),
            rng.stream("shard:placement", rep),
            rng.stream("shard:background", rep),
            [rng.stream(_burst_label(b), rep) for b in range(n_blocks)],  # repro: noqa-RNG001
            [rng.stream(_drop_label(b), rep) for b in range(n_blocks)],  # repro: noqa-RNG001
            rng.stream("shard:rxnoise", rep),
        )

    def events(self, setup: RunSetup, lead: "_ShardWorker", rep: int):
        """The per-tick trace hook, or None when nothing listens."""
        if self.flow_events:
            if setup.bus is None and setup.san is None:
                return None
            return FlowEvents(setup, lead, rep)
        return _ShardProbe(setup) if setup.want_probe else None


#: FlowSimulator's numerics: one in-process block of exactly ``n`` lanes.
FLOWSIM_NUMERICS = Numerics(
    context="flowsim", fused_draw=True, lane_drops=True, local_maxmin=True,
    flow_events=True, kernel=None,
)

#: The block engine's numerics: any shard count, any transport.
BLOCK_NUMERICS = Numerics(
    context="shard", fused_draw=False, lane_drops=False, local_maxmin=False,
    flow_events=False, kernel="vector",
)


class _ShardProbe:
    """The block engine's trace: ``probe.shard`` at the probe stride,
    from globally reduced values only, so the stream is
    shard-count-invariant."""

    def __init__(self, setup: RunSetup) -> None:
        self.setup = setup

    def tick(self, step, now, rtt, loads, offered, delivered) -> None:
        s = self.setup
        if step % s.probe_stride == 0:
            s.bus.emit(
                "probe", "probe.shard", flows=s.n, offered=round(offered, 3),
                delivered=round(delivered, 3), rtt=rtt,
                switch_occupancy=s.q_switch.occupancy,
                ring_occupancy=s.q_ring.occupancy,
            )


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
    n_blocks: int      # ceil(n / block)
    n_pad: int         # n_blocks * block
    bounds: tuple[int, ...]  # block boundaries, len == shards + 1
    block: int = BLOCK_FLOWS  # lanes per block

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

    @classmethod
    def single(cls, n: int) -> "ShardPlan":
        """One block of exactly ``n`` lanes, no pads (FlowSimulator's)."""
        return cls(n=n, n_blocks=1, n_pad=n, bounds=(0, 1), block=n)

    @property
    def shards(self) -> int:
        return len(self.bounds) - 1

    def block_range(self, shard: int) -> tuple[int, int]:
        return self.bounds[shard], self.bounds[shard + 1]

    def flow_range(self, shard: int) -> tuple[int, int]:
        b0, b1 = self.block_range(shard)
        return b0 * self.block, b1 * self.block


# ----------------------------------------------------------------------
# The block engine's entry point


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
                # A fresh factory per attempt: generator state must
                # restart from the seed so a retried run is byte-identical.
                result, _ = run_engine(
                    BLOCK_NUMERICS, self, self.population.groups,
                    RngFactory(seed=self.rng.seed), rep, plan,
                    use_procs=use_procs, shm_names=self.last_shm_names,
                )
                return result
            except ShardCrashError as exc:
                last_error = exc
        raise last_error
