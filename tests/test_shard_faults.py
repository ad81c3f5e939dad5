"""Fault handling for the sharded simulator's process transport.

Four promises:

* a worker crashing mid-tick breaks the exchange barrier, the
  coordinator tears the attempt down, and the *retry* is byte-identical
  to a run that never crashed (every attempt rebuilds its RNG streams
  from the root seed);
* every shared-memory segment of every attempt — including crashed
  ones — is unlinked (no ``/dev/shm`` leaks), proven by re-attaching;
* a run whose workers fail to start (a refused fork) terminates the
  children already started and unlinks its segments;
* a crc32 collision between two shard RNG-stream labels raises
  :class:`RngStreamCollisionError` instead of silently correlating
  "independent" block streams.

The crash hook is ``REPRO_SHARD_CRASH_ONCE`` (see
:func:`repro.sim.engine._maybe_crash`): a sentinel path crashes shard 0
exactly once; the reserved value ``always`` crashes every attempt.
"""

from __future__ import annotations

import errno
import zlib
from multiprocessing import context as mp_context
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.errors import RngStreamCollisionError
from repro.core.rng import RngFactory
from repro.sim import shard as shard_mod
from repro.sim.flowsim import FlowSpec, SimProfile
from repro.sim.shard import (
    CRASH_ONCE_ENV,
    MAX_ATTEMPTS,
    FlowPopulation,
    ShardCrashError,
    ShardedFlowSimulator,
)
from repro.testbeds.amlight import AmLightTestbed

PROFILE = SimProfile(duration=1.0, tick=0.008, omit=0.25)

#: Distinct strings with the same crc32 (2500815930), found by brute
#: force — the label→entropy mapping the factory must refuse to alias.
CRC32_TWINS = ("shardtest:29685295", "shardtest:32060020")


def _make_sim(seed=7, shards=2):
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    return ShardedFlowSimulator(
        snd, rcv, tb.path("wan54"),
        FlowPopulation.uniform(FlowSpec(), 64),
        PROFILE, RngFactory(seed), shards=shards, mode="process",
    )


def _runs_equal(a, b):
    return (
        np.array_equal(a.per_flow_goodput, b.per_flow_goodput)
        and np.array_equal(a.interval_goodput, b.interval_goodput)
        and a.retransmit_segments == b.retransmit_segments
        and a.loss_events == b.loss_events
        and a.sender_cpu == b.sender_cpu
        and a.receiver_cpu == b.receiver_cpu
        and a.zc_fraction_mean == b.zc_fraction_mean
    )


def _assert_all_unlinked(names):
    assert names, "run recorded no shared-memory segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestWorkerCrashRetry:
    def test_clean_process_run_is_a_single_attempt(self, monkeypatch):
        """Workers exiting after END must not trip the watchdog: the
        end-of-run teardown races the 50 ms liveness poll, and losing
        that race used to abort the release barrier — a phantom crash
        whose retry duplicated every trace event of the run."""
        monkeypatch.delenv(CRASH_ONCE_ENV, raising=False)
        sim = _make_sim()
        sim.run()
        assert len(sim.last_shm_names) == 3

    def test_crash_once_retries_byte_identical(self, tmp_path, monkeypatch):
        clean = _make_sim().run()

        sentinel = tmp_path / "crashed-once"
        monkeypatch.setenv(CRASH_ONCE_ENV, str(sentinel))
        sim = _make_sim()
        retried = sim.run()

        assert sentinel.exists(), "crash hook never fired"
        assert _runs_equal(clean, retried)
        # One crashed attempt + one clean attempt, each with its own
        # exchange/control/accumulator segments — all unlinked.
        assert len(sim.last_shm_names) == 6
        _assert_all_unlinked(sim.last_shm_names)

    def test_persistent_crash_exhausts_attempts_without_leaking(
        self, monkeypatch
    ):
        monkeypatch.setenv(CRASH_ONCE_ENV, "always")
        sim = _make_sim()
        with pytest.raises(ShardCrashError):
            sim.run()
        assert len(sim.last_shm_names) == 3 * MAX_ATTEMPTS
        _assert_all_unlinked(sim.last_shm_names)

    def test_inproc_runs_ignore_the_crash_hook(self, tmp_path, monkeypatch):
        """The hook lives in the worker serve loop: in-process runs
        (runner pool workers, non-POSIX fallbacks) never hit it."""
        sentinel = tmp_path / "never-created"
        monkeypatch.setenv(CRASH_ONCE_ENV, str(sentinel))
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        ShardedFlowSimulator(
            snd, rcv, tb.path("lan"),
            FlowPopulation.uniform(FlowSpec(), 64),
            PROFILE, RngFactory(1), shards=2, mode="inproc",
        ).run()
        assert not sentinel.exists()


class TestStartFailure:
    def test_refused_fork_leaves_no_segment_or_child(self, monkeypatch):
        """The second worker's fork fails with EAGAIN: the run raises,
        the first child (blocked on the start barrier) is terminated,
        and the exchange/control/accumulator segments are unlinked."""
        started = []
        real_start = mp_context.ForkProcess.start

        def start(proc):
            if started:
                raise OSError(errno.EAGAIN, "fork refused")
            real_start(proc)
            started.append(proc)

        monkeypatch.setattr(mp_context.ForkProcess, "start", start)
        sim = _make_sim(shards=2)
        with pytest.raises(OSError):
            sim.run()
        assert len(started) == 1
        started[0].join(timeout=10.0)
        assert not started[0].is_alive()
        assert len(sim.last_shm_names) == 3
        _assert_all_unlinked(sim.last_shm_names)


class TestRngStreamCollision:
    def test_twins_actually_collide(self):
        a, b = CRC32_TWINS
        assert a != b
        assert zlib.crc32(a.encode()) == zlib.crc32(b.encode())

    def test_colliding_block_labels_raise(self, monkeypatch):
        """Two blocks whose burst labels alias the same crc32 entropy
        must fail loudly — aliased streams would correlate the blocks'
        loss draws while every digest still looked plausible."""
        monkeypatch.setattr(
            shard_mod, "_burst_label", lambda block: CRC32_TWINS[block % 2]
        )
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        sim = ShardedFlowSimulator(
            snd, rcv, tb.path("wan54"),
            FlowPopulation.uniform(FlowSpec(), 64),  # 2 blocks
            PROFILE, RngFactory(5), shards=1, mode="inproc",
        )
        with pytest.raises(RngStreamCollisionError):
            sim.run()
