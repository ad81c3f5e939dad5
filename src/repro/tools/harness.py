"""The test harness: repeat runs, aggregate statistics.

Models the ESnet "Network Test Harness" workflow the paper used: every
configuration runs for 60 seconds, a minimum of 10 times, with mpstat
collected alongside; results are reported as mean / stdev / min / max
throughput plus total retransmits — exactly the columns of the paper's
Tables I-III.  The thin "one standard deviation" whiskers on the
paper's bar charts are the same statistic.

:class:`HarnessConfig` lets tests and benchmarks trade fidelity for
speed (shorter runs, fewer repetitions, coarser ticks) without touching
experiment definitions; ``HarnessConfig.paper()`` restores the paper's
full protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import units
from repro.core.errors import HarnessError
from repro.core.rng import RngFactory
from repro.host.machine import Host
from repro.net.path import NetworkPath
from repro.tools.iperf3 import Iperf3, Iperf3Options, Iperf3Result
from repro.trace.bus import active as trace_active

__all__ = ["HARNESS_PROFILES", "HarnessConfig", "HarnessResult", "TestHarness"]


@dataclass(frozen=True)
class HarnessConfig:
    """Repetition/duration policy for a batch of tests."""

    repetitions: int = 10
    duration: float = 60.0
    omit: float = 3.0
    tick: float = 0.002
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise HarnessError("need at least one repetition")

    @classmethod
    def paper(cls) -> "HarnessConfig":
        """The paper's protocol: 60 s runs, >= 10 repetitions."""
        return cls(repetitions=10, duration=60.0, omit=3.0, tick=0.002)

    @classmethod
    def quick(cls) -> "HarnessConfig":
        """Fast setting for unit tests and CI."""
        return cls(repetitions=3, duration=8.0, omit=2.0, tick=0.004)

    @classmethod
    def bench(cls) -> "HarnessConfig":
        """Benchmark setting: enough fidelity for the paper's shapes."""
        return cls(repetitions=3, duration=12.0, omit=3.0, tick=0.004)

    # -- serialization (runner cache keys, worker transport) ----------------

    def to_dict(self) -> dict:
        """Canonical plain-dict form; inverse of :meth:`from_dict`.

        The runner's content-addressed cache keys hash this dict, so the
        field set here *is* the cache-key definition for the config part.
        """
        return {
            "repetitions": self.repetitions,
            "duration": self.duration,
            "omit": self.omit,
            "tick": self.tick,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "HarnessConfig":
        return cls(**doc)


#: The named fidelity profiles (``--profile``, a served ``"profile"``).
HARNESS_PROFILES = {
    "quick": HarnessConfig.quick,
    "bench": HarnessConfig.bench,
    "paper": HarnessConfig.paper,
}


@dataclass(frozen=True)
class HarnessResult:
    """Aggregated statistics over the repetitions of one configuration."""

    label: str
    options: Iperf3Options
    runs: list[Iperf3Result]

    # -- throughput statistics across runs (Gbps) ---------------------------

    @property
    def gbps_values(self) -> np.ndarray:
        return np.array([r.gbps for r in self.runs])

    @property
    def mean_gbps(self) -> float:
        return float(self.gbps_values.mean())

    @property
    def stdev_gbps(self) -> float:
        v = self.gbps_values
        return float(v.std(ddof=1)) if v.size > 1 else 0.0

    @property
    def min_gbps(self) -> float:
        return float(self.gbps_values.min())

    @property
    def max_gbps(self) -> float:
        return float(self.gbps_values.max())

    @property
    def mean_retransmits(self) -> float:
        return float(np.mean([r.retransmits for r in self.runs]))

    @property
    def per_flow_range_gbps(self) -> tuple[float, float]:
        """(min, max) per-flow mean rate across all runs — Table III's
        'Range' column."""
        lows = [r.run.flow_range_gbps[0] for r in self.runs]
        highs = [r.run.flow_range_gbps[1] for r in self.runs]
        return float(np.mean(lows)), float(np.mean(highs))

    @property
    def sender_cpu_pct(self) -> float:
        return float(np.mean([r.run.sender_cpu.total_pct for r in self.runs]))

    @property
    def receiver_cpu_pct(self) -> float:
        return float(np.mean([r.run.receiver_cpu.total_pct for r in self.runs]))

    @property
    def sender_cpu(self):
        """Mean sender CpuUtil across runs."""
        from repro.sim.metrics import CpuUtil

        return CpuUtil(
            app_pct=float(np.mean([r.run.sender_cpu.app_pct for r in self.runs])),
            irq_pct=float(np.mean([r.run.sender_cpu.irq_pct for r in self.runs])),
        )

    @property
    def receiver_cpu(self):
        from repro.sim.metrics import CpuUtil

        return CpuUtil(
            app_pct=float(np.mean([r.run.receiver_cpu.app_pct for r in self.runs])),
            irq_pct=float(np.mean([r.run.receiver_cpu.irq_pct for r in self.runs])),
        )


class TestHarness:
    """Runs a test matrix against a (sender, receiver, path) triple."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        sender: Host,
        receiver: Host,
        path: NetworkPath,
        config: HarnessConfig | None = None,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.path = path
        self.config = config or HarnessConfig()

    def run(self, options: Iperf3Options, label: str | None = None) -> HarnessResult:
        cfg = self.config
        options = replace(options, duration=cfg.duration, omit=cfg.omit)
        tool = Iperf3(
            self.sender,
            self.receiver,
            self.path,
            rng=RngFactory(seed=cfg.seed),
            tick=cfg.tick,
        )
        label = label or options.command_line()
        bus = trace_active()
        runs = []
        for i in range(cfg.repetitions):
            if bus is None:
                runs.append(tool.run(options, rep=i))
            else:
                # Each repetition gets its own trace track, so exports
                # show "<case>#r<rep>" rows like the harness's own logs.
                with bus.scoped(f"{label}#r{i}"):
                    runs.append(tool.run(options, rep=i))
        return HarnessResult(label=label, options=options, runs=runs)
