"""Fluid flow simulation: CPU cost model, loss model, allocation, driver."""

from repro.sim.bottleneck import maxmin_allocate
from repro.sim.cpumodel import CpuCostModel, RecvCosts, SendCosts
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.lossmodel import BurstModel
from repro.sim.metrics import CpuUtil, MetricsAccumulator, RunResult
from repro.sim.sanitizer import SanitizerViolation, SimSanitizer, sanitized
from repro.sim.sanitizer import enabled as sanitizer_enabled
from repro.sim.shard import (
    FlowPopulation,
    ShardCrashError,
    ShardedFlowSimulator,
    ShardPlan,
    force_shards,
    forced_shards,
    shard_count,
)

__all__ = [
    "SimSanitizer",
    "SanitizerViolation",
    "sanitized",
    "sanitizer_enabled",
    "FlowSimulator",
    "FlowSpec",
    "SimProfile",
    "CpuCostModel",
    "SendCosts",
    "RecvCosts",
    "BurstModel",
    "maxmin_allocate",
    "MetricsAccumulator",
    "RunResult",
    "CpuUtil",
    "FlowPopulation",
    "ShardPlan",
    "ShardCrashError",
    "ShardedFlowSimulator",
    "shard_count",
    "force_shards",
    "forced_shards",
]
