"""Workload ``sim-flows``: direct simulator runs, no runner or server.

Part (a), the BENCH_9 shape: 16 flows cycling through the 8 cc-zoo
kinds on AmLight ``wan54`` at 2 ms ticks.  Per-tick interpreter overhead
and the per-group ``CcBatch`` dispatch dominate here.

Part (b), the BENCH_7 shape: uniform cubic flows on ``wan54`` at 8 ms
ticks, through 1 in-process shard and 2 process shards.  Array math and
shard coordination dominate here.  The two shard counts must produce
byte-identical results.

The parts take turns in rounds until the measuring time is up, so each
metric samples the whole run and a slow spell of a shared machine
lands in all of them alike.
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np

from common import Context, Outcome, clock, median, setup_probe, setup_split

KINDS = (
    "cubic",
    "reno",
    "highspeed",
    "htcp",
    "scalable",
    "westwood",
    "tunable-cubic:alpha=1.5,beta=0.5",
    "tunable-cubic:c=0.8,beta=0.6",
)
N_MIXED = 16
TICK_MIXED = 0.002
TICK_MASSIVE = 0.008
#: Part (a) runs per round.  Part (b) makes one 1-shard and two 2-shard
#: runs per round: the 2-shard time varies most, so it gets more samples.
MIXED_PER_ROUND = 8
TWO_SHARD_PER_ROUND = 2
#: Part (a) calls that a traced run wraps, with their span names; the
#: driver's self time is ``sim.run`` minus the first six.
MIXED_SPANS = (
    ("repro.sim.kernels", "VectorKernel", "pacing", "sim.kernel.pacing"),
    ("repro.sim.kernels", "VectorKernel", "cpu_limits", "sim.kernel.cpu_limits"),
    ("repro.sim.kernels", "VectorKernel", "cc_feedback", "sim.kernel.cc_feedback"),
    ("repro.sim.kernels", "VectorKernel", "cpu_costs", "sim.kernel.cpu_costs"),
    ("repro.sim.lossmodel", "BurstModel", "tick_draw", "sim.lossmodel.tick_draw"),
    (
        "repro.sim.metrics", "MetricsAccumulator", "record_tick",
        "sim.metrics.record_tick",
    ),
    ("repro.tcp.cc.batch", "CcBatch", "feedback", "tcp.cc.batch.feedback"),
    ("repro.sim.flowsim", "FlowSimulator", "run", "sim.run"),
)


def _mixed_targets():
    return [
        (getattr(importlib.import_module(module), owner), attr, name)
        for module, owner, attr, name in MIXED_SPANS
    ]


def _same(a, b) -> bool:
    return (
        np.array_equal(a.per_flow_goodput, b.per_flow_goodput)
        and a.retransmit_segments == b.retransmit_segments
        and a.loss_events == b.loss_events
    )


def run(ctx: Context) -> Outcome:
    out = Outcome()
    setup_head, setup_tail = setup_split(ctx.size)
    setup_times = setup_probe(ctx, "sim-flows", setup_head)

    from repro.core.rng import RngFactory
    from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
    from repro.sim.kernels import kernel_name
    from repro.sim.shard import FlowPopulation, ShardedFlowSimulator
    from repro.testbeds.amlight import AmLightTestbed

    tracer = ctx.tracer
    size = ctx.size
    if kernel_name() != "vector":
        raise RuntimeError("sim-flows measures the vector tick kernel")

    def build_testbed():
        tb = AmLightTestbed(kernel="6.8")
        snd, rcv = tb.host_pair()
        return snd, rcv, tb.path("wan54")

    if tracer is not None:
        snd, rcv, path = tracer.call("testbeds.build", build_testbed)
    else:
        snd, rcv, path = build_testbed()

    mixed_profile = SimProfile(
        duration=size.flows16_duration,
        tick=TICK_MIXED,
        omit=size.flows16_duration / 4,
    )
    mixed_flows = [FlowSpec(cc=KINDS[i % len(KINDS)]) for i in range(N_MIXED)]
    ticks16 = int(round(mixed_profile.duration / mixed_profile.tick))
    massive_profile = SimProfile(
        duration=size.flows10k_duration,
        tick=TICK_MASSIVE,
        omit=size.flows10k_duration / 4,
    )
    population = FlowPopulation.uniform(FlowSpec(), size.flows10k)
    ticks10k = int(round(massive_profile.duration / massive_profile.tick))

    def mixed_run():
        sim = FlowSimulator(
            snd, rcv, path, mixed_flows, mixed_profile, RngFactory(ctx.seed)
        )
        start = clock()
        result = sim.run()
        return clock() - start, result

    def massive_run(shards: int):
        sim = ShardedFlowSimulator(
            snd, rcv, path, population, massive_profile, RngFactory(ctx.seed),
            shards=shards, mode="inproc" if shards == 1 else "process",
        )
        start = clock()
        result = sim.run()
        return clock() - start, result

    # Warm-up, untimed: allocator, numpy dispatch caches, fork machinery.
    _, reference16 = mixed_run()
    massive_run(1)
    _, reference10k = massive_run(2)

    times16, traced16, times1, times2 = [], [], [], []
    deadline = clock() + ctx.seconds
    while True:
        for _ in range(MIXED_PER_ROUND):
            ctx.speed.probe()
            elapsed, result = mixed_run()
            times16.append(elapsed)
            out.check(_same(result, reference16), "16-flow reruns differ")
            if tracer is not None:
                # A twin run with part (a)'s layers wrapped: the per-layer
                # times, and the tracing overhead against the run above.
                with tracer.wrapping(_mixed_targets()):
                    elapsed, result = mixed_run()
                traced16.append(elapsed)
                out.check(_same(result, reference16), "traced 16-flow run differs")
        with (
            tracer.wrapping([(ShardedFlowSimulator, "run", "sim.shard.run")])
            if tracer is not None
            else contextlib.nullcontext()
        ):
            ctx.speed.probe()
            elapsed, result = massive_run(1)
            times1.append(elapsed)
            out.check(
                _same(result, reference10k), "1-shard and 2-shard results differ"
            )
            for _ in range(TWO_SHARD_PER_ROUND):
                ctx.speed.probe()
                elapsed, result = massive_run(2)
                times2.append(elapsed)
                out.check(
                    _same(result, reference10k),
                    "1-shard and 2-shard results differ",
                )
        if clock() >= deadline:
            break
    setup_times += setup_probe(ctx, "sim-flows", setup_tail)

    out.timing("16-flow run", times16, "s")
    out.timing("10k-flow run, 1 shard", times1, "s")
    out.timing("10k-flow run, 2 shards", times2, "s")
    out.timing("set-up", setup_times, "s")
    from repro.core import units

    med1, med2 = median(times1), median(times2)
    # Ticks completed per second over all timed runs: unlike a median
    # run time, it moves smoothly with the share of a run that a shared
    # machine spends in a slow spell.
    rate16 = ticks16 * len(times16) / sum(times16)
    rate10k = ticks10k * len(times1) / sum(times1)
    e2e = out.end_to_end
    e2e["setup_s"] = (median(setup_times), "s")
    e2e["peak_rss_mb"] = (ctx.memory.peak_mb(), "MB")
    # The light operation is a 16-flow tick, the heavy one a 10k-flow
    # tick through 1 shard.
    e2e["light_op_ms"] = (units.seconds_to_ms(1.0 / rate16), "ms")
    e2e["heavy_op_s"] = (1.0 / rate10k, "s")
    if tracer is not None:
        pl = out.per_layer
        pl["ticks_per_s_16"] = (rate16, "1/s")
        pl["ticks_per_s_10k"] = (rate10k, "1/s")
        # Not gated: three processes meeting at a barrier on two cores
        # stall whenever the host steals one, so on a shared machine it
        # swings beyond any usable bound.
        pl["ticks_per_s_10k_2shard"] = (
            ticks10k * len(times2) / sum(times2), "1/s"
        )
        _per_layer(out, tracer, ticks16, times16, traced16, med1, med2)
    return out


def _per_layer(out, tracer, ticks16, times16, traced16, med1, med2) -> None:
    """Part (a) layers as seconds per simulated run; part (b) medians."""
    from repro.core import units

    table = tracer.table()
    runs = table["sim.run"]["count"]
    per_run = {name: row["total_s"] / runs for name, row in table.items()}
    children = sum(per_run[name] for *_, name in MIXED_SPANS[:6])
    pl = out.per_layer
    pl["sim.run.s"] = (per_run["sim.run"], "s")
    pl["sim.ticks"] = (float(ticks16), "count")
    pl["sim.kernel.cc_feedback.s"] = (per_run["sim.kernel.cc_feedback"], "s")
    pl["sim.kernel.cc_feedback.calls"] = (
        table["sim.kernel.cc_feedback"]["count"] / runs, "count"
    )
    pl["tcp.cc.batch.feedback.s"] = (per_run["tcp.cc.batch.feedback"], "s")
    for name in (
        "sim.kernel.cpu_limits",
        "sim.kernel.cpu_costs",
        "sim.kernel.pacing",
        "sim.lossmodel.tick_draw",
        "sim.metrics.record_tick",
    ):
        pl[f"{name}.s"] = (per_run[name], "s")
    pl["sim.driver.self_us_per_tick"] = (
        (per_run["sim.run"] - children) / ticks16 / units.USEC, "us"
    )
    pl["testbeds.build_s"] = (table["testbeds.build"]["total_s"], "s")
    pl["sim.shard.run.s.1shard"] = (med1, "s")
    pl["sim.shard.run.s.2shard"] = (med2, "s")
    pl["sim.shard.speedup"] = (med1 / med2, "x")
    pl["trace_overhead_frac"] = (median(traced16) / median(times16) - 1.0, "fraction")
