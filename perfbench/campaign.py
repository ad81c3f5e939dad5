"""Workload ``campaign``: what a user of the reproduction runs.

``run_experiments`` over ten paper artifacts at a reduced
``HarnessConfig`` with ``jobs=2``.  Each cold pass writes into a fresh
cache directory: runner dispatch, experiment orchestration and mostly
homogeneous-CC, small-N simulation.  Warm passes then rerun against the
last cold pass's cache and touch only the digest, plan and cache-read
path; one lasts milliseconds, so many are timed.
"""

from __future__ import annotations

import pickle
from collections import defaultdict

from common import Context, Outcome, clock, median, setup_probe, setup_split

EXP_IDS = (
    "fig05", "fig06", "fig07", "fig09", "fig10",
    "fig11", "tab3", "fig12", "pit-fqrate", "cc",
)
JOBS = 2
#: A run makes rounds of one cold pass and ``WARM_PER_ROUND`` warm
#: passes until the measuring time is up, at least ``MIN_COLD`` rounds.
WARM_PER_ROUND = 200
#: Warm passes between two host-speed probes.
WARM_PER_PROBE = 10
MIN_COLD = 2


class _Counts:
    """Counts taken inside the wrapped runner calls of a traced run."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: cache gets / hits over cold and warm passes together
        self.gets = 0
        self.hits = 0
        self.put_bytes = 0
        self.payload_bytes = 0
        self.round_walls: list[float] = []

    def on_get(self, result, args, kwargs) -> None:
        self.gets += 1
        self.hits += result is not None

    def on_put(self, result, args, kwargs) -> None:
        from repro.runner.cache import canonical_json

        self.put_bytes += len(canonical_json(args[2]).encode())

    def on_round(self, result, args, kwargs) -> None:
        results, _crashed = result
        self.payload_bytes += sum(
            len(pickle.dumps(payload)) for payload in results.values()
        )
        # The round's span is the last one closed: workers run in other
        # processes, so nothing nests inside it here.
        span = self.tracer.spans[-1]
        self.round_walls.append(span[3] - span[2])


def _targets(counts: _Counts) -> list[tuple]:
    """The runner calls a traced pass wraps."""
    import repro.runner.scheduler as scheduler
    from repro.runner.cache import ResultCache
    from repro.runner.transport import PoolRoundTransport

    return [
        (scheduler, "source_digest", "runner.source_digest"),
        (scheduler, "plan_campaign", "runner.plan"),
        (ResultCache, "get", "runner.cache.get", counts.on_get),
        (ResultCache, "put", "runner.cache.put", counts.on_put),
        (PoolRoundTransport, "run_round", "runner.round", counts.on_round),
    ]


def run(ctx: Context) -> Outcome:
    out = Outcome()
    setup_head, setup_tail = setup_split(ctx.size)
    setup_times = setup_probe(ctx, "campaign", setup_head)

    from repro.core import units
    from repro.experiments import run_experiments
    from repro.runner.cache import source_digest
    from repro.tools.harness import HarnessConfig

    size = ctx.size
    tracer = ctx.tracer
    config = HarnessConfig(
        repetitions=1,
        duration=size.campaign_duration,
        omit=size.campaign_duration / 3,
        tick=0.004,
        seed=ctx.seed,
    )
    counts = _Counts(tracer)
    if tracer is not None:
        # Hash the tree once under a span; later calls hit the memo.
        tracer.call("runner.source_digest", source_digest, refresh=True)

    def campaign(cache_dir, label: str | None = None):
        """One pass; with a ``label``, a traced one named by it."""
        if label is None or tracer is None:
            start = clock()
            report = run_experiments(
                list(EXP_IDS), config=config, jobs=JOBS,
                use_cache=True, cache_dir=cache_dir,
            )
            return clock() - start, report
        tracer.op = label
        with tracer.wrapping(_targets(counts)):
            start = clock()
            with tracer.span(f"campaign.{label.split('-')[0]}"):
                report = run_experiments(
                    list(EXP_IDS), config=config, jobs=JOBS,
                    use_cache=True, cache_dir=cache_dir,
                )
            return clock() - start, report

    cold_times, cold_reports, warm_times, untraced_warm = [], [], [], []
    digests = None
    # Rounds of one cold pass into a fresh cache, then warm passes
    # against it, so both sample the whole run.
    deadline = clock() + ctx.seconds
    while len(cold_times) < MIN_COLD or clock() < deadline:
        n = len(cold_times)
        cache_dir = ctx.workdir / f"cache-{n}"
        ctx.speed.probe(3)
        elapsed, report = campaign(cache_dir, f"cold-{n}")
        cold_times.append(elapsed)
        cold_reports.append(report)
        out.check(
            report.executed == len(EXP_IDS), "a cold pass was served from a cache"
        )
        rows = [r.digest() for r in report.results]
        digests = digests or rows
        out.check(rows == digests, "cold passes disagree")
        for i in range(WARM_PER_ROUND):
            if i % WARM_PER_PROBE == 0:
                ctx.speed.probe()
            if tracer is not None:
                # An untraced twin of each traced warm pass: the
                # reference for the tracing overhead.
                untraced_warm.append(campaign(cache_dir)[0])
            elapsed, report = campaign(cache_dir, f"warm-{len(warm_times)}")
            warm_times.append(elapsed)
            out.check(
                report.all_cached
                and [r.digest() for r in report.results] == digests,
                "a warm pass missed the cache or changed a row",
            )
    setup_times += setup_probe(ctx, "campaign", setup_tail)

    out.timing("cold pass", cold_times, "s")
    out.timing("warm pass", [units.seconds_to_ms(t) for t in warm_times], "ms")
    out.timing("set-up", setup_times, "s")
    # Mean seconds per cold pass: with a few passes a run, it moves more
    # smoothly than their median with the share of a run that a shared
    # machine spends in a slow spell.  Warm passes are over a thousand
    # a run, and their median leaves out the ones such a spell hits.
    cold_s = sum(cold_times) / len(cold_times)
    warm_s = median(warm_times)
    e2e = out.end_to_end
    e2e["setup_s"] = (median(setup_times), "s")
    e2e["peak_rss_mb"] = (ctx.memory.peak_mb(), "MB")
    # The heavy operation is a cold pass, the light one a warm pass.
    e2e["light_op_ms"] = (units.seconds_to_ms(warm_s), "ms")
    e2e["heavy_op_s"] = (cold_s, "s")

    if tracer is not None:
        out.per_layer["campaign_cold_s"] = (cold_s, "s")
        out.per_layer["campaign_warm_s"] = (warm_s, "s")
        _per_layer(out, tracer, counts, cold_reports, warm_times, untraced_warm)
    return out


def _by_kind(spans, kind: str) -> dict[str, list]:
    """``{span name: [seconds, calls]}`` over the passes of one kind."""
    totals = defaultdict(lambda: [0.0, 0])
    for _id, name, start, end, _parent, op in spans:
        if str(op).startswith(kind):
            totals[name][0] += end - start
            totals[name][1] += 1
    return totals


def _per_layer(out, tracer, counts, cold_reports, warm_times, untraced_warm):
    """Warm-path layers per warm pass, cold-path layers per cold pass."""
    warm = _by_kind(tracer.spans, "warm-")
    cold = _by_kind(tracer.spans, "cold-")
    n_warm, n_cold = len(warm_times), len(cold_reports)

    pl = out.per_layer
    first_digest = next(s for s in tracer.spans if s[1] == "runner.source_digest")
    pl["runner.source_digest.s"] = (first_digest[3] - first_digest[2], "s")
    pl["runner.plan.s"] = (warm["runner.plan"][0] / n_warm, "s")
    pl["runner.cache.get.s"] = (warm["runner.cache.get"][0] / n_warm, "s")
    pl["runner.cache.get.calls"] = (warm["runner.cache.get"][1] / n_warm, "count")
    pl["runner.cache.hit_ratio"] = (
        counts.hits / counts.gets, "fraction"
    )
    pl["runner.cache.put.s"] = (cold["runner.cache.put"][0] / n_cold, "s")
    pl["runner.cache.put.bytes"] = (counts.put_bytes / n_cold, "bytes")
    pl["runner.payload_bytes"] = (counts.payload_bytes / n_cold, "bytes")
    pl["runner.rounds"] = (cold["runner.round"][1] / n_cold, "count")
    busy = sum(t.elapsed for r in cold_reports for t in r.tasks)
    pl["runner.pool_idle_frac"] = (
        1.0 - busy / (JOBS * sum(counts.round_walls)), "fraction"
    )
    for exp_id in EXP_IDS:
        pl[f"experiments.{exp_id}.s"] = (
            median([r.by_id(exp_id).elapsed for r in cold_reports]), "s"
        )
    pl["trace_overhead_frac"] = (
        median(warm_times) / median(untraced_warm) - 1.0, "fraction"
    )
