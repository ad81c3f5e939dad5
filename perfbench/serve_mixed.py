"""Workload ``serve-mixed``: a ``repro serve`` child under open-loop load.

The daemon's callers are independent users, so load is open loop:
every request has a due time fixed in advance and is timed from it, so
a stall also delays the requests queued behind it; how late the
generator ran is reported too.  Load comes from this one process: two
threads, each with one persistent connection.

The server, its keys and the connections follow BENCH_8
(``benchmarks/test_bench_serve.py``); the offered rate and the request
mix are assumptions of this benchmark, noted where they are set.

After set-up and a preload of the hit keys, ``ROUNDS`` rounds of three
phases, so that each phase samples the whole run:

1. mixed, at ``FIXED_RPS``: ``POST /experiments`` cache hits over the
   hit keys plus ``GET /results/<digest>``, with a cold submission
   every ``MIXED_COLD_INTERVAL_S``.  The connection that sends a cold
   submission waits for its run while the other carries on with the
   hits, so hits are timed while a run is in flight and while the
   server writes its result;
2. capacity: hits only, once at each rate of ``CAPACITY_RATES``, for
   the highest rate whose p99 meets ``LIMIT_MS`` with no growing
   backlog (see :class:`CapacityLadder`);
3. coalescing: fresh submissions due at a fixed interval, each sent
   twice at once on the two connections, so the second must coalesce
   onto the first's run.  This takes both connections, so no hit
   overlaps these pairs.

Hits touch ``serve.http``, ``serve.app`` and the cache; cold
submissions go through the pool and a runner worker.  The hit p99 and
the capacity are printed with the per-layer metrics rather than gated:
on a shared 2-core machine they swing with other tenants' load.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import subprocess
import sys
import threading
from dataclasses import dataclass, field

from common import (
    BENCH_DIR, Context, Outcome, clock, median, quantile, setup_split,
)
from repro.core import units
from repro.core.rng import RngFactory

EXP_ID = "var"
#: As in BENCH_8: 2 pool workers, 2 persistent connections, and
#: configs of ``repetitions=2, tick=0.008`` (its ``duration=4, omit=1``
#: and 4 keys are the ``full`` size).
WORKERS = 2
CONNECTIONS = 2
REPETITIONS = 2
TICK = 0.008
#: Offered rate of the mixed phase.  Assumed, not sourced: about 6% of
#: the closed-loop rate BENCH_8.json records (4,938 rps), far below the
#: capacity of a 2-core machine, where the p99 is still the ordinary
#: tail rather than a queue behind the server's occasional full garbage
#: collection (about 15 ms).
FIXED_RPS = 300.0
#: Share of ``GET /results`` among the mixed phase's hits.  Assumed,
#: not sourced: no measured request mix of the daemon exists.
RESULTS_SHARE = 0.1
#: p99 latency limit for the capacity search: well above the server's
#: garbage-collection pauses and a shared machine's scheduling
#: hiccups, so a rate fails when a backlog builds.
LIMIT_MS = 50.0
#: Timeout for one request; a request that fails is counted as
#: taking at least this long, so it misses the latency limit.
REQUEST_TIMEOUT_S = 30.0
#: Offered rates of the capacity search, each offered once a round;
#: the top lies above what a 2-core machine sustains.
CAPACITY_RATES = [600.0 * 1.25**k for k in range(12)]
#: A capacity step is abandoned once the generator runs this late.
STEP_ABORT_S = 0.25
#: Rounds of the three phases, and each phase's share of the time.
ROUNDS = 4
SHARE_FIXED = 0.4
SHARE_CAPACITY = 0.3
SHARE_COLD = 0.3
#: Untimed hits before the mixed phase.
WARM_S = 1.0
#: Interval between cold submissions in the mixed phase, and between
#: the coalescing pairs: longer than one cold run (about 0.3 s).  In the
#: mixed phase it keeps a run in flight for about a sixth of the hits:
#: at 1 s, a third, and the hit median moved with the cold runs' length
#: from run to run (IQR/median 0.16 against 0.04 over 5 paired seeds).
MIXED_COLD_INTERVAL_S = 2.0
COLD_INTERVAL_S = 0.5


@dataclass
class Req:
    kind: str
    method: str
    path: str
    body: bytes | None
    #: Expected digest (hits and results) or None (cold).
    digest: str | None = None
    #: Cold submissions: which one this request duplicates.
    group: int | None = None


@dataclass
class Sample:
    req: Req
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    doc: dict = field(default_factory=dict)
    #: Transport error (refused, timed out, malformed reply).
    error: str | None = None
    #: Why the answer is wrong (set when the request completes), or None.
    problem: str | None = None

    @property
    def latency(self) -> float:
        """From due time to reply; a failed request misses every limit."""
        value = self.done - self.due
        return value if self.problem is None else max(value, REQUEST_TIMEOUT_S)

    @property
    def late(self) -> float:
        return self.sent - self.due


# ----------------------------------------------------------------------
# the server child


class ServerChild:
    """One ``repro serve`` process in its own process group."""

    def __init__(self, ctx: Context, cache_dir, spans_out=None) -> None:
        args = [sys.executable, "-u", str(BENCH_DIR / "serve_child.py")]
        if spans_out is not None:
            args += ["--spans-out", str(spans_out)]
        args += [
            "--", "--port", "0", "--workers", str(WORKERS),
            "--cache-dir", str(cache_dir),
        ]
        self.guard = ctx.guard
        self.proc = ctx.guard.popen(
            args, own_group=True, stdout=subprocess.PIPE, text=True
        )
        self.port = self._await_port()
        self.host = "127.0.0.1"

    def _await_port(self) -> int:
        box: list[str] = []

        def read() -> None:
            for line in self.proc.stdout:
                if "listening on http://" in line:
                    box.append(line)
                    return

        reader = threading.Thread(target=read)
        reader.start()
        reader.join(timeout=60.0)
        if not box:
            self.stop()
            reader.join(timeout=5.0)
            raise RuntimeError("repro serve did not start listening")
        return int(box[0].split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> None:
        self.guard.stop(self.proc, own_group=True)


# ----------------------------------------------------------------------
# HTTP helpers


def _submit_body(config) -> bytes:
    return json.dumps({"exp_id": EXP_ID, "config": config.to_dict()}).encode()


def _call(conn: http.client.HTTPConnection, req: Req) -> tuple[int, dict]:
    headers = {"Content-Type": "application/json"} if req.body else {}
    conn.request(req.method, req.path, body=req.body, headers=headers)
    reply = conn.getresponse()
    payload = reply.read()
    return reply.status, json.loads(payload) if payload else {}


def _verdict(sample: Sample) -> str | None:
    """Why a completed sample is wrong, or None."""
    if sample.error is not None:
        return sample.error
    if sample.status != 200:
        return f"HTTP {sample.status}: {sample.doc.get('error')}"
    req, doc = sample.req, sample.doc
    if req.kind == "submit_hit":
        if doc.get("cached") is not True or doc.get("digest") != req.digest:
            return "hit not served from the cache with its digest"
    elif req.kind == "results":
        if doc.get("digest") != req.digest:
            return "results returned another digest"
    elif doc.get("cached") is not False:
        return "cold submission answered from the cache"
    return None


def open_loop(host, port, schedule, abort_late=None, tracer=None) -> list[Sample]:
    """Send ``schedule`` — ``(due offset s, Req)`` in due order — open loop.

    Each of ``CONNECTIONS`` threads takes the next request, waits for
    its due time if early, and sends it on its own connection.  With
    ``abort_late``, requests not yet sent once the generator is that
    late are dropped (the capacity search only needs to know it fell
    behind); the returned list then ends early.
    """
    samples = [None] * len(schedule)
    lock = threading.Lock()
    cursor = [0]
    stop = threading.Event()
    t0 = 0.0

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            while not stop.is_set():
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                offset, req = schedule[i]
                due = t0 + offset
                now = clock()
                if due > now:
                    if stop.wait(due - now):
                        return
                    now = clock()
                if abort_late is not None and now - due > abort_late:
                    stop.set()
                    return
                sample = Sample(req, due, sent=now)
                try:
                    sample.status, sample.doc = _call(conn, req)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    sample.error = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = http.client.HTTPConnection(
                        host, port, timeout=REQUEST_TIMEOUT_S
                    )
                sample.done = clock()
                sample.problem = _verdict(sample)
                samples[i] = sample
                if tracer is not None:
                    tracer.record(f"serve.route.{req.kind}", now, sample.done, op=i)
        finally:
            conn.close()

    # The generator's own garbage collections would stall both threads
    # and show up as server latency; the samples hold no cycles.
    gc.collect()
    gc.disable()
    try:
        threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
        t0 = clock() + 0.01
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            # Interrupted (timeout, signal): let the threads end now.
            stop.set()
            for thread in threads:
                thread.join()
    finally:
        gc.enable()
    return [s for s in samples if s is not None]


# ----------------------------------------------------------------------
# the workload


def _configs(ctx: Context, seeds):
    from repro.tools.harness import HarnessConfig

    duration = ctx.size.serve_duration
    return [
        HarnessConfig(
            repetitions=REPETITIONS,
            duration=duration,
            omit=duration / 4,
            tick=TICK,
            seed=seed,
        )
        for seed in seeds
    ]


def _boot(ctx: Context, index: int, spans_out=None) -> tuple[ServerChild, float]:
    """Start a server in a fresh cache and warm its pool; timed."""
    start = clock()
    server = ServerChild(ctx, ctx.workdir / f"serve-cache-{index}", spans_out)
    try:
        # The pool is built on first dispatch: one tiny cold run warms it.
        from repro.tools.harness import HarnessConfig

        warm = HarnessConfig(
            repetitions=1, duration=0.2, omit=0.05, tick=0.008,
            seed=10_000_000 + index,
        )
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            status, _doc = _call(
                conn, Req("warm", "POST", "/experiments", _submit_body(warm))
            )
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"pool warm-up failed with HTTP {status}")
    except BaseException:
        server.stop()
        raise
    return server, clock() - start


def _stats(server: ServerChild) -> dict:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        status, doc = _call(conn, Req("stats", "GET", "/stats", None))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/stats answered HTTP {status}")
    return doc


def _preload(server: ServerChild, configs) -> list[str]:
    """Submit the hit keys once (cold); returns their digests."""
    schedule = [
        (0.0, Req("preload", "POST", "/experiments", _submit_body(c)))
        for c in configs
    ]
    samples = open_loop(server.host, server.port, schedule)
    if len(samples) != len(configs) or any(
        s.problem is not None for s in samples
    ):
        raise RuntimeError("preloading the hit keys failed")
    return [s.doc["digest"] for s in samples]


def _schedule(rng, configs, digests, rate: float, seconds: float,
              results_share: float = 0.0):
    """Hits over random keys at ``rate``, a share of them ``GET /results``."""
    bodies = [_submit_body(c) for c in configs]
    schedule = []
    for k in range(max(20, int(seconds * rate))):
        key = int(rng.integers(len(configs)))
        if rng.random() < results_share:
            req = Req("results", "GET", f"/results/{digests[key]}", None,
                      digests[key])
        else:
            req = Req("submit_hit", "POST", "/experiments", bodies[key],
                      digests[key])
        schedule.append((k / rate, req))
    return schedule


def _mixed_schedule(rng, configs, digests, seconds: float, cold_configs):
    """Hits and results at ``FIXED_RPS``, with single cold submissions.

    The hits are those of :func:`_schedule`; the cold submissions are
    added at ``MIXED_COLD_INTERVAL_S`` apart, half an interval in.
    """
    schedule = _schedule(
        rng, configs, digests, FIXED_RPS, seconds, RESULTS_SHARE
    )
    for j, config in enumerate(cold_configs):
        schedule.append(
            ((j + 0.5) * MIXED_COLD_INTERVAL_S,
             Req("submit_cold", "POST", "/experiments", _submit_body(config)))
        )
    schedule.sort(key=lambda item: item[0])
    return schedule


def _count(out: Outcome, samples: list[Sample]) -> None:
    for sample in samples:
        out.check(
            sample.problem is None, f"{sample.req.kind}: {sample.problem}"
        )


class CapacityLadder:
    """Highest offered rate with p99 <= LIMIT_MS and no growing backlog.

    Each round offers every rate of ``CAPACITY_RATES`` once, in shuffled
    order, so a slow spell of the machine spreads over many rates
    instead of cutting a search short.  A rate passes when the p99 of
    its pooled samples meets the limit and none of its steps fell
    behind.  The capacity lies between the highest rate below the first
    failing one and that failing rate, interpolated on log p99.
    """

    def __init__(self) -> None:
        self.pooled = {rate: [] for rate in CAPACITY_RATES}
        self.behind = dict.fromkeys(CAPACITY_RATES, False)

    def round(self, out, server, rng, configs, digests, step_s, tracer) -> None:
        for i in rng.permutation(len(CAPACITY_RATES)):
            rate = CAPACITY_RATES[i]
            schedule = _schedule(rng, configs, digests, rate, step_s)
            samples = open_loop(
                server.host, server.port, schedule, abort_late=STEP_ABORT_S,
                tracer=tracer,
            )
            _count(out, samples)
            self.pooled[rate].extend(s.latency for s in samples)
            tail = samples[-max(1, len(samples) // 10):]
            self.behind[rate] |= (
                len(samples) < len(schedule)
                or units.seconds_to_ms(max(s.late for s in tail)) > LIMIT_MS
            )

    def p99_ms(self, rate: float) -> float:
        if not self.pooled[rate]:  # every step fell behind at once
            return units.seconds_to_ms(STEP_ABORT_S)
        value = units.seconds_to_ms(quantile(self.pooled[rate], 0.99))
        if self.behind[rate]:
            return max(value, units.seconds_to_ms(STEP_ABORT_S))
        return value

    def capacity(self, out) -> float:
        p99s = [self.p99_ms(rate) for rate in CAPACITY_RATES]
        out.notes.append(
            "capacity ladder (rps: p99 ms): "
            + ", ".join(f"{r:.0f}: {p:.3g}" for r, p in zip(CAPACITY_RATES, p99s))
        )
        failing = [i for i, p in enumerate(p99s) if p > LIMIT_MS]
        if not failing:
            return CAPACITY_RATES[-1]
        f = failing[0]
        if f == 0:
            # Fails already at the lowest rate: scale it by the excess.
            return CAPACITY_RATES[0] * LIMIT_MS / p99s[0]
        lo, hi = CAPACITY_RATES[f - 1], CAPACITY_RATES[f]
        share = math.log(LIMIT_MS / p99s[f - 1]) / math.log(p99s[f] / p99s[f - 1])
        return lo + (hi - lo) * share


def _cold_schedule(configs, first_group: int):
    """Each config submitted on every connection at once, in turn."""
    schedule = []
    for j, config in enumerate(configs):
        body = _submit_body(config)
        for _ in range(CONNECTIONS):
            schedule.append(
                (j * COLD_INTERVAL_S,
                 Req("submit_cold", "POST", "/experiments", body,
                     group=first_group + j))
            )
    return schedule


def run(ctx: Context) -> Outcome:
    out = Outcome()
    tracer = ctx.tracer
    size = ctx.size
    factory = RngFactory(ctx.seed)
    rng = factory.stream("perfbench:serve-schedule")
    # Consecutive config seeds from a seeded base: every key distinct.
    seeds = itertools.count(
        int(factory.stream("perfbench:serve-keys").integers(2**30))
    )

    def configs(count: int):
        return _configs(ctx, itertools.islice(seeds, count))

    hit_configs = configs(size.serve_hit_keys)
    mixed_s = ctx.seconds * SHARE_FIXED / ROUNDS
    n_single = max(1, int(mixed_s / MIXED_COLD_INTERVAL_S))
    n_pair = max(1, int(ctx.seconds * SHARE_COLD / ROUNDS / COLD_INTERVAL_S))
    pair_configs = configs(n_pair * ROUNDS)
    setup_head, setup_tail = setup_split(size)
    if tracer is not None:
        # A spare server first, for the untraced reference.
        setup_head = max(setup_head, 2)
    spans_out = ctx.workdir / "server-spans.json"

    setup_times = []
    reference_p50 = None
    server = None
    try:
        # Half the set-ups before the measuring; the last one's server
        # is the one measured.
        for index in range(setup_head):
            last = index == setup_head - 1
            server, elapsed = _boot(
                ctx, index, spans_out if (last and tracer is not None) else None
            )
            setup_times.append(elapsed)
            if last:
                break
            if tracer is not None and reference_p50 is None:
                # The untraced reference for the tracing overhead.
                digests = _preload(server, hit_configs)
                ref_s = ctx.seconds * SHARE_FIXED / 2
                samples = open_loop(
                    server.host, server.port,
                    _mixed_schedule(
                        rng, hit_configs, digests, ref_s,
                        configs(max(1, int(ref_s / MIXED_COLD_INTERVAL_S))),
                    ),
                )
                reference_p50 = median(
                    [s.latency for s in samples if s.req.kind == "submit_hit"]
                )
            server.stop()
            server = None

        digests = _preload(server, hit_configs)
        # Warm the connections and the server's hit path; checked, untimed.
        _count(out, open_loop(
            server.host, server.port,
            _schedule(rng, hit_configs, digests, FIXED_RPS, WARM_S),
        ))
        before = _stats(server)

        # Rounds of the three phases, so that each samples the whole run.
        mixed, pairs = [], []
        ladder = CapacityLadder()
        for r in range(ROUNDS):
            # Host-speed probes go between phases: inside one they would
            # hold up the load generator.
            ctx.speed.probe(5)
            samples = open_loop(
                server.host, server.port,
                _mixed_schedule(
                    rng, hit_configs, digests, mixed_s, configs(n_single)
                ),
                tracer=tracer,
            )
            _count(out, samples)
            mixed.extend(samples)
            ctx.speed.probe(5)
            ladder.round(
                out, server, rng, hit_configs, digests,
                ctx.seconds * SHARE_CAPACITY / ROUNDS / len(CAPACITY_RATES),
                tracer,
            )
            ctx.speed.probe(5)
            samples = open_loop(
                server.host, server.port,
                _cold_schedule(
                    pair_configs[r * n_pair:(r + 1) * n_pair], r * n_pair
                ),
                tracer=tracer,
            )
            _count(out, samples)
            pairs.extend(samples)
        hit_lat = [s.latency for s in mixed if s.req.kind == "submit_hit"]
        res_lat = [s.latency for s in mixed if s.req.kind == "results"]
        late = [s.late for s in mixed]
        capacity = ladder.capacity(out)
        out.notes.append(
            f"capacity: {capacity:.1f} rps with p99 <= {LIMIT_MS:g} ms "
            "and no growing backlog"
        )
        single_lat = [s.latency for s in mixed if s.req.kind == "submit_cold"]
        miss_lat = single_lat + [s.latency for s in pairs]
        pair_digests = []
        for j in range(len(pair_configs)):
            pair = [s for s in pairs if s.req.group == j]
            digests_seen = {s.doc.get("digest") for s in pair}
            coalesced = sorted(bool(s.doc.get("coalesced")) for s in pair)
            out.check(
                len(pair) == CONNECTIONS
                and len(digests_seen) == 1
                and coalesced == [False] + [True] * (CONNECTIONS - 1),
                f"cold submission {j}: duplicates not coalesced onto one run",
            )
            pair_digests.append(pair[0].doc.get("digest") if pair else None)
        after = _stats(server)

        # A served digest equals an in-process run of the same config.
        from repro.experiments import run_experiment

        direct = run_experiment(EXP_ID, pair_configs[0]).digest()
        out.check(
            pair_digests[0] == direct,
            "served digest differs from an in-process run",
        )
        server.stop()
        server = None

        # The other half of the set-ups, after the measuring.
        for index in range(setup_head, setup_head + setup_tail):
            server, elapsed = _boot(ctx, index)
            setup_times.append(elapsed)
            server.stop()
            server = None
    finally:
        if server is not None:
            server.stop()

    hit_ms = [units.seconds_to_ms(t) for t in hit_lat]
    res_ms = [units.seconds_to_ms(t) for t in res_lat]
    late_ms = [units.seconds_to_ms(t) for t in late]
    out.timing("hit latency (mixed phase)", hit_ms, "ms")
    out.timing("results latency (mixed phase)", res_ms, "ms")
    out.timing("generator lateness (mixed phase)", late_ms, "ms")
    out.timing("cold submission latency", miss_lat, "s")
    out.timing("cold submission latency (mixed phase)", single_lat, "s")
    out.timing("set-up", setup_times, "s")
    e2e = out.end_to_end
    e2e["setup_s"] = (median(setup_times), "s")
    e2e["peak_rss_mb"] = (ctx.memory.peak_mb(), "MB")
    # The light operation is a cache hit, the heavy one a cold submission.
    e2e["light_op_ms"] = (median(hit_ms), "ms")
    e2e["heavy_op_s"] = (median(miss_lat), "s")

    if tracer is not None:
        pl = out.per_layer
        pl["serve_hit_p50_ms"] = (median(hit_ms), "ms")
        pl["serve_miss_p50_s"] = (median(miss_lat), "s")
        pl["serve_hit_p99_ms"] = (quantile(hit_ms, 0.99), "ms")
        pl["serve_capacity_rps"] = (capacity, "1/s")
        pl["serve.route.submit_hit.p50_ms"] = (median(hit_ms), "ms")
        pl["serve.route.submit_hit.p99_ms"] = (
            quantile(hit_ms, 0.99), "ms"
        )
        pl["serve.route.results.p50_ms"] = (median(res_ms), "ms")
        pl["serve.gen.late_ms"] = (quantile(late_ms, 0.99), "ms")
        for name, field_name in (
            ("serve.hits", "hits"),
            ("serve.misses", "misses"),
            ("serve.coalesced", "coalesced"),
            ("serve.dispatched", "dispatched"),
            ("serve.rebuilds", "pool_rebuilds"),
        ):
            pl[name] = (float(after[field_name] - before[field_name]), "count")
        duplicates = len(pair_configs) * (CONNECTIONS - 1)
        pl["serve.coalesce_ratio"] = (
            (after["coalesced"] - before["coalesced"]) / duplicates, "fraction"
        )
        tracer.merge(spans_out)
        table = tracer.table()
        for name in ("serve.pool.run", "serve.cache.get"):
            row = table.get(name, {"count": 0, "total_s": 0.0})
            pl[f"{name}.s"] = (row["total_s"] / max(row["count"], 1), "s")
            pl[f"{name}.calls"] = (float(row["count"]), "count")
        pl["trace_overhead_frac"] = (
            median(hit_lat) / reference_p50 - 1.0, "fraction"
        )
    return out
