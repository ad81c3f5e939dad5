"""Command-line interface.

Seven subcommands mirror the ways people use this package::

    repro iperf3    --testbed amlight --path wan54 --zerocopy --fq-rate 50
    repro experiment fig09 [--paper] [--markdown out.md]
    repro run       [exp_id ...|--all] --jobs 4 [--no-cache] [--cache-dir D]
    repro run       scale-flows --shards 4 [--no-cache]
    repro serve     [--port 8472] [--workers 4] [--cache-dir D]
    repro serve     --check [--url HOST:PORT] [--exp fig09]
    repro trace     fig09 --out fig09.trace.json [--interval 0.1] [--csv f.csv]
    repro trace     fig09 --spill traces/ [--profile paper]
    repro trace     --diff a.trace.jsonl b.trace.jsonl
    repro advise    --testbed esnet --path wan --streams 8
    repro lint      src/ [--format json|sarif] [--select DET001,UNIT001]
    repro lint      --deep src/ [--baseline lint_baseline.json [--update-baseline]]
    repro lint      --codes | --explain RNG001 | --list-rules

Each prints to stdout; exit status is 0 on success (``lint`` exits 1
when it finds violations — or, with ``--baseline``, when the findings
drift from the baseline in either direction, ``run --expect-cached`` exits 1 when any
experiment had to execute, ``trace --validate`` exits 1 on a malformed
trace, ``trace --diff`` exits 1 when the traces diverge, 2 on usage
errors).  ``iperf3``, ``experiment``, ``run``, and
``trace`` accept ``--sanitize`` to enable the runtime simulation
sanitizer (equivalent to ``REPRO_SANITIZE=1``).  The module is
import-safe (``main`` takes argv) so tests drive it directly.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.report import result_to_markdown
from repro.core.errors import ReproError
from repro.core.rng import RngFactory
from repro.experiments import all_experiment_ids, run_experiment
from repro.host.advisor import advise
from repro.host.sysctl import OPTMEM_1MB
from repro.testbeds.amlight import AmLightTestbed
from repro.testbeds.esnet import ESnetTestbed
from repro.tools.harness import HARNESS_PROFILES, HarnessConfig
from repro.tools.iperf3 import Iperf3, Iperf3Options

__all__ = ["main", "build_parser"]


def _make_testbed(name: str, kernel: str, optmem: int):
    if name == "amlight":
        return AmLightTestbed(kernel=kernel, optmem_max=optmem)
    if name == "esnet":
        return ESnetTestbed(kernel=kernel, optmem_max=optmem)
    raise ReproError(f"unknown testbed {name!r}; have amlight, esnet")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated reproduction of the SC'24 Linux TCP throughput study",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # -- repro iperf3 -----------------------------------------------------
    p_iperf = sub.add_parser("iperf3", help="run one simulated iperf3 test")
    p_iperf.add_argument("--testbed", default="amlight", choices=["amlight", "esnet"])
    p_iperf.add_argument("--path", default="lan",
                         help="amlight: lan/wan25/wan54/wan104; esnet: lan/wan")
    p_iperf.add_argument("--kernel", default="6.8")
    p_iperf.add_argument("-P", "--parallel", type=int, default=1)
    p_iperf.add_argument("-t", "--time", type=float, default=20.0)
    p_iperf.add_argument("--fq-rate", type=float, default=None, metavar="GBPS")
    p_iperf.add_argument("--zerocopy", action="store_true",
                         help="MSG_ZEROCOPY (--zerocopy=z)")
    p_iperf.add_argument("--skip-rx-copy", action="store_true")
    p_iperf.add_argument("-C", "--congestion", default="cubic")
    p_iperf.add_argument("--optmem", type=int, default=OPTMEM_1MB)
    p_iperf.add_argument("--json", action="store_true", help="emit iperf3 -J JSON")
    p_iperf.add_argument("--seed", type=int, default=7)
    p_iperf.add_argument("--sanitize", action="store_true",
                         help="enable runtime invariant checks "
                         "(= REPRO_SANITIZE=1)")

    # -- repro experiment -------------------------------------------------
    p_exp = sub.add_parser("experiment", help="reproduce a paper artifact")
    p_exp.add_argument("exp_id", nargs="?", default=None,
                       help="experiment id (omit to list)")
    p_exp.add_argument("--paper", action="store_true",
                       help="full 60s x 10-rep fidelity")
    p_exp.add_argument("--markdown", metavar="FILE")
    p_exp.add_argument("--sanitize", action="store_true",
                       help="enable runtime invariant checks "
                       "(= REPRO_SANITIZE=1)")

    # -- repro run --------------------------------------------------------
    p_run = sub.add_parser(
        "run",
        help="run experiments in parallel with result caching",
        description="Process-pool campaign runner: fans experiments out "
        "across --jobs workers and serves unchanged (code, config) pairs "
        "from a content-addressed on-disk cache.  Parallelism and caching "
        "never change a number — see tests/test_runner_golden.py.",
    )
    p_run.add_argument("exp_ids", nargs="*", metavar="EXP_ID",
                       help="experiment ids (omit with no --all to list)")
    p_run.add_argument("--all", action="store_true",
                       help="run every registered experiment")
    p_run.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes (default 1 = in-process)")
    p_run.add_argument("--profile", choices=list(HARNESS_PROFILES),
                       default="bench",
                       help="harness fidelity (default bench)")
    p_run.add_argument("--no-cache", action="store_true",
                       help="bypass the result cache entirely")
    p_run.add_argument("--cache-dir", metavar="DIR",
                       help="cache location (default $REPRO_CACHE_DIR "
                       "or .repro_cache)")
    p_run.add_argument("--expect-cached", action="store_true",
                       help="exit 1 unless every result came from cache")
    p_run.add_argument("--markdown", metavar="FILE",
                       help="write all results as markdown sections")
    p_run.add_argument("--sanitize", action="store_true",
                       help="enable runtime invariant checks "
                       "(= REPRO_SANITIZE=1)")
    p_run.add_argument("--shards", type=int, default=None, metavar="N",
                       help="pin the sharded simulator's worker count "
                       "(default: $REPRO_SIM_SHARDS or 1); results are "
                       "byte-identical for every N")
    p_run.add_argument("--trace", action="store_true",
                       help="record trace events for every task and "
                       "persist Perfetto artifacts next to the cache")
    p_run.add_argument("--spill", metavar="DIR",
                       help="with --trace: stream each task's events to "
                       "a JSONL file in DIR (bounded memory) instead of "
                       "buffering them in the worker")

    # -- repro serve ------------------------------------------------------
    p_serve = sub.add_parser(
        "serve",
        help="always-warm experiment service over HTTP",
        description="Asyncio daemon fronting the content-addressed "
        "result cache and a persistent pre-warmed worker pool.  "
        "POST /experiments submits a config and returns the result "
        "digest (identical in-flight configs coalesce onto one run); "
        "GET /results/<digest> serves stored results in O(1); "
        "GET /traces/<digest>/tail streams spilled trace events over "
        "SSE.  A digest served by the daemon is byte-identical to the "
        "digest `repro run` produces for the same config.",
    )
    p_serve.add_argument("--host", default=None,
                         help="bind address (default $REPRO_SERVE_HOST "
                         "or 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=None,
                         help="TCP port; 0 picks an ephemeral one "
                         "(default $REPRO_SERVE_PORT or 8472)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="persistent pool size (default "
                         "$REPRO_SERVE_WORKERS or 2)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="cache location (default $REPRO_CACHE_DIR "
                         "or .repro_cache)")
    p_serve.add_argument("--trace-dir", metavar="DIR", default=None,
                         help="where traced runs spill JSONL streams "
                         "(default <cache>/serve-traces)")
    p_serve.add_argument("--check", action="store_true",
                         help="self-test: POST an experiment twice plus "
                         "concurrent duplicates, assert cache-hit + "
                         "coalescing via /stats, and compare the served "
                         "digest against a direct in-process run")
    p_serve.add_argument("--url", metavar="HOST:PORT", default=None,
                         help="with --check: test an already-running "
                         "daemon instead of starting a private one")
    p_serve.add_argument("--exp", default="fig09", metavar="EXP_ID",
                         help="experiment the check submits "
                         "(default fig09)")
    p_serve.add_argument("--profile", choices=list(HARNESS_PROFILES),
                         default="quick",
                         help="harness fidelity for --check "
                         "(default quick)")
    p_serve.add_argument("--digest-out", metavar="FILE", default=None,
                         help="with --check: write the served digest to "
                         "FILE (lets CI cmp it against repro run)")

    # -- repro trace ------------------------------------------------------
    p_trace = sub.add_parser(
        "trace",
        help="run one experiment with the observability subsystem on",
        description="Runs an experiment under the in-simulation trace "
        "bus — the stand-in for the paper's ss/mpstat/ethtool side "
        "channels — and exports the event stream as a Perfetto/Chrome "
        "trace_event JSON (load it at https://ui.perfetto.dev).  "
        "Tracing is purely observational: results and golden digests "
        "are identical with it on or off, and the event stream itself "
        "is deterministic (same seed, same bytes, any --jobs).",
    )
    p_trace.add_argument("exp_id", nargs="?", default=None,
                         help="experiment id (omit to list)")
    p_trace.add_argument("--out", metavar="FILE",
                         help="write Perfetto trace_event JSON here")
    p_trace.add_argument("--csv", metavar="FILE",
                         help="also write the raw event stream as CSV")
    p_trace.add_argument("--interval", type=float, default=0.25,
                         metavar="SEC",
                         help="probe sampling interval in simulated "
                         "seconds (default 0.25)")
    p_trace.add_argument("--events", default=None, metavar="CATS",
                         help="comma-separated event categories to "
                         "record (default: all but per-tick 'flow')")
    p_trace.add_argument("--buffer", type=int, default=0, metavar="N",
                         help="flight-recorder ring capacity; 0 keeps "
                         "every event (default)")
    p_trace.add_argument("--spill", metavar="DIR",
                         help="stream events to a JSONL file in DIR as "
                         "they happen (bounded memory; exports then "
                         "read from disk)")
    p_trace.add_argument("--diff", nargs=2, metavar=("A", "B"),
                         help="compare two trace artifacts (JSONL "
                         "streams or Perfetto JSON): report the first "
                         "divergent event and exit 1 if they differ")
    p_trace.add_argument("--seed", type=int, default=None,
                         help="override the harness seed (handy for "
                         "producing deliberately divergent traces to "
                         "--diff)")
    p_trace.add_argument("--profile", choices=list(HARNESS_PROFILES),
                         default="bench",
                         help="harness fidelity (default bench)")
    p_trace.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes (default 1 = in-process)")
    p_trace.add_argument("--shards", type=int, default=None, metavar="N",
                         help="pin the sharded simulator's worker count "
                         "(traces are byte-identical for every N)")
    p_trace.add_argument("--validate", action="store_true",
                         help="schema-check the exported trace; exit 1 "
                         "on problems")
    p_trace.add_argument("--sanitize", action="store_true",
                         help="enable runtime invariant checks "
                         "(= REPRO_SANITIZE=1)")

    # -- repro lint -------------------------------------------------------
    p_lint = sub.add_parser(
        "lint",
        help="determinism & unit-correctness static checks",
        description="AST-based checks of the repo's reproducibility "
        "invariants; see README 'Invariants & linting' for the rule table.",
    )
    p_lint.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files or directories (default: src)")
    p_lint.add_argument("--format", dest="fmt",
                        choices=["text", "json", "sarif"], default="text")
    p_lint.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                        "(default: all)")
    p_lint.add_argument("--deep", action="store_true",
                        help="also run the whole-program dataflow rules "
                        "(RNG001, PURE001, SHARD001, IMP001)")
    p_lint.add_argument("--baseline", metavar="FILE",
                        help="compare findings against a committed "
                        "baseline; new findings AND stale entries both "
                        "fail (exit 1)")
    p_lint.add_argument("--update-baseline", action="store_true",
                        help="with --baseline: rewrite FILE from the "
                        "current findings and exit 0")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    p_lint.add_argument("--codes", action="store_true",
                        help="list every registered rule code with its "
                        "one-line summary and exit")
    p_lint.add_argument("--explain", metavar="CODE",
                        help="print one rule's full rationale and exit")

    # -- repro advise -------------------------------------------------------
    p_adv = sub.add_parser("advise", help="tuning advice for a host/path")
    p_adv.add_argument("--testbed", default="amlight", choices=["amlight", "esnet"])
    p_adv.add_argument("--path", default="wan54")
    p_adv.add_argument("--kernel", default="6.8")
    p_adv.add_argument("--streams", type=int, default=1)
    p_adv.add_argument("--target", type=float, default=None, metavar="GBPS")
    p_adv.add_argument("--stock", action="store_true",
                       help="advise a stock (untuned) host instead of the "
                       "paper-tuned one")
    return parser


def _apply_sanitize_flag(args) -> None:
    if getattr(args, "sanitize", False):
        from repro.sim.sanitizer import enable

        enable()


def _cmd_iperf3(args) -> int:
    _apply_sanitize_flag(args)
    tb = _make_testbed(args.testbed, args.kernel, args.optmem)
    snd, rcv = tb.host_pair()
    tool = Iperf3(snd, rcv, tb.path(args.path), rng=RngFactory(args.seed))
    opts = Iperf3Options(
        parallel=args.parallel,
        duration=args.time,
        fq_rate_gbps=args.fq_rate,
        zerocopy="z" if args.zerocopy else None,
        skip_rx_copy=args.skip_rx_copy,
        congestion=args.congestion,
    )
    result = tool.run(opts)
    if args.json:
        print(result.to_json())
    else:
        print(f"$ {opts.command_line()}")
        print(result.summary_line())
    return 0


def _cmd_experiment(args) -> int:
    _apply_sanitize_flag(args)
    if args.exp_id is None:
        print("available experiments:")
        for exp_id in all_experiment_ids():
            print(f"  {exp_id}")
        return 0
    config = HarnessConfig.paper() if args.paper else HarnessConfig.bench()
    result = run_experiment(args.exp_id, config)
    print(result.render())
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(result_to_markdown(result))
    return 0


def _cmd_run(args) -> int:
    _apply_sanitize_flag(args)
    if not args.exp_ids and not args.all:
        print("available experiments:")
        for exp_id in all_experiment_ids():
            print(f"  {exp_id}")
        print("\nrun them with: repro run --all --jobs 4")
        return 0
    from pathlib import Path

    from repro.runner import RunnerConfig, run_experiments

    config = HARNESS_PROFILES[args.profile]()
    trace_spec = None
    if args.trace:
        from repro.trace.bus import TraceSpec

        trace_spec = TraceSpec(spill_dir=args.spill)
    elif args.spill:
        raise ReproError("--spill only makes sense with --trace")
    runner = RunnerConfig(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        trace=trace_spec,
        shards=args.shards,
    )
    report = run_experiments(
        args.exp_ids or None, config=config, runner=runner
    )
    for task in report.tasks:
        print(task.result.render())
        origin = "cached" if task.cached else f"ran in {task.elapsed:.1f}s"
        print(f"[{task.spec.exp_id}: {origin}, "
              f"digest {task.result.digest()[:12]}]")
        if task.trace is not None:
            print(_trace_line(task))
        print()
    print(report.summary())
    if args.markdown:
        sections = [result_to_markdown(r) for r in report.results]
        with open(args.markdown, "w") as fh:
            fh.write("\n".join(sections))
        print(f"wrote {args.markdown}")
    if args.expect_cached and not report.all_cached:
        print(
            f"error: expected a fully warm cache but {report.executed} "
            f"experiment(s) executed",
            file=sys.stderr,
        )
        return 1
    return 0


def _trace_line(task) -> str:
    """One-line trace summary for a TaskResult with a trace payload."""
    trace = task.trace
    line = (
        f"[trace: {trace['count']} events, "
        f"{trace['dropped']} dropped, digest {trace['digest'][:12]}"
    )
    if trace["path"] is not None:
        line += f", wrote {trace['path']}"
    return line + "]"


def _cmd_trace_diff(paths) -> int:
    from repro.trace.diff import diff_files

    diff = diff_files(paths[0], paths[1])
    print(diff.render())
    return 0 if diff.identical else 1


def _cmd_trace(args) -> int:
    _apply_sanitize_flag(args)
    if args.diff:
        if args.exp_id is not None:
            raise ReproError(
                "--diff compares two existing trace files; "
                "drop the experiment id"
            )
        return _cmd_trace_diff(args.diff)
    if args.exp_id is None:
        print("available experiments:")
        for exp_id in all_experiment_ids():
            print(f"  {exp_id}")
        return 0
    from repro.runner import RunnerConfig, run_experiments
    from repro.trace.bus import TraceSpec
    from repro.trace.export import dump_perfetto, to_csv, validate_perfetto

    categories = None
    if args.events:
        categories = [c.strip() for c in args.events.split(",") if c.strip()]
    spec = TraceSpec(
        interval=args.interval,
        categories=categories,
        buffer=args.buffer,
        spill_dir=args.spill,
    )
    config = HARNESS_PROFILES[args.profile]()
    if args.seed is not None:
        from dataclasses import replace

        config = replace(config, seed=args.seed)
    # Traced campaigns never read the cache, and the CLI writes its own
    # artifact (--out), so skip the cache machinery entirely.
    runner = RunnerConfig(
        jobs=args.jobs, use_cache=False, trace=spec, shards=args.shards
    )
    report = run_experiments([args.exp_id], config=config, runner=runner)
    task = report.by_id(args.exp_id)
    print(task.result.render())
    print(_trace_line(task))
    trace = task.trace
    spilled = trace["jsonl"] is not None
    if spilled:
        print(f"[spill: {trace['jsonl']}, "
              f"peak buffered {trace['peak_buffered']} events]")
    meta = {
        "exp_id": task.spec.exp_id,
        "task": task.spec.label,
        "dropped": trace["dropped"],
        "emitted": trace["emitted"],
    }
    doc = trace["doc"]
    if args.out:
        if spilled:
            from repro.trace.stream import stream_perfetto

            stream_perfetto(trace["jsonl"], args.out, meta=meta)
        else:
            with open(args.out, "w") as fh:
                fh.write(dump_perfetto(doc))
        print(f"wrote {args.out}")
    if args.csv:
        if spilled:
            from repro.trace.stream import stream_csv

            stream_csv(trace["jsonl"], args.csv)
        else:
            with open(args.csv, "w") as fh:
                fh.write(to_csv(trace["events"]))
        print(f"wrote {args.csv}")
    if args.validate:
        if doc is None:
            from repro.trace.export import to_perfetto
            from repro.trace.stream import iter_stream_events

            doc = to_perfetto(iter_stream_events(trace["jsonl"]), meta=meta)
        problems = validate_perfetto(doc)
        if problems:
            for problem in problems:
                print(f"invalid trace: {problem}", file=sys.stderr)
            return 1
        print("trace schema: ok")
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import (
        all_rules,
        compare_baseline,
        get_rule,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            tag = " [deep]" if rule.deep else ""
            print(f"{rule.code}  {rule.name}{tag}")
            print(f"    {rule.description}")
        return 0
    if args.codes:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary()}")
        return 0
    if args.explain:
        try:
            rule = get_rule(args.explain.strip())
        except KeyError as exc:
            raise ReproError(str(exc.args[0])) from None
        print(f"{rule.code} ({rule.name})"
              f"{' — deep rule, runs under --deep' if rule.deep else ''}")
        print()
        print(rule.explain())
        return 0
    if args.update_baseline and not args.baseline:
        raise ReproError("--update-baseline needs --baseline FILE")
    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
    violations = lint_paths(
        args.paths or ["src"], select=select, deep=args.deep
    )
    if args.baseline and args.update_baseline:
        count = write_baseline(violations, args.baseline)
        print(f"wrote {args.baseline}: {count} tracked finding(s)")
        return 0
    render = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }[args.fmt]
    if args.baseline:
        diff = compare_baseline(violations, args.baseline)
        if args.fmt == "text":
            print(diff.render())
        else:
            # Machine formats report the *drift* (what CI should act
            # on), not the accepted baseline population.
            print(render(sorted(diff.new)))
        return 0 if diff.clean else 1
    print(render(violations))
    return 1 if violations else 0


def _cmd_advise(args) -> int:
    tb = _make_testbed(args.testbed, args.kernel, OPTMEM_1MB)
    if args.stock:
        from repro.testbeds.profiles import stock_host

        cpu = "intel" if args.testbed == "amlight" else "amd"
        nic = "cx5" if args.testbed == "amlight" else "cx7"
        host = stock_host("host", cpu=cpu, nic=nic, kernel=args.kernel)
    else:
        host, _ = tb.host_pair()
    report = advise(host, tb.path(args.path), target_gbps=args.target,
                    streams=args.streams)
    print(report.render())
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from repro.serve import ServeConfig

    config = ServeConfig.from_env(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        trace_dir=Path(args.trace_dir) if args.trace_dir else None,
    )
    if args.check:
        return _serve_check(args, config)
    import asyncio

    from repro.serve import ExperimentServer

    server = ExperimentServer(config)

    async def _main() -> None:
        await server.start()
        print(
            f"repro serve: listening on http://{config.host}:{server.port} "
            f"(workers={config.workers}, cache={server.cache.root})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    return 0


def _serve_check(args, config) -> int:
    """Self-test against a live daemon (started privately unless --url).

    Exercises the full acceptance contract: health, an uncached POST,
    a warm re-POST that must hit the cache, a pair of concurrent
    duplicate POSTs that must coalesce onto one run, /stats counters
    backing all of the above, and digest parity against a direct
    in-process ``run_experiment``.
    """
    import concurrent.futures
    import contextlib
    import dataclasses

    from repro.serve import ServeClient, running_server

    harness = HARNESS_PROFILES[args.profile]()

    failures: list[str] = []

    def check(label: str, ok: bool, detail: str) -> None:
        mark = "ok" if ok else "FAIL"
        print(f"  [{mark}] {label}: {detail}")
        if not ok:
            failures.append(label)

    with contextlib.ExitStack() as stack:
        if args.url:
            host, _, port = args.url.rpartition(":")
            if not host or not port.isdigit():
                raise ReproError(f"--url wants HOST:PORT, got {args.url!r}")
            client = ServeClient(host, int(port))
        else:
            server = stack.enter_context(running_server(config))
            client = ServeClient(config.host, server.port)
        print(f"repro serve --check against {client.host}:{client.port}")
        health = client.healthz()
        check("healthz", health.get("ok") is True, str(health))

        first = client.submit(args.exp, config=harness)
        check(
            "cold submit",
            bool(first.get("digest")),
            f"digest {first.get('digest', '')[:12]} "
            f"cached={first.get('cached')}",
        )
        second = client.submit(args.exp, config=harness)
        check(
            "warm re-submit",
            second.get("cached") is True
            and second.get("digest") == first.get("digest"),
            f"cached={second.get('cached')}",
        )

        # Concurrent duplicates on a fresh config so neither can be a
        # plain cache hit: exactly one should run, the other coalesce.
        dup = dataclasses.replace(harness, seed=harness.seed + 1)
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futs = [pool.submit(client.submit, args.exp, dup)
                    for _ in range(2)]
            docs = [f.result() for f in futs]
        check(
            "coalesced duplicates",
            sum(1 for d in docs if d.get("coalesced")) == 1
            and docs[0]["digest"] == docs[1]["digest"],
            f"coalesced flags "
            f"{sorted(bool(d.get('coalesced')) for d in docs)}",
        )

        stats = client.stats()
        check(
            "stats counters",
            stats.get("hits", 0) >= 1 and stats.get("coalesced", 0) >= 1,
            f"hits={stats.get('hits')} misses={stats.get('misses')} "
            f"coalesced={stats.get('coalesced')}",
        )

        stored = client.result(first["digest"])
        direct = run_experiment(args.exp, config=harness)
        parity = (
            direct.digest() == first["digest"]
            and stored["result"] == direct.to_dict()
        )
        check(
            "digest parity vs direct run",
            parity,
            f"served {first['digest'][:12]} "
            f"direct {direct.digest()[:12]}",
        )

        if args.digest_out:
            with open(args.digest_out, "w") as fh:
                fh.write(first["digest"] + "\n")
            print(f"  wrote digest to {args.digest_out}")

    if failures:
        print(f"serve check FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("serve check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "iperf3":
            return _cmd_iperf3(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "advise":
            return _cmd_advise(args)
        if args.command == "serve":
            return _cmd_serve(args)
        raise AssertionError("unreachable")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
