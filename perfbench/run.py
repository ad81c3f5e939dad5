"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload sim-flows --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sim-flows``   — direct ``FlowSimulator`` / ``ShardedFlowSimulator`` runs;
* ``campaign``    — ``run_experiments`` cold into a fresh cache, then warm;
* ``serve-mixed`` — a ``repro serve`` child under open-loop HTTP traffic.

``--trace 0`` prints the end-to-end metrics, which every workload
measures: set-up time, peak memory, and the time of its light and of
its heavy operation (for each workload, see its module).  Timings are
divided by the host's speed factor (``common.HostSpeed``); the values
as measured are printed above the result.  ``--trace 1`` wraps calls
into each layer from the benchmark's own files, prints the per-layer
table and metrics, and writes the spans to ``.perfbench_out/``.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The command supervises a child process that does the measuring.  On
SIGTERM, SIGINT or past ``TIME_LIMIT_S`` it asks the child to stop
(SIGTERM: the child tears down what it started), and after
``STOP_GRACE_S`` kills it and every process carrying the run's marker.
Every process the run starts is stopped before it exits; a survivor
fails the run (exit 1, no result line), as does a failed output check
of the program (``correct: false`` is still printed), a signal or a
timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

from common import (
    BENCH_DIR, ROOT, RUN_MARKER, SIZES, SRC, Context, ProcessGuard, clock,
    marked_processes, median,
)
from spans import Tracer

#: Measuring-run limit.  With the grace and the final wait below, the
#: command ends within 175 s; the caller allows 180 s.
TIME_LIMIT_S = 140
STOP_GRACE_S = 25
FINAL_WAIT_S = 10
WORKLOADS = ("sim-flows", "campaign", "serve-mixed")


class BenchInterrupted(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is for the benchmark's own smoke tests",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _supervise(argv: list[str]) -> int:
    """Run the measuring child; stop it on a signal or past the limit.

    The child gets the run marker in its exec-time environment, which
    forked and exec'd descendants keep, so every one of them can be
    found in ``/proc`` (``common.marked_processes``).  Handlers here only
    record the signal: the waiting loop acts on it.
    """
    token = os.environ.get(RUN_MARKER) or uuid.uuid4().hex
    env = dict(os.environ, **{RUN_MARKER: token})
    stop_reason = []
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(
            signum, lambda n, _f: stop_reason.append(f"stopped by signal {n}")
        )
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), *argv, "--child"],
        env=env, start_new_session=True,
    )
    deadline = clock() + TIME_LIMIT_S
    while child.poll() is None and not stop_reason:
        if clock() > deadline:
            stop_reason.append(f"run exceeded {TIME_LIMIT_S} s")
            break
        try:
            child.wait(timeout=0.2)
        except subprocess.TimeoutExpired:
            pass
    code = child.poll()
    if code is None:
        print(f"perfbench: {stop_reason[0]}; stopping the run", file=sys.stderr)
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        code = 1
    survivors = marked_processes(token)
    if child.poll() is None or survivors:
        print(
            f"perfbench: killing {len(survivors) + (child.poll() is None)} "
            "processes left by the run",
            file=sys.stderr,
        )
        _kill_run(child, token)
        code = 1
    return code


def _kill_run(child: subprocess.Popen, token: str) -> None:
    """SIGKILL the child's group and every marked process; wait for them.

    multiprocessing's resource tracker is spared until last: it unlinks
    the shared memory of killed shards once every holder has exited.
    """
    def is_tracker(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                return b"resource_tracker" in fh.read()
        except OSError:
            return False

    deadline = clock() + FINAL_WAIT_S
    while clock() < deadline:
        others = [p for p in marked_processes(token) if not is_tracker(p)]
        for pid in others:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        if child.poll() is None:
            child.kill()
        if not others and child.poll() is not None:
            break
        time.sleep(0.05)
    child.wait()
    deadline = clock() + FINAL_WAIT_S
    while marked_processes(token) and clock() < deadline:
        time.sleep(0.05)
    for pid in marked_processes(token):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _manifest_metrics(outcome, traced: bool) -> dict[str, tuple[float, str]]:
    """Every metric ``BENCHMARK.json`` lists for the mode, in its order.

    Every workload measures every end-to-end metric.  A per-layer metric
    of a layer the workload bypasses (``serve.*`` in ``sim-flows``, say)
    reads 0.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if traced else "end_to_end"]
    measured = outcome.per_layer if traced else outcome.end_to_end
    units = {m["name"]: m["unit"] for m in listed}
    for name, (_value, unit) in measured.items():
        if units.get(name) != unit:
            raise ValueError(f"metric {name} ({unit}) is not in BENCHMARK.json")
    if not traced and set(measured) != set(units):
        raise ValueError(f"end-to-end metrics missing: {set(units) - set(measured)}")
    return {
        name: measured.get(name, (0.0, unit)) for name, unit in units.items()
    }


def _on_reference_host(outcome, speed) -> None:
    """Divide the end-to-end timings by the host's speed factor.

    The values as measured, and the factor, go into the notes.
    """
    from repro.core import units

    factor = speed.factor()
    outcome.notes.append(
        f"host speed factor: {factor:.6g} (reference job median "
        f"{units.seconds_to_ms(median(speed.times)):.6g} ms, "
        f"n={len(speed.times)})"
    )
    for name, (value, unit) in outcome.end_to_end.items():
        if unit in ("s", "ms"):
            outcome.notes.append(f"{name} as measured: {value:.6g} {unit}")
            outcome.end_to_end[name] = (value / factor, unit)


def _on_term(signum, frame):
    raise BenchInterrupted(f"stopped by signal {signum}")


def _default_sigterm() -> None:
    """Undo ``_on_term`` in a forked child (a shard worker).

    Inherited, it would turn the SIGTERM that stops the child into an
    exception inside it, which can leave it waiting forever.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if not args.child:
        return _supervise(argv)
    sys.path.insert(0, str(SRC))
    # A SIGTERM from the supervisor tears down what this run started; if
    # it lands where the exception is lost or leaves things hanging, the
    # supervisor kills the rest after its grace period.
    signal.signal(signal.SIGTERM, _on_term)
    os.register_at_fork(after_in_child=_default_sigterm)

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    guard = ProcessGuard()
    ctx = Context(
        seed=args.seed,
        seconds=args.seconds,
        size=SIZES[args.size],
        workdir=workdir,
        guard=guard,
        tracer=Tracer() if args.trace else None,
    )
    outcome = None
    error = None
    ctx.memory.start()
    try:
        if args.workload == "sim-flows":
            import sim_flows as workload
        elif args.workload == "campaign":
            import campaign as workload
        else:
            import serve_mixed as workload
        outcome = workload.run(ctx)
    except Exception as exc:  # reported below; the run exits 1
        import traceback

        traceback.print_exc()
        error = exc
    finally:
        # Clean-up must not be cut short by a second signal.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        ctx.memory.stop()
        guard.stop_all()
        survivors = guard.leftovers()
        shutil.rmtree(workdir, ignore_errors=True)

    if survivors:
        listed = ", ".join(f"{what} {pid}" for pid, what in survivors.items())
        print(f"perfbench: processes outlived the run: {listed}", file=sys.stderr)
        guard.kill(survivors)
        return 1
    if error is not None:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    if ctx.tracer is None:
        _on_reference_host(outcome, ctx.speed)

    for line in outcome.notes:
        print(line)
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if ctx.tracer is not None:
        print(ctx.tracer.format_table(args.workload))
        ctx.tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.json")
        outcome.per_layer["failed_frac"] = (
            outcome.failed / outcome.attempted, "fraction"
        )
    try:
        metrics = _manifest_metrics(outcome, traced=ctx.tracer is not None)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
