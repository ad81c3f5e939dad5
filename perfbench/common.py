"""Shared pieces of the benchmark: the run context, statistics, checks
and the guard over every process the benchmark starts."""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, clock

#: Marker put in the environment of the benchmark process (which
#: re-executes itself to carry it from exec time), so every descendant,
#: forked or exec'd, can be found in ``/proc`` after the run.
RUN_MARKER = "PERFBENCH_RUN"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


median = statistics.median


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it.

    Returns ``(percentile, value, sample_count)``; with fewer than 11
    samples there is no such percentile and the maximum is returned
    as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1], n
    k = n - 11
    return 100.0 * (k + 1) / n, ordered[k], n


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[idx]


def _memory_kib(pid: int) -> int:
    """Proportional set size of ``pid`` in KiB (0 once it has ended).

    Pages that forked processes share are split among them, so a sum
    over processes counts each page once.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class MemorySampler:
    """Peak memory of this process and its live descendants, summed.

    A thread adds up the memory of this process and of every live
    process carrying the run marker every ``INTERVAL_S`` and keeps the
    highest sum, so shards, servers and pool workers that run together
    count together.  Nothing is counted while :attr:`paused` is set:
    the set-up probes' fresh interpreters are measuring apparatus, not
    the workload.
    """

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.peak_kib = 0
        self.paused = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        if self.paused:
            return
        pids = [os.getpid(), *marked_processes()]
        total = sum(_memory_kib(p) for p in pids)
        with self._lock:
            self.peak_kib = max(self.peak_kib, total)

    def start(self) -> None:
        def loop() -> None:
            while not self._stop.wait(self.INTERVAL_S):
                self.sample()

        self.sample()
        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def peak_mb(self) -> float:
        from repro.core import units

        self.sample()
        return units.to_mib(units.kib(self.peak_kib))


def _reference_job(data) -> float:
    """A fixed mix of interpreter and array work, like the workloads'."""
    import numpy as np

    acc = 0
    for i in range(50_000):
        acc += (i * i) % 7
    for _ in range(20):
        data = np.sqrt(data * data + 1.0)
    return acc + float(data[-1])


class HostSpeed:
    """How slowly the machine runs a fixed job, sampled through a run.

    A shared machine's speed swings by as much as 2x over minutes with
    other tenants' load, and every timing of a run swings with it.  The
    workloads run :func:`_reference_job` between their timed operations;
    a timing divided by :meth:`factor` (median job time over
    ``REFERENCE_S``) is what it would read on a machine that runs the
    job in ``REFERENCE_S``.  The job calls nothing of the program, so a
    change to the program moves the timing and not the factor.
    """

    #: A round figure near the job's time on the 2-vCPU host the
    #: benchmark was tuned on.
    REFERENCE_S = 0.010

    def __init__(self) -> None:
        import numpy as np

        self._data = np.arange(100_000, dtype=float)
        self.times: list[float] = []

    def probe(self, reps: int = 1) -> None:
        for _ in range(reps):
            start = clock()
            _reference_job(self._data)
            self.times.append(clock() - start)

    def factor(self) -> float:
        return median(self.times) / self.REFERENCE_S


@dataclass(frozen=True)
class Size:
    """How big each workload's inputs are (``full`` or ``tiny``)."""

    setup_reps: int
    #: sim-flows
    flows16_duration: float
    flows10k: int
    flows10k_duration: float
    #: campaign
    campaign_duration: float
    #: serve-mixed: the number of hit keys, and the run length of every
    #: submitted config (``full`` is BENCH_8's: 4 keys of ``duration=4``)
    serve_hit_keys: int
    serve_duration: float


SIZES = {
    "full": Size(
        setup_reps=8,
        flows16_duration=2.0,
        flows10k=10_000,
        flows10k_duration=1.0,
        campaign_duration=3.0,
        serve_hit_keys=4,
        serve_duration=4.0,
    ),
    "tiny": Size(
        setup_reps=1,
        flows16_duration=0.2,
        flows10k=300,
        flows10k_duration=0.1,
        campaign_duration=0.5,
        serve_hit_keys=2,
        serve_duration=0.5,
    ),
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: Operations attempted / failed (requests, runs, passes).
    attempted: int = 0
    failed: int = 0
    #: Descriptions of failed output checks, for stderr.
    problems: list[str] = field(default_factory=list)
    #: name -> (value, unit)
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Lines printed above the result (sample counts, tails, tables).
    notes: list[str] = field(default_factory=list)

    def check(self, condition: bool, problem: str) -> bool:
        """Count one checked operation; a false condition fails it."""
        self.attempted += 1
        if not condition:
            self.failed += 1
            self.problems.append(problem)
        return condition

    def timing(self, name: str, values, unit: str) -> None:
        """Note a timing's median and tail, with the sample count."""
        pct, val, n = tail(values)
        self.notes.append(
            f"{name}: median {median(values):.6g} {unit}, "
            f"p{pct:.4g} {val:.6g} {unit}, n={n}"
        )


@dataclass
class Context:
    """Everything a workload needs from the command line and the run."""

    seed: int
    seconds: float
    size: Size
    workdir: Path
    guard: "ProcessGuard"
    tracer: Tracer | None = None
    memory: MemorySampler = field(default_factory=MemorySampler)
    speed: HostSpeed = field(default_factory=HostSpeed)


class ProcessGuard:
    """Starts child processes and makes sure none outlives the run."""

    def __init__(self) -> None:
        self.children: list[tuple[subprocess.Popen, bool]] = []

    def popen(self, args: list[str], own_group: bool = False, **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(BENCH_DIR)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            args, env=env, cwd=str(ROOT), start_new_session=own_group, **kwargs
        )
        self.children.append((proc, own_group))
        return proc

    def run(self, args: list[str], timeout: float) -> subprocess.CompletedProcess:
        """Run a short-lived child to completion (killed on timeout)."""
        proc = self.popen(args, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(proc, own_group=False)
            raise
        return subprocess.CompletedProcess(args, proc.returncode, out, None)

    @staticmethod
    def stop(proc: subprocess.Popen, own_group: bool, grace: float = 20.0) -> None:
        """Ask ``proc`` to stop (SIGINT), then kill it and its group."""
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
            except ProcessLookupError:
                pass
        if own_group:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10.0)
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()

    def stop_all(self) -> None:
        for proc, own_group in self.children:
            self.stop(proc, own_group, grace=5.0)
        # Shared-memory shards start multiprocessing's resource tracker,
        # which otherwise lives until this process exits; stop and reap
        # it (the only way is its private ``_stop``).
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def leftovers(self) -> dict[int, str]:
        """Every process this run started that is still alive, by pid.

        Process groups of children started in their own group count as
        one entry under the (negated) group id.
        """
        alive = {
            p.pid: "multiprocessing child"
            for p in multiprocessing.active_children()
        }
        for proc, own_group in self.children:
            if proc.poll() is None:
                alive[proc.pid] = "child"
            if own_group and _group_alive(proc.pid):
                alive[-proc.pid] = "process group"
        for pid in marked_processes():
            alive.setdefault(pid, f"descendant {_cmdline(pid)!r}")
        return alive

    @staticmethod
    def kill(leftovers: dict[int, str]) -> None:
        for pid in leftovers:
            try:
                if pid < 0:
                    os.killpg(-pid, signal.SIGKILL)
                else:
                    os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # Zombies keep a group "alive" to kill(0) but run nothing.
    return any(
        _pgid_of(pid) == pgid and not _is_zombie(pid) for pid in _pids()
    )


def _pids() -> list[int]:
    try:
        return [int(name) for name in os.listdir("/proc") if name.isdigit()]
    except OSError:
        return []


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")[:120]
    except OSError:
        return "?"


def _pgid_of(pid: int) -> int | None:
    try:
        return os.getpgid(pid)
    except OSError:
        return None


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return True
    return stat[stat.rfind(b")") + 2:][:1] in (b"Z", b"X")


def marked_processes(token: str | None = None) -> list[int]:
    """Live processes carrying this run's marker, but for this one and
    its parent (the supervising ``run.py``, when this is its child)."""
    token = token or os.environ.get(RUN_MARKER)
    if not token:
        return []
    needle = f"{RUN_MARKER}={token}".encode() + b"\0"
    found = []
    for pid in _pids():
        if pid in (os.getpid(), os.getppid()):
            continue
        try:
            with open(f"/proc/{pid}/environ", "rb") as fh:
                env = fh.read() + b"\0"
        except OSError:
            continue
        if needle in env and not _is_zombie(pid):
            found.append(pid)
    return found


def setup_split(size: "Size") -> tuple[int, int]:
    """Set-ups made before and after the measuring, out of ``setup_reps``.

    Half are made at each end of the run, so that a slow spell of a
    shared machine at either end moves their median less.
    """
    head = (size.setup_reps + 1) // 2
    return head, size.setup_reps - head


def setup_probe(ctx: Context, workload: str, reps: int) -> list[float]:
    """Wall time of ``setup_probe.py`` in ``reps`` fresh interpreters.

    Set-up includes interpreter start and imports, which a process can
    pay only once, so each repetition is its own child process.
    """
    times = []
    ctx.memory.paused = True
    try:
        for _ in range(reps):
            start = clock()
            done = ctx.guard.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
                timeout=60.0,
            )
            times.append(clock() - start)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe for {workload} failed")
    finally:
        ctx.memory.paused = False
    return times
