"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

They check that every workload prints every metric named in
``BENCHMARK.json`` with its unit, that the output checks fail on a
planted mismatch, and that no process the benchmark started survives
it, also when it is stopped half way.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import common  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("sim-flows", "campaign", "serve-mixed")
E2E = {"setup_s", "peak_rss_mb", "light_op_ms", "heavy_op_s"}
LAYER_PREFIX = {
    "sim-flows": ("sim.", "tcp.", "testbeds.", "ticks_"),
    "campaign": ("runner.", "experiments.", "campaign_"),
    "serve-mixed": ("serve.", "serve_"),
}
LAYER_ALL = {"trace_overhead_frac", "failed_frac"}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def _own_layers(workload: str) -> set[str]:
    """The per-layer metrics a workload measures; the rest read 0."""
    return {
        n for n in PER_LAYER if n.startswith(LAYER_PREFIX[workload])
    } | LAYER_ALL


def _bench(workload, trace, seconds=2, cwd=ROOT, wait=True, size="tiny"):
    token = uuid.uuid4().hex
    env = dict(os.environ, **{common.RUN_MARKER: token})
    proc = subprocess.Popen(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
            "--size", size,
        ],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
    )
    if not wait:
        return proc, token
    out, _ = proc.communicate(timeout=170)
    return proc.returncode, out, token


def test_spec_names_every_metric_once():
    assert {m["name"] for m in SPEC["end_to_end"]} == E2E
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set().union(*map(_own_layers, WORKLOADS)) == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_leaves_no_process(workload, trace):
    code, out, token = _bench(workload, trace)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else E2E)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name
        elif name not in _own_layers(workload):
            assert metric["value"] == 0, name
    if trace:
        assert "# per-layer spans" in out
    assert common.marked_processes(token) == []


def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None
    return int(stat[stat.rfind(b")") + 2:].split()[1])


@pytest.mark.parametrize(
    "workload, size, child",
    [
        ("serve-mixed", "tiny", "serve_child"),
        # A forked shard worker has the measuring process's command line
        # but is not a child of the supervisor; the full size makes its
        # 2-shard runs long enough to catch.
        ("sim-flows", "full", "perfbench/run.py"),
    ],
)
def test_interrupted_run_leaves_no_process(workload, size, child):
    proc, token = _bench(workload, 0, seconds=30, wait=False, size=size)
    try:
        deadline = common.clock() + 60
        while common.clock() < deadline:
            alive = common.marked_processes(token)
            if any(
                proc.pid not in (pid, _ppid(pid))
                and child in common._cmdline(pid)
                for pid in alive
            ):
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"no {child} process ever started")
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"metrics"' not in out
    assert common.marked_processes(token) == []


def test_peak_memory_adds_live_descendants(tmp_path, monkeypatch):
    monkeypatch.setenv(common.RUN_MARKER, uuid.uuid4().hex)
    ctx = _ctx(tmp_path)
    alone = ctx.memory.peak_mb()
    child = ctx.guard.popen(
        [sys.executable, "-c",
         "import time; x = b'1' * (64 << 20); print(flush=True); time.sleep(60)"],
        stdout=subprocess.PIPE,
    )
    try:
        child.stdout.readline()
        assert ctx.memory.peak_mb() >= alone + 60
    finally:
        ctx.guard.stop_all()
    assert ctx.guard.leftovers() == {}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    code, out, token = _bench("sim-flows", 0, cwd=tmp_path)
    assert code != 0
    assert '"metrics"' not in out
    assert common.marked_processes(token) == []


# -- planted mismatches: each workload's checks must catch them ----------


def _ctx(tmp_path) -> common.Context:
    return common.Context(
        seed=5, seconds=1.0, size=common.SIZES["tiny"],
        workdir=tmp_path, guard=common.ProcessGuard(),
    )


def test_sim_flows_catches_shard_mismatch(tmp_path, monkeypatch):
    import dataclasses

    import sim_flows
    from repro.sim.shard import ShardedFlowSimulator

    original = ShardedFlowSimulator.run

    def skewed(self, rep=0):
        result = original(self, rep)
        if self.shards == 2:
            result = dataclasses.replace(
                result, loss_events=result.loss_events + 1
            )
        return result

    monkeypatch.setattr(ShardedFlowSimulator, "run", skewed)
    ctx = _ctx(tmp_path)
    try:
        out = sim_flows.run(ctx)
    finally:
        ctx.guard.stop_all()
    assert out.failed > 0
    assert any("shard" in p for p in out.problems)


def test_campaign_catches_changed_warm_rows(tmp_path, monkeypatch):
    import campaign
    from repro.runner.cache import ResultCache

    original = ResultCache.get

    def planted(self, key):
        doc = original(self, key)
        if doc is not None:
            doc["result"]["rows"].append({"planted": 1})
        return doc

    monkeypatch.setattr(ResultCache, "get", planted)
    ctx = _ctx(tmp_path)
    try:
        out = campaign.run(ctx)
    finally:
        ctx.guard.stop_all()
    assert out.failed > 0
    assert any("warm pass" in p for p in out.problems)


def test_serve_catches_wrong_digest(tmp_path, monkeypatch):
    import serve_mixed

    original = serve_mixed._preload

    def planted(server, configs):
        return ["0" * 64 for _ in original(server, configs)]

    monkeypatch.setattr(serve_mixed, "_preload", planted)
    ctx = _ctx(tmp_path)
    try:
        out = serve_mixed.run(ctx)
    finally:
        ctx.guard.stop_all()
    assert out.failed > 0
    assert any("hit not served" in p for p in out.problems)
    assert ctx.guard.leftovers() == {}
