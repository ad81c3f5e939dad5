"""Engine fingerprints: committed hashes of direct simulator runs.

``tests/golden/engines.json`` pins, for a fixed set of direct
:class:`FlowSimulator` and :class:`ShardedFlowSimulator` runs, a sha256
over every :class:`RunResult` field (per-flow goodput, interval
goodput, retransmits, loss events, CPU, zerocopy fraction) and, for
traced runs, the ``events_digest`` of the full event stream.  The
experiment goldens hash campaign rows; these pin the engines below the
harness, including every trace event a run emits, so any change to a
drawn number, a reduction order or an emitted event shows up here.

The cases cover 1, 8 and 16 flows (the cc-zoo mix, a BBR flow,
zerocopy and fq-paced flows) on a lossy WAN path and on an 802.3x
path, each untraced, traced and sanitized; a second ``run(0)`` on one
simulator, which pins how the caller's RNG streams continue; and the
sharded engine at 100 flows (pad lanes) and 1000 flows through one
in-process shard and two process shards, untraced and traced.  The
fingerprints do not depend on the tick kernel (``REPRO_SIM_KERNEL``).

Regenerate after an intentional engine change with::

    PYTHONPATH=src python -m tests.test_engine_fingerprints

and review the diff like any other golden-file change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.rng import RngFactory
from repro.sim import sanitizer
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.shard import FlowPopulation, ShardedFlowSimulator
from repro.testbeds.amlight import AmLightTestbed
from repro.testbeds.esnet import ESnetTestbed
from repro.trace.bus import ListSink, TraceBus, tracing
from repro.trace.events import events_digest

ENGINES_FILE = Path(__file__).parent / "golden" / "engines.json"

PROFILE = SimProfile(duration=4.0, tick=0.004, omit=1.0)
SHARD_PROFILE = SimProfile(duration=1.0, tick=0.008, omit=0.25)

#: The cc-zoo mix: every batch stepper, one parameterized kind twice.
ZOO = (
    "cubic",
    "reno",
    "highspeed",
    "htcp",
    "scalable",
    "westwood",
    "tunable-cubic:alpha=1.5,beta=0.5",
    "tunable-cubic:c=0.8,beta=0.6",
)
ZC = dict(zerocopy=True, skip_rx_copy=True)

FLOW_SETS = {
    "1": [FlowSpec(**ZC)],
    "8": [FlowSpec(cc=kind) for kind in ZOO],
    "16": (
        [FlowSpec(cc=kind) for kind in ZOO]
        + [FlowSpec(cc="bbr")]
        + [FlowSpec(**ZC)] * 3
        + [FlowSpec().with_pacing_gbps(4.0)] * 2
        + [FlowSpec(**ZC).with_pacing_gbps(10.0)] * 2
    ),
}

SHARD_POPULATIONS = {
    "100": FlowPopulation.of(
        [FlowSpec(cc="cubic")] * 60
        + [FlowSpec(cc="reno")] * 24
        + [FlowSpec(**ZC)] * 16
    ),
    "1000": FlowPopulation.of(
        [FlowSpec(cc="cubic")] * 600
        + [FlowSpec(cc="htcp")] * 200
        + [FlowSpec(**ZC).with_pacing_gbps(0.5)] * 200
    ),
}

#: Shard transports; results and traces must not depend on them.
TRANSPORTS = {"1inproc": (1, "inproc"), "2process": (2, "process")}


def _lossy_wan():
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    return snd, rcv, tb.path("wan54")


def _flow_control():
    tb = ESnetTestbed()
    snd, rcv = tb.production_host_pair()
    return snd, rcv, tb.production_path()


PATHS = {"wan54": _lossy_wan, "8023x": _flow_control}


def result_hash(res) -> str:
    """sha256 over every RunResult field, floats by their exact bits."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(res.per_flow_goodput, dtype=float).tobytes())
    h.update(np.ascontiguousarray(res.interval_goodput, dtype=float).tobytes())
    scalars = (
        res.duration, res.omit, res.retransmit_segments, float(res.loss_events),
        res.sender_cpu.app_pct, res.sender_cpu.irq_pct,
        res.receiver_cpu.app_pct, res.receiver_cpu.irq_pct,
        res.zc_fraction_mean,
    )
    h.update(np.array(scalars, dtype=float).tobytes())
    return h.hexdigest()


def _entry(res, events) -> dict:
    return {
        "result": result_hash(res),
        "events": None if events is None else events_digest(events),
        "n_events": None if events is None else len(events),
        "gbps": round(res.total_gbps, 6),
        "loss_events": res.loss_events,
    }


def _run(make_sim, mode: str):
    """Run ``make_sim().run()`` untraced, traced or sanitized."""
    if mode == "traced":
        sink = ListSink()
        with tracing(TraceBus(sinks=[sink], probe_interval=0.1)):
            res = make_sim().run()
        return _entry(res, sink.events)
    with sanitizer.sanitized(mode == "sanitized"):
        return _entry(make_sim().run(), None)


def _flowsim_case(path: str, flows: str, mode: str, seed: int = 11) -> dict:
    snd, rcv, p = PATHS[path]()
    return _run(
        lambda: FlowSimulator(
            snd, rcv, p, FLOW_SETS[flows], PROFILE, RngFactory(seed)
        ),
        mode,
    )


def _rerun_case() -> dict:
    snd, rcv, p = _lossy_wan()
    sim = FlowSimulator(snd, rcv, p, FLOW_SETS["8"], PROFILE, RngFactory(5))
    sim.run(0)
    return _entry(sim.run(0), None)


def _shard_case(flows: str, transport: str, mode: str) -> dict:
    snd, rcv, p = _lossy_wan()
    shards, how = TRANSPORTS[transport]
    return _run(
        lambda: ShardedFlowSimulator(
            snd, rcv, p, SHARD_POPULATIONS[flows], SHARD_PROFILE,
            RngFactory(3), shards=shards, mode=how,
        ),
        mode,
    )


def case_ids() -> list[str]:
    ids = [
        f"flowsim/{path}/{flows}/{mode}"
        for path in PATHS
        for flows in FLOW_SETS
        for mode in ("plain", "traced", "sanitized")
    ]
    ids.append("flowsim/wan54/8/rerun")
    ids += [
        f"shard/{flows}/{transport}/{mode}"
        for flows in SHARD_POPULATIONS
        for transport in TRANSPORTS
        for mode in ("plain", "traced")
    ]
    return ids


def compute(case_id: str) -> dict:
    engine, *rest = case_id.split("/")
    if engine == "shard":
        return _shard_case(*rest)
    if rest[-1] == "rerun":
        return _rerun_case()
    return _flowsim_case(*rest)


def _committed() -> dict:
    return json.loads(ENGINES_FILE.read_text())


@pytest.mark.parametrize("case_id", case_ids())
def test_engine_fingerprint(case_id):
    expected = _committed()[case_id]
    got = compute(case_id)
    assert got == expected, (
        f"{case_id} drifted from {ENGINES_FILE.name}; regenerate with "
        "`python -m tests.test_engine_fingerprints` only for an "
        "intentional engine change"
    )


def test_committed_file_covers_exactly_the_cases():
    assert sorted(_committed()) == sorted(case_ids())


def test_cases_exercise_losses_and_events():
    """Fingerprints of loss-free or event-free runs would pin little."""
    committed = _committed()
    for case_id, entry in committed.items():
        if "/wan54/" in case_id or case_id.startswith("shard/"):
            assert entry["loss_events"] > 0, case_id
        if case_id.endswith("/traced"):
            assert entry["n_events"] > 0, case_id


def test_shard_transports_agree():
    committed = _committed()
    for flows in SHARD_POPULATIONS:
        for mode in ("plain", "traced"):
            a, b = (
                committed[f"shard/{flows}/{transport}/{mode}"]
                for transport in TRANSPORTS
            )
            assert a == b, (flows, mode)


def main() -> None:
    ENGINES_FILE.write_text(
        json.dumps({cid: compute(cid) for cid in case_ids()}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(case_ids())} fingerprints to {ENGINES_FILE}")


if __name__ == "__main__":
    main()
