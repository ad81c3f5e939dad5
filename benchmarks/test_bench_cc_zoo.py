"""Mixed-CC batching micro-benchmark: the zoo in one campaign.

Times a 16-flow campaign whose flows cycle through every
template-batchable congestion-control kind (the cc-zoo registry:
cubic, reno, highspeed, htcp, scalable, westwood, plus two tuned-cubic
parameterizations) on the 54 ms AmLight path, under both tick kernels.
With two flows per kind every algorithm group is narrower than
:data:`~repro.tcp.cc.batch.OBJECT_LANES`, so
:class:`~repro.tcp.cc.batch.CcBatch` steps all sixteen through their
scalar objects in one object group: an array stepper's flat per-group
cost would be paid seven times over for two lanes each.  The bench is
the perf contract for that choice — the vector kernel must clear a
ticks/sec floor and stay byte-identical to the scalar reference.

Refreshes ``BENCH_9.json`` at the repo root.  Run with::

    pytest benchmarks/test_bench_cc_zoo.py -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.rng import RngFactory
from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
from repro.sim.kernels import forced_kernel
from repro.testbeds.amlight import AmLightTestbed

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_9.json"

#: Two flows of each batchable kind: seven algorithms, each too narrow
#: for its array stepper.
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
N_FLOWS = 16
PROFILE = SimProfile(duration=4.0, tick=0.002, omit=1.0)
REPS = 2
TRIALS = 3
#: Conservative in-test floor for the vector kernel on a noisy shared
#: machine; the committed BENCH_9.json records what a quiet one does.
MIN_TICKS_PER_SEC = 1500.0


def _campaign_flows() -> list[FlowSpec]:
    return [FlowSpec(cc=KINDS[i % len(KINDS)]) for i in range(N_FLOWS)]


def _run_campaign(kernel: str) -> tuple[float, list]:
    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    path = tb.path("wan54")
    flows = _campaign_flows()
    results = []
    with forced_kernel(kernel):
        start = time.perf_counter()
        for rep in range(REPS):
            sim = FlowSimulator(snd, rcv, path, flows, PROFILE, RngFactory(2024))
            results.append(sim.run())
        elapsed = time.perf_counter() - start
    return elapsed, results


def test_bench_mixed_cc_ticks_per_sec_and_parity():
    # Warm both paths (imports, allocator, numpy dispatch caches).
    _run_campaign("vector")
    _run_campaign("scalar")

    scalar_times, vector_times = [], []
    for _ in range(TRIALS):
        es, rs = _run_campaign("scalar")
        ev, rv = _run_campaign("vector")
        scalar_times.append(es)
        vector_times.append(ev)
        # Mixed-group dispatch must not cost parity: byte-identical.
        for a, b in zip(rs, rv):
            assert np.array_equal(a.per_flow_goodput, b.per_flow_goodput)
            assert a.retransmit_segments == b.retransmit_segments
            assert a.sender_cpu == b.sender_cpu
            assert a.receiver_cpu == b.receiver_cpu

    total_ticks = REPS * int(round(PROFILE.duration / PROFILE.tick))
    best_scalar = min(scalar_times)
    best_vector = min(vector_times)
    ticks_per_sec = total_ticks / best_vector
    speedup = best_scalar / best_vector

    entry = {
        "bench": "mixed-cc-zoo",
        "campaign": {
            "testbed": "amlight",
            "path": "wan54",
            "flows": N_FLOWS,
            "kinds": list(KINDS),
            "duration_sec": PROFILE.duration,
            "tick_sec": PROFILE.tick,
            "repetitions": REPS,
            "seed": 2024,
        },
        "trials": TRIALS,
        "scalar_sec": round(best_scalar, 4),
        "vector_sec": round(best_vector, 4),
        "ticks_per_sec": round(ticks_per_sec, 1),
        "speedup": round(speedup, 2),
    }
    BENCH_PATH.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    print(f"\nscalar {best_scalar*1e3:.1f} ms | vector {best_vector*1e3:.1f} ms "
          f"| {ticks_per_sec:.0f} ticks/s | speedup {speedup:.2f}x "
          f"-> {BENCH_PATH.name}")

    assert ticks_per_sec >= MIN_TICKS_PER_SEC, (
        f"mixed-CC vector kernel ran {ticks_per_sec:.0f} ticks/s, below "
        f"the {MIN_TICKS_PER_SEC:.0f} floor (vector {best_vector:.3f}s "
        f"for {total_ticks} ticks)"
    )
