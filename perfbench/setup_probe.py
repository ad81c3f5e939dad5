"""One set-up in a fresh interpreter, timed from outside by the caller.

``python3 setup_probe.py sim-flows`` imports the simulator and builds the
AmLight testbed and both simulators; ``python3 setup_probe.py campaign``
imports the experiment registry and runner and hashes the source tree
(the runner's cache keys need it before any task is planned).
"""

from __future__ import annotations

import sys


def sim_flows() -> None:
    from repro.core.rng import RngFactory
    from repro.sim.flowsim import FlowSimulator, FlowSpec, SimProfile
    from repro.sim.shard import FlowPopulation, ShardedFlowSimulator
    from repro.testbeds.amlight import AmLightTestbed

    tb = AmLightTestbed(kernel="6.8")
    snd, rcv = tb.host_pair()
    path = tb.path("wan54")
    profile = SimProfile(duration=1.0, tick=0.008, omit=0.25)
    FlowSimulator(snd, rcv, path, [FlowSpec()], profile, RngFactory(1))
    ShardedFlowSimulator(
        snd, rcv, path, FlowPopulation.uniform(FlowSpec(), 2), profile,
        RngFactory(1), shards=1, mode="inproc",
    )


def campaign() -> None:
    import repro.experiments.registry  # noqa: F401
    from repro.runner import run_experiments  # noqa: F401
    from repro.runner.cache import source_digest

    source_digest()


if __name__ == "__main__":
    {"sim-flows": sim_flows, "campaign": campaign}[sys.argv[1]]()
