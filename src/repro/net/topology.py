"""Testbed topology graphs (dict adjacency, Dijkstra routing).

The fluid simulator only needs the per-path summary
(:class:`repro.net.path.NetworkPath`), but the testbeds are documented
as full graphs so that paths are *derived* rather than hand-entered:
nodes are hosts/switches, edges carry link attributes, and
:meth:`Topology.path_between` computes the bottleneck, the RTT (sum of
edge delays, both directions), and the minimum shared-buffer switch
along the way — mirroring Figs. 1 and 2 of the paper.  The graphs have
a handful of nodes, so plain dicts and a ``heapq`` Dijkstra route them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.core import units
from repro.core.errors import ConfigurationError
from repro.net.background import BackgroundTraffic
from repro.net.link import Link
from repro.net.path import NetworkPath
from repro.net.switch import SwitchModel

__all__ = ["Topology"]


@dataclass
class Topology:
    """A named testbed graph: node attributes and a symmetric adjacency."""

    name: str
    #: ``{node: {"kind": "host" | "switch", "model": SwitchModel}}``.
    nodes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: ``{a: {b: edge}}`` with ``adj[a][b] is adj[b][a]``; an edge holds
    #: ``rate`` and ``admin`` (bytes/s, admin may be None) and ``delay`` (s).
    adj: dict[str, dict[str, dict[str, Any]]] = field(default_factory=dict)

    def add_host(self, name: str) -> None:
        self.nodes[name] = {"kind": "host"}
        self.adj.setdefault(name, {})

    def add_switch(self, name: str, model: SwitchModel) -> None:
        self.nodes[name] = {"kind": "switch", "model": model}
        self.adj.setdefault(name, {})

    def add_link(
        self,
        a: str,
        b: str,
        gbps_value: float,
        delay_ms: float = 0.0,
        admin_limit_gbps: float | None = None,
    ) -> None:
        for node in (a, b):
            if node not in self.nodes:
                raise ConfigurationError(f"unknown node {node!r} in {self.name}")
        self.adj[a][b] = self.adj[b][a] = {
            "rate": units.gbps(gbps_value),
            "delay": units.ms(delay_ms),
            "admin": units.gbps(admin_limit_gbps) if admin_limit_gbps is not None else None,
        }

    def route(self, src: str, dst: str) -> list[str]:
        """Nodes of the lowest-delay route from ``src`` to ``dst``, both included.

        Dijkstra over ``adj``; equal-delay candidates resolve to the one
        reached first, in link insertion order.
        """
        if src not in self.nodes or dst not in self.nodes:
            raise ConfigurationError(f"no route {src!r}->{dst!r} in {self.name}")
        if src == dst:
            raise ConfigurationError("src and dst are the same node")
        dist = {src: 0.0}
        prev: dict[str, str] = {}
        order = itertools.count()
        heap = [(0.0, next(order), src)]
        while heap:
            d, _, node = heapq.heappop(heap)
            if node == dst:
                route = [dst]
                while route[-1] != src:
                    route.append(prev[route[-1]])
                return route[::-1]
            if d > dist[node]:
                continue  # a stale entry: node was reached cheaper since
            for nbr, edge in self.adj[node].items():
                nd = d + edge["delay"]
                if nbr not in dist or nd < dist[nbr]:
                    dist[nbr] = nd
                    prev[nbr] = node
                    heapq.heappush(heap, (nd, next(order), nbr))
        raise ConfigurationError(f"no route {src!r}->{dst!r} in {self.name}")

    # ------------------------------------------------------------------

    def path_between(
        self,
        src: str,
        dst: str,
        name: str | None = None,
        background: BackgroundTraffic | None = None,
        flow_control: bool = False,
    ) -> NetworkPath:
        """Derive the NetworkPath along the shortest (by delay) route."""
        route = self.route(src, dst)
        edges = [self.adj[a][b] for a, b in zip(route, route[1:])]

        one_way_delay = sum(e["delay"] for e in edges)
        bottleneck_rate = min(e["rate"] for e in edges)
        admins = [e["admin"] for e in edges if e["admin"] is not None]
        admin = min(admins) if admins else None

        # The binding switch: smallest shared buffer among transit switches.
        transit_switches = [
            self.nodes[n]["model"] for n in route[1:-1] if self.nodes[n]["kind"] == "switch"
        ]
        if transit_switches:
            switch = min(transit_switches, key=lambda s: s.shared_buffer_bytes)
        else:
            switch = SwitchModel.edgecore_as9716()

        link = Link(
            name=name or f"{src}->{dst}",
            rate_bytes_per_sec=bottleneck_rate,
            delay_sec=one_way_delay,
            admin_limit_bytes_per_sec=admin,
        )
        return NetworkPath(
            name=name or f"{src}->{dst}",
            bottleneck=link,
            rtt_sec=2.0 * one_way_delay,
            switch=switch,
            background=background if background is not None else BackgroundTraffic.none(),
            flow_control=flow_control,
        )

    @property
    def hosts(self) -> list[str]:
        return [n for n, d in self.nodes.items() if d["kind"] == "host"]

    @property
    def switches(self) -> list[str]:
        return [n for n, d in self.nodes.items() if d["kind"] == "switch"]
