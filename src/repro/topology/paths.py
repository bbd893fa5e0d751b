"""Physical path model: what a virtual connection inherits from the network.

End-system multicast maps a virtual graph of unicast connections onto a
physical network (Section 1).  A :class:`PathModel` is that network:
routers wired by a :class:`~repro.topology.generators.GeneratedTopology`
core (or by hand), end-systems attached by access links, and every link
carrying a bandwidth and a loss rate.  A virtual connection acquires
the bottleneck bandwidth and the composed loss of its shortest physical
path; links degrade over time (Section 2.1's transience) and the
overlay reroutes around them.

Shortest paths break ties by node id, never by the order links were
added, so a seeded run sees the same paths on any platform.
"""

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.topology.generators import GeneratedTopology, TopologyError

__all__ = ["PathCharacteristics", "PathModel", "UNIT_PATH"]


@dataclass(frozen=True)
class PathCharacteristics:
    """End-to-end properties of one virtual connection's physical path."""

    bandwidth: float  # symbols per tick (bottleneck link)
    loss_rate: float  # composite packet loss probability
    hops: int


#: The path of a connection no physical network constrains.
UNIT_PATH = PathCharacteristics(1.0, 0.0, 1)


@dataclass
class _Link:
    bandwidth: float
    loss_rate: float


def _check_loss(loss_rate: float) -> None:
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss rate must lie in [0, 1)")


class PathModel:
    """An undirected physical network with per-link bandwidth and loss."""

    def __init__(self) -> None:
        # node -> neighbour -> the link record both directions share.
        self._adj: Dict[str, Dict[str, _Link]] = {}
        self._hosts: Set[str] = set()

    @classmethod
    def over(cls, core: GeneratedTopology, rng: random.Random) -> "PathModel":
        """Routers ``r0..r{n-1}`` wired as ``core``; each link draws a
        bandwidth in [2, 10) symbols per tick and a loss rate in [0, 2%)."""
        model = cls()
        for u, v in core.edges:
            model.add_link(
                f"r{u}",
                f"r{v}",
                bandwidth=rng.uniform(2.0, 10.0),
                loss_rate=rng.uniform(0.0, 0.02),
            )
        return model

    def add_link(
        self, a: str, b: str, bandwidth: float, loss_rate: float = 0.0
    ) -> None:
        """Add (or overwrite) a physical link."""
        if bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        _check_loss(loss_rate)
        link = _Link(bandwidth, loss_rate)
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link

    def attach_host(
        self, host: str, router: str, bandwidth: float, loss_rate: float = 0.0
    ) -> None:
        """Attach an end-system to a router by an access link."""
        if router not in self._adj:
            raise ValueError(f"unknown router {router!r}")
        self.add_link(host, router, bandwidth, loss_rate)
        self._hosts.add(host)

    def routers(self) -> List[str]:
        """Every node that is not an attached end-system."""
        return [n for n in self._adj if n not in self._hosts]

    def links(self) -> List[Tuple[str, str]]:
        """Every link once, as an ``(a, b)`` pair with ``a < b``."""
        return [(a, b) for a, peers in self._adj.items() for b in peers if a < b]

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """A fewest-hops path; among equals, the one breadth-first search
        finds when it visits neighbours in id order."""
        for node in (src, dst):
            if node not in self._adj:
                raise TopologyError(f"unknown node {node!r}")
        parent = {src: src}
        frontier = deque([src])
        while frontier and dst not in parent:
            node = frontier.popleft()
            for peer in sorted(self._adj[node]):
                if peer not in parent:
                    parent[peer] = node
                    frontier.append(peer)
        if dst not in parent:
            raise TopologyError(f"no path between {src!r} and {dst!r}")
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        return path[::-1]

    def path_characteristics(self, src: str, dst: str) -> PathCharacteristics:
        """Bottleneck bandwidth and composite loss on the shortest path."""
        path = self.shortest_path(src, dst)
        bandwidth = float("inf")
        survive = 1.0
        for u, v in zip(path, path[1:]):
            link = self._adj[u][v]
            bandwidth = min(bandwidth, link.bandwidth)
            survive *= 1.0 - link.loss_rate
        return PathCharacteristics(bandwidth, 1.0 - survive, len(path) - 1)

    def shared_links(self, pair1: Tuple[str, str], pair2: Tuple[str, str]) -> int:
        """Physical links common to two virtual connections' paths.

        Non-zero sharing is the overlay redundancy Section 1 warns about:
        "overlay-based approaches may redundantly map multiple virtual
        paths onto the same network path".
        """
        p1 = self.shortest_path(*pair1)
        p2 = self.shortest_path(*pair2)
        e1 = {frozenset(e) for e in zip(p1, p1[1:])}
        e2 = {frozenset(e) for e in zip(p2, p2[1:])}
        return len(e1 & e2)

    def degrade_link(self, a: str, b: str, loss_rate: float) -> None:
        """Simulate transience: raise a link's loss (Section 2.1)."""
        link = self._adj.get(a, {}).get(b)
        if link is None:
            raise ValueError(f"no link between {a!r} and {b!r}")
        _check_loss(loss_rate)
        link.loss_rate = loss_rate
