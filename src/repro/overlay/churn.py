"""Node churn and link transience injection (paper Section 2.1).

"Routers, links, and end-systems may fail, or their performance may
fluctuate" and "receivers may open and close connections or leave and
rejoin the infrastructure at arbitrary times."  A :class:`ChurnProcess`
drives those events against an :class:`~repro.overlay.simulator.
OverlaySimulator`, and the encoded-content design is what makes them
survivable: a rejoining node's working set is still valid (time-
invariant streams), and no per-connection state needs reconstruction.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.overlay.node import OverlayNode
from repro.overlay.simulator import OverlaySimulator
from repro.seeding import choice, default_rng

#: Path loss above which :meth:`ChurnProcess.sim_reroute` drops a connection.
REROUTE_LOSS_THRESHOLD = 0.15


@dataclass
class ChurnEventLog:
    """What the churn process did, for assertions and reporting."""

    departures: List[tuple] = field(default_factory=list)  # (tick, node)
    rejoins: List[tuple] = field(default_factory=list)
    link_degradations: List[tuple] = field(default_factory=list)


class ChurnProcess:
    """Random departures/rejoins of peers and link-quality fluctuation.

    Args:
        simulator: the overlay simulation to disturb.
        leave_probability: per-eligible-node chance of departing at each
            churn step.
        rejoin_after: ticks a departed node stays away before rejoining
            (its working set is retained — encoded symbols never go
            stale, Section 2.3's time-invariance).
        degrade_probability: per-step chance of degrading one physical
            link (only meaningful when the simulator has a path model).
        protect: node ids that never churn (e.g. the only source).
    """

    def __init__(
        self,
        simulator: OverlaySimulator,
        leave_probability: float = 0.05,
        rejoin_after: int = 30,
        degrade_probability: float = 0.0,
        protect: Optional[Set[str]] = None,
        rng: Optional[random.Random] = None,
    ):
        if not 0.0 <= leave_probability <= 1.0:
            raise ValueError("leave probability must lie in [0, 1]")
        if rejoin_after < 1:
            raise ValueError("rejoin delay must be positive")
        self.sim = simulator
        self.leave_probability = leave_probability
        self.rejoin_after = rejoin_after
        self.degrade_probability = degrade_probability
        self.protect = set(protect or ())
        self.rng = rng if rng is not None else default_rng("overlay.churn")
        self.log = ChurnEventLog()
        self._away: Dict[str, tuple] = {}  # node_id -> (node, rejoin_tick)

    @property
    def departed(self) -> Set[str]:
        """Ids of nodes currently away."""
        return set(self._away)

    def step(self) -> None:
        """One churn step: process rejoins, then roll for departures."""
        tick = self.sim.tick_count
        self._process_rejoins(tick)
        self._roll_departures(tick)
        self._roll_link_degradation(tick)

    # -- internals ----------------------------------------------------------

    def _process_rejoins(self, tick: int) -> None:
        for node_id, (node, due) in list(self._away.items()):
            if tick >= due:
                del self._away[node_id]
                self.sim.add_node(node)
                self.log.rejoins.append((tick, node_id))
                # Stateless rejoin: reconnect to any live source; the
                # rewiring policy will find better peers organically.
                sources = [
                    n.node_id for n in self.sim.nodes.values() if n.is_source
                ]
                if sources and not node.is_complete:
                    self.sim.connect(choice(self.rng, sources), node_id)

    def _roll_departures(self, tick: int) -> None:
        candidates = [
            n
            for n in self.sim.nodes.values()
            if n.node_id not in self.protect
            and not n.is_source
            and not n.is_complete
        ]
        for node in candidates:
            if self.rng.random() < self.leave_probability:
                self._depart(node, tick)

    def _depart(self, node: OverlayNode, tick: int) -> None:
        # The simulator detaches the node; we keep the node object (and
        # its working set) for the rejoin — no state handoff required.
        node_id = node.node_id
        self.sim.remove_node(node_id)
        self._away[node_id] = (node, tick + self.rejoin_after)
        self.log.departures.append((tick, node_id))

    def _roll_link_degradation(self, tick: int) -> None:
        paths = self.sim.paths
        if paths is None or self.degrade_probability <= 0:
            return
        if self.rng.random() < self.degrade_probability:
            links = paths.links()
            if not links:
                return
            a, b = choice(self.rng, links)
            loss = self.rng.uniform(0.2, 0.6)
            paths.degrade_link(a, b, loss)
            self.log.link_degradations.append((tick, (a, b), loss))
            # Adaptive response: drop overlay connections over bad paths.
            self.sim_reroute()

    def sim_reroute(self) -> None:
        """Drop overlay connections whose paths degraded past tolerance.

        Models Section 2.1's "detect and avoid congested or temporarily
        unstable areas": the simulator's rewiring policy replaces dropped
        connections with better-suited peers, and the survivors carry
        their path's current bandwidth and loss.
        """
        paths = self.sim.paths
        if paths is None:
            return
        for (sender_id, receiver_id), conn in list(self.sim.connections.items()):
            chars = paths.path_characteristics(sender_id, receiver_id)
            if chars.loss_rate > REROUTE_LOSS_THRESHOLD:
                self.sim.disconnect(sender_id, receiver_id)
            else:
                conn.bandwidth = chars.bandwidth
                conn.loss_rate = chars.loss_rate


def run_with_churn(
    simulator: OverlaySimulator,
    churn: ChurnProcess,
    max_ticks: int = 10_000,
    churn_every: int = 5,
):
    """Drive a simulation to completion under churn.

    Completion means every node *currently present* (and every departed
    node, once back) has the file; the loop therefore runs until all
    known nodes are complete and nobody is away.
    """
    while simulator.tick_count < max_ticks:
        live_complete = all(n.is_complete for n in simulator.nodes.values())
        if live_complete and not churn.departed:
            break
        simulator.tick()
        if simulator.tick_count % churn_every == 0:
            churn.step()
    return simulator.report()
