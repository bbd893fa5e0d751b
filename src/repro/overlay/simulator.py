"""Event-driven overlay delivery simulation.

The simulator is built on :mod:`repro.sim`: a heap-scheduled
:class:`~repro.sim.engine.EventScheduler` carries every process — the
per-tick delivery pass, latency-delayed packet arrivals, scenario
events (join waves, departures, loss-regime changes) — on one shared
clock.  The legacy tick API survives unchanged because *a tick is just
a periodic event*: ``tick()`` advances the clock one unit, firing the
delivery event plus anything scheduled between ticks.

Each connection carries a pluggable :class:`~repro.sim.links.LinkModel`
deciding its packet budget per window, per-packet loss, and arrival
latency.  The default :class:`~repro.sim.links.ConstantRateLink`
reproduces the historic tick behaviour exactly (one RNG draw per
packet, credit-carried fractional bandwidth), which the tick-parity
regression in ``tests/sim/test_parity.py`` pins.  Heterogeneous links
(jitter, Gilbert-Elliott bursts, bandwidth traces) plug in through
``link_factory`` without touching the delivery loop.

The engine exercises the paper's full loop: encode → sketch → admit →
summarise → informed transfer → adapt.

This is the only packet engine.  Its two control-plane passes do work
proportional to what changed: the strategy refresh rebuilds only
connections with an endpoint that changed and renews the rest (replaying
construction's RNG draws, never re-filtering), and a reconfiguration epoch
(:func:`~repro.overlay.reconfiguration.run_epoch`, the loop the flow
engine runs too) reads only the cards it scans.  Everything computed
from one working set — a receiver's summary, a node's card — is cached
on that set (:meth:`~repro.delivery.working_set.WorkingSet.cached`),
and what a node holds is stored there once: arriving packets are peeled
into the working set itself
(:meth:`~repro.coding.peeler.RecodedPeeler.into`).  The simulator keeps
no per-node artefact, a departure evicts nothing, and no usefulness
estimate outlives the call that asked for it.  At 10k nodes give the
spec a ``reconfig.scan_budget``: a full candidate scan per receiver is
O(N²) however the cards are compared.

The delivery pass and the strategy refresh walk only the connections
into receivers that have not completed: completion is final inside a
simulator (encoded content never goes stale, Section 2.3), so a
receiver's incoming edges leave the pass the moment it completes.  A
window-blocked connection still drains its link credit every tick, but
its transport step scans for timeouts only once one can be due.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.coding.peeler import RecodedPeeler
from repro.coding.symbol import Packet
from repro.delivery.strategies import (
    DEFAULT_DESIRED_MARGIN,
    SenderStrategy,
    make_strategy,
)
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    AdmissionPolicy,
    ReconfigurationPolicy,
    run_epoch,
)
from repro.reconcile import DEFAULT_POLICY, SummaryPolicy
from repro.sim.engine import EventScheduler
from repro.sim.links import ConstantRateLink, LinkModel
from repro.sim.stats import StatsRecorder
from repro.seeding import default_rng
from repro.topology.paths import UNIT_PATH, PathCharacteristics, PathModel
from repro.transport.controller import TransportController, TransportManager

#: Builds a link model for a new connection; receives the physical path
#: characteristics and the endpoint ids.
LinkFactory = Callable[[PathCharacteristics, str, str], LinkModel]


class Connection:
    """A live virtual connection with its sender strategy and link model.

    ``bandwidth`` and ``loss_rate`` mirror the physical path
    characteristics.  While the connection uses its auto-built
    constant-rate link, assigning either re-steers that link (legacy
    callers tweak connections mid-run, e.g. degradation tests);
    installing a custom ``link`` ends the coupling.
    """

    def __init__(
        self,
        sender: OverlayNode,
        receiver: OverlayNode,
        strategy: Optional[SenderStrategy],  # None for sources
        bandwidth: float,
        loss_rate: float,
        established_tick: int,
        link: Optional[LinkModel] = None,
    ):
        self.sender = sender
        self.receiver = receiver
        self.strategy = strategy
        self.established_tick = established_tick
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_useful = 0
        self.stats_name = f"{sender.node_id}->{receiver.node_id}"
        #: True while the delivery pass walks this connection: it was
        #: made into a receiver that has not completed since.
        self.feeding = False
        #: Congestion controller installed by a transport-enabled
        #: simulator (None = historical open-loop sending).
        self.transport: Optional[TransportController] = None
        self._bandwidth = bandwidth
        self._loss_rate = loss_rate
        self._auto_link = link is None
        self._link = (
            link if link is not None else ConstantRateLink(bandwidth, loss_rate)
        )

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        self._bandwidth = value
        if self._auto_link:
            self._link.rate = value

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        self._loss_rate = value
        if self._auto_link:
            self._link.loss_rate = value

    @property
    def link(self) -> LinkModel:
        return self._link

    @link.setter
    def link(self, value: LinkModel) -> None:
        self._link = value
        self._auto_link = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Connection({self.sender.node_id}->{self.receiver.node_id}, "
            f"bw={self._bandwidth:g}, loss={self._loss_rate:g})"
        )


@dataclass
class SimulationReport:
    """Aggregate outcome of an overlay simulation run.

    Packet counters are **cumulative over the whole run**: a packet sent
    on a connection that was later dropped by rewiring or churn still
    counts, and ``completion_ticks`` retains nodes that completed and
    then departed.  (Before PR 6 these counters summed live connections
    only, silently erasing history on every disconnect.)
    """

    ticks: int
    all_complete: bool
    completion_ticks: Dict[str, Optional[int]]
    packets_sent: int
    packets_lost: int
    packets_useful: int
    reconfigurations: int
    #: Reconfiguration epochs executed (0 when no rewiring policy ran).
    reconfig_epochs: int = 0
    #: Honest control-plane cost of the epochs: every candidate card a
    #: receiver scanned, priced at the summary's own ``wire_bytes``.
    control_bytes: int = 0

    @property
    def efficiency(self) -> float:
        """Useful packets / delivered packets (1.0 = no redundancy)."""
        delivered = self.packets_sent - self.packets_lost
        return self.packets_useful / delivered if delivered else 0.0


class OverlaySimulator:
    """Drives nodes, connections, and adaptation policies on an event clock.

    The periodic strategy refresh is *incremental*: a connection whose
    sender and receiver working sets are both unchanged since its
    strategy was built (same set object, same version stamp) is not
    rebuilt but renewed (:meth:`~repro.delivery.strategies.
    SenderStrategy.renew`): a rebuild from identical inputs re-derives
    everything but construction's RNG draws (Recode/BF domain
    truncation), and renewing replays exactly those, so the shared
    stream advances as the rebuild would advance it.

    The simulator owns the overlay's edges: ``connections`` maps
    ``(sender, receiver)`` to the live :class:`Connection`, and a
    per-receiver sender index answers "who feeds this node" in the order
    the edges were made (an edge dropped and re-made moves to the end) —
    the order every rewiring decision, and so the RNG stream, follows.

    Completion is final.  The delivery pass and the strategy refresh
    walk only the connections into receivers that have not completed,
    in connection-map order: a connection joins that walk when it is
    made into an incomplete receiver, and a receiver's incoming edges
    leave it when :meth:`_arrive` sees the receiver complete (a
    receiver added complete never joins).  A receiver whose working set
    is later replaced by a smaller one is not fed again and keeps its
    ``completed_at_tick``.  Each visit still reads ``is_complete``: a
    receiver can complete partway through a pass.

    Args:
        admission/rewiring: peering policies (Section 4).
        strategy_name: sender strategy legend name (Figures 5-8).
        summary_policy: the :class:`~repro.reconcile.SummaryPolicy` the
            per-connection strategies reconcile through (default: the
            paper's 8-bits-per-element Bloom filter).
        reconfigure_every / refresh_every: control-plane periods, in
            ticks (finite and >= 0; 0 = off).  Reconfiguration epochs
            are their own periodic event on the shared scheduler (so
            they compose with churn, scenario events, and
            ``remove_node``), scheduled right after the delivery event
            at each epoch boundary — order-identical to the historical
            end-of-tick pass.
        reconfig_jitter: each epoch's rewiring pass is deferred by a
            uniform draw in ``[0, jitter)`` simulated time units (finite
            and >= 0; 0 = fire exactly on the boundary, the
            deterministic legacy cadence).
        reconfig_budget: candidate-scan budget per receiver per epoch
            (0 = scan every node); budgeted epochs sample the candidate
            list from the simulator RNG.
        rng: the single randomness source — seeded runs replay exactly.
        paths: optional :class:`~repro.topology.paths.PathModel` the
            overlay is mapped onto; each connection takes its shortest
            physical path's characteristics.  ``None`` = every
            connection is the unit path (bandwidth 1, no loss).
        link_factory: builds a :class:`LinkModel` per connection from
            its path characteristics; defaults to a constant-rate link
            matching the physical path (legacy behaviour).
        stats: optional :class:`StatsRecorder` capturing per-connection
            and per-node time series (zero overhead when omitted).
        scheduler: an external event clock to share; a private one is
            created by default.
        transport: optional :class:`~repro.transport.controller.
            TransportManager`; when set, every connection gets a
            congestion controller that caps its per-tick sends (cwnd +
            pacing) and learns from acks/timeouts.  ``None`` keeps the
            historical open-loop behaviour bit-identically.
    """

    def __init__(
        self,
        admission: Optional[AdmissionPolicy] = None,
        rewiring: Optional[ReconfigurationPolicy] = None,
        strategy_name: str = "Recode/BF",
        summary_policy: SummaryPolicy = DEFAULT_POLICY,
        reconfigure_every: int = 20,
        refresh_every: int = 20,
        reconfig_jitter: float = 0.0,
        reconfig_budget: int = 0,
        rng: Optional[random.Random] = None,
        paths: Optional[PathModel] = None,
        link_factory: Optional[LinkFactory] = None,
        stats: Optional[StatsRecorder] = None,
        scheduler: Optional[EventScheduler] = None,
        transport: Optional[TransportManager] = None,
    ):
        # A negative or NaN period would refresh every tick (t % -1 == 0)
        # or never; 0 is the one way to switch a pass off.
        for arg, value in (
            ("reconfigure_every", reconfigure_every),
            ("refresh_every", refresh_every),
            ("reconfig_jitter", reconfig_jitter),
        ):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{arg} must be finite and >= 0, got {value!r}")
        # random.sample needs an int: 2.5 would fail at the first epoch,
        # True would scan one candidate and NaN every node.
        if (
            isinstance(reconfig_budget, bool)
            or not isinstance(reconfig_budget, int)
            or reconfig_budget < 0
        ):
            raise ValueError(
                f"reconfig_budget must be an int >= 0, got {reconfig_budget!r}"
            )
        self.admission = admission
        self.rewiring = rewiring
        self.strategy_name = strategy_name
        self.summary_policy = summary_policy
        self.reconfigure_every = reconfigure_every
        self.refresh_every = refresh_every
        self.reconfig_jitter = reconfig_jitter
        self.reconfig_budget = reconfig_budget
        self.rng = rng if rng is not None else default_rng("overlay.simulator")
        self.paths = paths
        self.link_factory = link_factory
        self.stats = stats
        self.scheduler = scheduler or EventScheduler()
        self.transport = transport
        self.nodes: Dict[str, OverlayNode] = {}
        self.connections: Dict[tuple, Connection] = {}
        # receiver id -> its sender ids, in edge-creation order.
        self._senders: Dict[str, Dict[str, None]] = {}
        self.tick_count = 0
        self.reconfigurations = 0
        self.reconfig_epochs = 0
        self.control_bytes = 0
        # Cumulative packet totals owned by the simulator.  Per-
        # connection counters die with their Connection on disconnect
        # or churn (and a latency-delayed packet can land on an
        # already-dropped connection), so every send/loss/useful event
        # also bumps these — report() reads them, never the live
        # connection map.
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_useful = 0
        # node_id -> completed_at_tick for nodes that departed; keeps
        # completion history visible after remove_node().
        self._completion_tombstones: Dict[str, Optional[int]] = {}
        # The legacy tick loop as one periodic event; a shared clock
        # may already read past zero, so ticks count from its epoch.
        self._epoch = self.scheduler.now
        self._tick_handle = self.scheduler.schedule_every(
            1.0, self._on_tick, first=self._epoch + 1.0
        )
        # Reconfiguration epochs ride the same heap.  Scheduled *after*
        # the tick handle, an epoch boundary that coincides with a tick
        # fires right after that tick's delivery pass (FIFO at equal
        # times) — exactly where the historical end-of-tick pass ran.
        self._reconfig_handle = None
        if self.reconfigure_every > 0:
            self._reconfig_handle = self.scheduler.schedule_every(
                float(self.reconfigure_every),
                self._on_reconfig_epoch,
                first=self._epoch + float(self.reconfigure_every),
            )

    # -- membership ----------------------------------------------------------

    def add_node(self, node: OverlayNode) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.joined_at_tick = self.tick_count
        node.peeler = None  # a (re)join starts with nothing pending
        self.nodes[node.node_id] = node
        if self.stats is not None:
            self.stats.gauge(
                self.scheduler.now, node.node_id, "symbols", len(node.working_set)
            )

    def remove_node(self, node_id: str) -> Optional[OverlayNode]:
        """Detach a node and all its connections (departure/failure).

        Returns the node object (its working set intact — encoded
        content never goes stale, Section 2.3) or None if unknown.
        """
        node = self.nodes.pop(node_id, None)
        if node is None:
            return None
        if not node.is_source:
            self._completion_tombstones[node_id] = node.completed_at_tick
        for sender in self.senders_of(node_id):
            self.disconnect(sender, node_id)
        # Outgoing edges have no index of their own: departures are rare
        # next to rewiring, which only ever asks for a node's senders.
        for sender, receiver in list(self.connections):
            if sender == node_id:
                self.disconnect(node_id, receiver)
        self._senders.pop(node_id, None)
        return node

    def senders_of(self, receiver_id: str) -> List[str]:
        """Ids of the nodes sending to ``receiver_id``, oldest edge first."""
        return list(self._senders.get(receiver_id, ()))

    def connect(self, sender_id: str, receiver_id: str) -> bool:
        """Establish a connection, subject to admission control.

        Returns True if the connection was admitted and created.
        """
        if sender_id == receiver_id:
            raise ValueError("a peer cannot connect to itself")
        sender = self.nodes[sender_id]
        receiver = self.nodes[receiver_id]
        if receiver.is_source:
            return False
        if (sender_id, receiver_id) in self.connections:
            return False
        if self.admission is not None and not self.admission.admit(receiver, sender):
            return False
        chars = (
            self.paths.path_characteristics(sender_id, receiver_id)
            if self.paths is not None
            else UNIT_PATH
        )
        strategy = self._build_strategy(sender, receiver)
        link = (
            self.link_factory(chars, sender_id, receiver_id)
            if self.link_factory is not None
            else None
        )
        conn = Connection(
            sender=sender,
            receiver=receiver,
            strategy=strategy,
            bandwidth=chars.bandwidth,
            loss_rate=chars.loss_rate,
            established_tick=self.tick_count,
            link=link,
        )
        if self.transport is not None:
            # A new connection is a new flow: fresh congestion state.
            conn.transport = self.transport.attach(conn.stats_name)
        self.connections[(sender_id, receiver_id)] = conn
        self._senders.setdefault(receiver_id, {})[sender_id] = None
        conn.feeding = receiver.completed_at_tick is None and not receiver.is_complete
        return True

    def disconnect(self, sender_id: str, receiver_id: str) -> None:
        if self.connections.pop((sender_id, receiver_id), None) is not None:
            del self._senders[receiver_id][sender_id]

    # -- simulation ---------------------------------------------------------------

    def tick(self) -> None:
        """Advance one time unit: fire the delivery event plus anything
        scheduled between ticks (arrivals, scenario events)."""
        self.scheduler.run_until(self._epoch + self.tick_count + 1.0)

    def _on_tick(self) -> None:
        """The periodic delivery/adaptation pass (the legacy tick body)."""
        self.tick_count += 1
        scheduler, stats = self.scheduler, self.stats
        now = scheduler.now
        for conn in self._feeding_connections():
            receiver = conn.receiver
            if receiver.is_complete:
                continue
            if not conn.sender.is_source and conn.strategy is None:
                continue  # sender has nothing to offer yet
            link = conn.link
            budget = link.packet_budget(now - 1.0, now)
            ctrl = conn.transport
            if ctrl is not None:
                budget = ctrl.allowance(now, budget)
            for _ in range(budget):
                packet = self._compose(conn)
                conn.packets_sent += 1
                self.packets_sent += 1
                if stats is not None:
                    stats.count(now, conn.stats_name, "sent")
                delay = link.transmit(self.rng)
                if ctrl is not None:
                    ctrl.on_transmit(scheduler, delay, link.latency)
                if delay is None:  # wire loss or tail drop
                    conn.packets_lost += 1
                    self.packets_lost += 1
                    if stats is not None:
                        stats.count(now, conn.stats_name, "lost")
                    continue
                if delay <= 0.0:
                    self._arrive(conn, packet)
                else:
                    scheduler.schedule(
                        delay, lambda c=conn, p=packet: self._arrive(c, p)
                    )
                if receiver.is_complete:
                    break
        if self.refresh_every and self.tick_count % self.refresh_every == 0:
            self._refresh_strategies()

    def run(self, max_ticks: int = 10_000) -> SimulationReport:
        """Tick until every non-source node completes (or the cap hits).

        Completion also requires the heap to hold no one-shot events:
        a pending join wave, departure, or in-flight arrival is
        scheduled work the simulation has not finished — early
        completion of the current membership must not skip it.
        """
        while self.tick_count < max_ticks and not (
            self._all_complete() and self.scheduler.pending_oneshot == 0
        ):
            self.tick()
        return self.report()

    def report(self) -> SimulationReport:
        completion: Dict[str, Optional[int]] = dict(self._completion_tombstones)
        completion.update(
            (nid, n.completed_at_tick)
            for nid, n in self.nodes.items()
            if not n.is_source
        )
        return SimulationReport(
            ticks=self.tick_count,
            all_complete=self._all_complete(),
            completion_ticks=completion,
            packets_sent=self.packets_sent,
            packets_lost=self.packets_lost,
            packets_useful=self.packets_useful,
            reconfigurations=self.reconfigurations,
            reconfig_epochs=self.reconfig_epochs,
            control_bytes=self.control_bytes,
        )

    # -- internals -------------------------------------------------------------------

    def _all_complete(self) -> bool:
        return all(n.is_complete for n in self.nodes.values())

    def _feeding_connections(self) -> List[Connection]:
        """The connections a delivery pass or refresh walks: those into
        receivers that have not completed, in connection-map order.

        The index is the ``feeding`` flag on each connection, so the map
        keeps the order and nothing else holds a dropped connection; one
        flag test per edge costs far less than a visit, and a second
        ordered structure would cost memory at 10k nodes.
        """
        return [conn for conn in self.connections.values() if conn.feeding]

    def _build_strategy(
        self, sender: OverlayNode, receiver: OverlayNode
    ) -> Optional[SenderStrategy]:
        """Strategy for a partial sender; sources mint fresh ids instead.

        A receiver's summary is the same for all its senders: an
        informed strategy reads it from the receiver's working set,
        which keeps one per version however many connections consult it.
        """
        if sender.is_source:
            return None
        if len(sender.working_set) == 0:
            return None
        deficit = max(1, receiver.target - len(receiver.working_set))
        slots = max(1, receiver.max_connections)
        strategy = make_strategy(
            self.strategy_name,
            sender.working_set,
            receiver.working_set,
            self.rng,
            symbols_desired=int(
                math.ceil(deficit / slots * DEFAULT_DESIRED_MARGIN)
            ),
            summary_policy=self.summary_policy,
        )
        # Endpoint stamp: a later refresh may skip the rebuild while
        # both working sets are the same *objects* at the same version
        # (object identity guards node-id reuse across churn).
        strategy._endpoint_stamp = (
            sender.working_set,
            sender.working_set.version,
            receiver.working_set,
            receiver.working_set.version,
        )
        return strategy

    def _strategy_fresh(self, conn: Connection) -> bool:
        """True when both of ``conn``'s endpoint stamps are current.

        A strategy is a deterministic function of (sender set, receiver
        set, receiver target/slots, strategy name, policy) and the RNG
        draws its construction made; with both sets version-unchanged,
        :meth:`~repro.delivery.strategies.SenderStrategy.renew` — which
        replays those draws — leaves it exactly what a rebuild would.
        """
        stamp = getattr(conn.strategy, "_endpoint_stamp", None)
        if stamp is None:
            return False
        sender_ws, sender_v, receiver_ws, receiver_v = stamp
        return (
            sender_ws is conn.sender.working_set
            and sender_v == sender_ws.version
            and receiver_ws is conn.receiver.working_set
            and receiver_v == receiver_ws.version
        )

    def _refresh_strategies(self) -> None:
        """Periodic control-message exchange (Section 6.1).

        "In a full system, these estimates as well as other messages,
        including sketches, summaries or other control information, would
        be passed periodically."  Rebuilding a connection's strategy
        refreshes both the sender's recoding domain (new content becomes
        shareable) and the receiver's summary (delivered content stops
        being offered) — so connections whose endpoints are both
        unchanged since the last build are renewed in place (nothing to
        re-filter; only construction's RNG draws are replayed), and
        every connection into a receiver reads the one summary its
        working set keeps current.
        Connection iteration order, and with it the RNG stream strategy
        construction and renewal consume, is that of the connection map;
        connections into completed receivers are not walked.
        """
        for conn in self._feeding_connections():
            if conn.sender.is_source or conn.receiver.is_complete:
                continue
            if self._strategy_fresh(conn):
                conn.strategy.renew()
                continue
            conn.strategy = self._build_strategy(conn.sender, conn.receiver)
            if conn.strategy is None:
                self.disconnect(conn.sender.node_id, conn.receiver.node_id)

    def _compose(self, conn: Connection) -> Packet:
        if conn.sender.is_source:
            return Packet.encoded(conn.sender.mint_fresh_id())
        assert conn.strategy is not None
        return conn.strategy.next_packet()

    def _arrive(self, conn: Connection, packet: Packet) -> None:
        """A packet reaches its receiver (inline or latency-delayed)."""
        receiver = conn.receiver
        if self.nodes.get(receiver.node_id) is not receiver:
            return  # receiver departed while the packet was in flight
        if receiver.is_complete:
            return  # late arrival after completion: nothing to add
        if self._deliver(receiver, packet):
            # The simulator-level total owns this increment: the
            # connection may already have been dropped mid-flight, in
            # which case its own counter is a dead object's field.
            conn.packets_useful += 1
            self.packets_useful += 1
            if self.stats is not None:
                now = self.scheduler.now
                self.stats.count(now, conn.stats_name, "useful")
                self.stats.gauge(
                    now, receiver.node_id, "symbols", len(receiver.working_set)
                )
        if receiver.is_complete and receiver.completed_at_tick is None:
            receiver.completed_at_tick = self.tick_count
            # Completion is final: the receiver's edges leave the pass.
            rid = receiver.node_id
            for sender_id in self._senders.get(rid, ()):
                self.connections[(sender_id, rid)].feeding = False

    def _deliver(self, receiver: OverlayNode, packet: Packet) -> bool:
        """Feed a packet through the receiver's peeler, which peels into
        its working set; True if useful."""
        peeler = receiver.peeler
        if peeler is None or peeler.known is not receiver.working_set:
            # First arrival, or ``working_set`` was assigned a new set:
            # blends pending over the old one go with it.
            peeler = receiver.peeler = RecodedPeeler.into(receiver.working_set)
        return bool(peeler.receive(packet))

    def _on_reconfig_epoch(self) -> None:
        """One epoch boundary: run (or jitter-defer) the rewiring pass."""
        if self.rewiring is None:
            return  # no policy installed (yet) — boundaries are free
        # A tick due at this exact timestamp must deliver first (the
        # historical end-of-tick ordering).  The periodic epoch handle
        # keeps its construction-time heap sequence until it fires, so
        # it can pop ahead of the tick; requeueing at the same time
        # takes a fresh sequence number and lands behind it.
        if self.tick_count < math.floor(self.scheduler.now - self._epoch + 1e-9):
            self.scheduler.schedule(0.0, self._start_epoch)
            return
        self._start_epoch()

    def _start_epoch(self) -> None:
        if self.rewiring is None:
            return
        if self.reconfig_jitter > 0:
            delay = self.rng.uniform(0.0, self.reconfig_jitter)
            if delay > 0.0:
                self.scheduler.schedule(delay, self._reconfigure)
                return
        self._reconfigure()

    def _reconfigure(self) -> None:
        """One epoch (:func:`~repro.overlay.reconfiguration.run_epoch`)
        over the current membership: every incomplete receiver scans the
        swarm and its decision is applied before the next one samples."""
        if self.rewiring is None:
            return  # policy removed between scheduling and firing
        self.reconfig_epochs += 1
        nodes = self.nodes
        all_nodes = list(nodes.values())
        for receiver, control_bytes, drops, adds in run_epoch(
            self.rewiring,
            self.rng,
            self.reconfig_budget,
            (n for n in all_nodes if not (n.is_source or n.is_complete)),
            lambda receiver: all_nodes,
            lambda receiver: [
                nodes[s] for s in self._senders.get(receiver.node_id, ())
            ],
        ):
            self.control_bytes += control_bytes
            rid = receiver.node_id
            for d in drops:
                self.disconnect(d.node_id, rid)
            for a in adds:
                if self.connect(a.node_id, rid):
                    self.reconfigurations += 1
