"""Event-driven overlay delivery simulation.

The simulator is built on :mod:`repro.sim`: a heap-scheduled
:class:`~repro.sim.engine.EventScheduler` carries every process — the
per-tick delivery pass, latency-delayed packet arrivals, scenario
events (join waves, departures, loss-regime changes) — on one shared
clock.  The legacy tick API survives unchanged because *a tick is just
a periodic event*: ``tick()`` advances the clock one unit, firing the
delivery event plus anything scheduled between ticks.

Each connection carries a :class:`~repro.sim.links.ConstantRateLink`
deciding its packet budget per window, per-packet loss, and arrival
delay.  The default one (:func:`default_link`, over the physical path)
reproduces the historic tick behaviour exactly (one RNG draw per
packet, credit-carried fractional bandwidth), which the tick-parity
regression in ``tests/sim/test_parity.py`` pins.  Heterogeneous links
(jitter, Gilbert-Elliott bursts, a shared bottleneck queue) plug in
through ``link_factory`` without touching the delivery loop.  The
simulator's cumulative totals and the stats series are the packet
counts; a connection keeps none of its own.

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
estimate outlives the epoch decision that made it (admission reads the
decision's adds' utilities while applying it).  At 10k nodes give the
spec a ``reconfig.scan_budget``: a full candidate scan per receiver is
O(N²) however the cards are compared.

The delivery pass and the strategy refresh walk only the connections
into receivers that have not completed: completion is final inside a
simulator (encoded content never goes stale, Section 2.3), so a
receiver's incoming edges leave the pass the moment it completes.
Completion is an event, not a poll: a node's set grows here only when
it joins and when an arrival is useful, so those are the places the
simulator asks whether it is complete; the pass, the refresh and
``run()`` read what the event left (each edge's ``feeding`` flag, the
node's ``completed_at_tick``, the members still incomplete).  Each visit is
one step on the link (:meth:`~repro.sim.links.ConstantRateLink.
send_budget`): the credit step and, under a congestion controller, its
window cap, with the timeout scan only once one can be due.
"""

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Set

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
    EpochTable,
    ReconfigurationPolicy,
    run_epoch,
)
from repro.reconcile import DEFAULT_POLICY, SummaryPolicy
from repro.sim.engine import EventScheduler
from repro.sim.links import ConstantRateLink
from repro.sim.stats import StatsRecorder
from repro.topology.paths import UNIT_PATH, PathCharacteristics, PathModel
from repro.transport.controller import TransportController, TransportManager

#: Builds the link of a new connection; receives the physical path
#: characteristics and the endpoint ids.
LinkFactory = Callable[[PathCharacteristics, str, str], ConstantRateLink]


def default_link(
    chars: PathCharacteristics, sender_id: str, receiver_id: str
) -> ConstantRateLink:
    """The link a connection gets when no factory (or rule) names one:
    constant rate and loss of its physical path."""
    return ConstantRateLink(chars.bandwidth, chars.loss_rate)


class Connection:
    """A live virtual connection with its sender strategy and link.

    The ``link`` is what delivers; its ``rate`` / ``loss_rate`` are the
    connection's path characteristics.
    """

    def __init__(
        self,
        sender: OverlayNode,
        receiver: OverlayNode,
        strategy: Optional[SenderStrategy],  # None for sources
        link: ConstantRateLink,
    ):
        self.sender = sender
        self.receiver = receiver
        self.strategy = strategy
        self.link = link
        self.stats_name = f"{sender.node_id}->{receiver.node_id}"
        #: True while the delivery pass walks this connection: it was
        #: made into a receiver that has not completed since.
        self.feeding = False
        #: Congestion controller installed by a transport-enabled
        #: simulator (None = historical open-loop sending).
        self.transport: Optional[TransportController] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Connection({self.sender.node_id}->{self.receiver.node_id}, "
            f"bw={self.link.rate:g}, loss={self.link.loss_rate:g})"
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
    in connection-map order (an index kept beside the connection map,
    costing one dict entry per feeding connection): a connection joins
    that walk when it is made into an incomplete receiver, and a
    receiver's incoming edges leave it when the receiver completes (a
    receiver added complete never joins).  A receiver whose working set
    is later replaced by a smaller one is not fed again and keeps its
    ``completed_at_tick``.  Completion is an event: :meth:`_settle`
    reads ``is_complete`` when a node joins and after each useful
    arrival — nothing else grows a set inside a simulator — and when a
    member it waits on completes, stamps ``completed_at_tick``, clears
    ``feeding`` on every edge into it (including edges later in a pass
    already under way) and stops ``run()`` waiting on it.  A set
    assigned from outside is looked at when the next useful packet
    reaches it.

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
        link_factory: builds the :class:`~repro.sim.links.ConstantRateLink`
            of each connection from its path characteristics; defaults
            to :func:`default_link` (legacy behaviour).
        stats: optional :class:`StatsRecorder` capturing per-connection
            and per-node time series (zero overhead when omitted).
        scheduler: an external event clock to share; a private one is
            created by default.
        transport: optional :class:`~repro.transport.controller.
            TransportManager`; when set, every connection gets a
            congestion controller that caps its per-tick sends (cwnd)
            and learns from acks/timeouts.  ``None`` keeps the
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
        *,
        rng: random.Random,
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
        self.rng = rng
        self.paths = paths
        self.link_factory = link_factory or default_link
        self.stats = stats
        self.scheduler = scheduler or EventScheduler()
        self.transport = transport
        self.nodes: Dict[str, OverlayNode] = {}
        self.connections: Dict[tuple, Connection] = {}
        # receiver id -> its sender ids, in edge-creation order.
        self._senders: Dict[str, Dict[str, None]] = {}
        # The connections whose ``feeding`` flag is set, in
        # connection-map order (an edge enters both maps when it is
        # made, and leaves this one for good when it stops feeding).
        self._feeding: Dict[tuple, Connection] = {}
        # Ids of members still to complete: what run() waits on.
        self._incomplete: Set[str] = set()
        self.tick_count = 0
        self.reconfigurations = 0
        self.reconfig_epochs = 0
        self.control_bytes = 0
        # Cumulative packet totals owned by the simulator: a connection
        # dies on disconnect or churn (and a latency-delayed packet can
        # land on an already-dropped one), so the counts live here, and
        # per connection only in the stats series.
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
        self._settle(node)
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
        self._incomplete.discard(node_id)
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

    def connect(
        self, sender_id: str, receiver_id: str, table: Optional[EpochTable] = None
    ) -> bool:
        """Establish a connection, subject to admission control.

        ``table`` is the epoch applying a rewiring decision (admission
        reads the decision's utilities off it); other callers pass none.
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
        if self.admission is not None and not self.admission.admit(
            receiver, sender, table
        ):
            return False
        chars = (
            self.paths.path_characteristics(sender_id, receiver_id)
            if self.paths is not None
            else UNIT_PATH
        )
        conn = Connection(
            sender,
            receiver,
            self._build_strategy(sender, receiver),
            self.link_factory(chars, sender_id, receiver_id),
        )
        if self.transport is not None:
            # A new connection is a new flow: fresh congestion state.
            conn.transport = self.transport.attach(conn.stats_name)
        self.connections[(sender_id, receiver_id)] = conn
        self._senders.setdefault(receiver_id, {})[sender_id] = None
        if receiver_id in self._incomplete:
            conn.feeding = True
            self._feeding[(sender_id, receiver_id)] = conn
        return True

    def disconnect(self, sender_id: str, receiver_id: str) -> None:
        if self.connections.pop((sender_id, receiver_id), None) is not None:
            del self._senders[receiver_id][sender_id]
            self._feeding.pop((sender_id, receiver_id), None)

    # -- simulation ---------------------------------------------------------------

    def tick(self) -> None:
        """Advance one time unit: fire the delivery event plus anything
        scheduled between ticks (arrivals, scenario events)."""
        self.scheduler.run_until(self._epoch + self.tick_count + 1.0)

    def _on_tick(self) -> None:
        """The periodic delivery/adaptation pass (the legacy tick body)."""
        self.tick_count += 1
        scheduler, stats, rng = self.scheduler, self.stats, self.rng
        arrive = self._arrive
        now = scheduler.now
        start = now - 1.0
        for conn in self._feeding_connections():
            # An inline arrival earlier in this pass may have completed
            # the receiver: its edges stopped feeding then.
            if not conn.feeding:
                continue
            sender, strategy = conn.sender, conn.strategy
            is_source = sender.is_source
            if strategy is None and not is_source:
                continue  # sender has nothing to offer yet
            link = conn.link
            ctrl = conn.transport
            budget = link.send_budget(start, now, ctrl)
            if not budget:
                continue
            for _ in range(budget):
                if is_source:
                    packet = Packet.encoded(sender.mint_fresh_id())
                else:
                    packet = strategy.next_packet()
                self.packets_sent += 1
                if stats is not None:
                    stats.count(now, conn.stats_name, "sent")
                delay = link.transmit(rng)
                if ctrl is not None:
                    ctrl.on_transmit(scheduler, delay, link.latency)
                if delay is None:  # wire loss or tail drop
                    self.packets_lost += 1
                    if stats is not None:
                        stats.count(now, conn.stats_name, "lost")
                    continue
                if delay <= 0.0:
                    arrive(conn, packet)
                    if not conn.feeding:
                        break  # that arrival completed the receiver
                else:
                    scheduler.schedule_at(now + delay, partial(arrive, conn, packet))
        if self.refresh_every and self.tick_count % self.refresh_every == 0:
            self._refresh_strategies()

    def run(self, max_ticks: int = 10_000) -> SimulationReport:
        """Tick until every non-source node completes (or the cap hits).

        Completion also requires the heap to hold no one-shot events:
        a pending join wave, departure, or in-flight arrival is
        scheduled work the simulation has not finished — early
        completion of the current membership must not skip it.
        """
        while self.tick_count < max_ticks and (
            self._incomplete or self.scheduler.pending_oneshot
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

        A copy of the feeding index, so a pass may drop and complete
        edges while it walks: an edge that stops feeding mid-pass stays
        in the copy with its ``feeding`` flag cleared.
        """
        return list(self._feeding.values())

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
            if conn.sender.is_source or not conn.feeding:
                continue
            if self._strategy_fresh(conn):
                conn.strategy.renew()
                continue
            conn.strategy = self._build_strategy(conn.sender, conn.receiver)
            if conn.strategy is None:
                self.disconnect(conn.sender.node_id, conn.receiver.node_id)

    def _arrive(self, conn: Connection, packet: Packet) -> None:
        """A packet reaches its receiver (inline or latency-delayed)."""
        receiver = conn.receiver
        rid = receiver.node_id
        if self.nodes.get(rid) is not receiver:
            return  # receiver departed while the packet was in flight
        if receiver.completed_at_tick is not None:
            return  # late arrival after completion: nothing to add
        if not self._deliver(receiver, packet):
            return
        # Counted here even when the connection was dropped mid-flight:
        # the simulator's total outlives it.
        self.packets_useful += 1
        if self.stats is not None:
            now = self.scheduler.now
            self.stats.count(now, conn.stats_name, "useful")
            self.stats.gauge(now, rid, "symbols", len(receiver.working_set))
        self._settle(receiver)

    def _settle(self, node: OverlayNode) -> None:
        """The one completion check, made where a member's set can have
        grown inside this simulator: when it joins (seeded or not) and
        after a useful arrival.

        A member that is not complete (and has not completed before) is
        one ``run()`` waits on.  One that was waited on and is complete
        now completes: it is stamped with the tick and its incoming
        edges stop feeding, which the delivery pass under way sees too.
        A member that joins complete is not stamped.
        """
        nid = node.node_id
        if not node.is_complete:
            if node.completed_at_tick is None:
                self._incomplete.add(nid)
            return
        if nid not in self._incomplete:
            return
        self._incomplete.discard(nid)
        node.completed_at_tick = self.tick_count
        # Completion is final: the receiver's edges leave the pass.
        feeding = self._feeding
        for sender_id in self._senders.get(nid, ()):
            feeding.pop((sender_id, nid)).feeding = False

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
        table = EpochTable.of(self.rewiring)
        for receiver, control_bytes, drops, adds in run_epoch(
            self.rewiring,
            self.rng,
            self.reconfig_budget,
            (n for n in all_nodes if not (n.is_source or n.is_complete)),
            lambda receiver: all_nodes,
            lambda receiver: [
                nodes[s] for s in self._senders.get(receiver.node_id, ())
            ],
            table,
        ):
            self.control_bytes += control_bytes
            rid = receiver.node_id
            for d in drops:
                self.disconnect(d.node_id, rid)
            for a in adds:
                if self.connect(a.node_id, rid, table):
                    self.reconfigurations += 1
