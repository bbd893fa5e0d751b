"""The flow-level population engine: rate equations between handshakes.

The packet engine (:mod:`repro.overlay.simulator`) moves individual
encoded symbols and tops out around 10k nodes.  :class:`FlowSimulator` trades symbol resolution for population
scale: peers are aggregated into *cohorts* (same object, same arrival
wave, same initial seeding), each cohort split into bandwidth *tiers*,
and bulk transfer advances as closed-form goodput over each
inter-handshake window — per-window cost is O(cohorts x tiers), so a
million-peer run costs the same wall-clock as a hundred-peer run.

What stays real is exactly what the paper studies — the reconciliation
control plane.  Every cohort carries a representative
:class:`~repro.overlay.node.OverlayNode` holding a *sampled-ID sketch*
of the cohort working set (capped at ``sample_cap`` ids, scaled by the
cohort's sampling ratio), and at every epoch boundary genuine
:mod:`repro.reconcile` summaries are built over those sets and fed
through the PR-5 peering machinery —
:class:`~repro.overlay.reconfiguration.SketchAdmission`,
:class:`~repro.overlay.reconfiguration.UtilityRewiring`,
:class:`~repro.overlay.reconfiguration.RandomRewiring` — with control
bytes charged at each card's real ``wire_bytes``.  "Informed vs
random" therefore remains measurable at 1M peers, through the same
policy objects and the same epoch loop
(:func:`~repro.overlay.reconfiguration.run_epoch`) the packet engine
uses.

Data-plane usefulness, by contrast, is *ground truth*: the novel
fraction a sender offers is the exact overlap of the two sampled-ID
sets (the summaries only steer decisions, as in the packet engines,
where transfer usefulness is decided by actual working-set membership).
Each object's sampled ids form one ordered id space (:class:`_IdSpace`),
so a representative's holdings are also one Python int with a bit per
id, cached on its working set: the overlap is a bit count and a draw
of novel ids is a bit select, with no set copied or sorted per update.
Senders running the uninformed ``Random`` strategy draw blind — their
useful yield follows the coupon-collector law ``pool * (1 -
exp(-delivered/|sender|))`` — while informed strategies reconcile
first and send only novel symbols, ``min(delivered, pool)``.

Everything is pure scalar Python over cohort aggregates: results are
bit-identical with and without numpy (numpy only accelerates the
min-wise card builds and comparisons, whose outputs are integer minima
and match counts either way).
"""

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coding.symbol import FRESH_ID_BASE, FRESH_ID_STRIDE
from repro.flow.demand import apportion, tier_multipliers
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import EpochTable, run_epoch
from repro.seeding import sample, shuffle

#: Sender strategies that draw symbols blind (no reconciliation before
#: sending); every other registered strategy reconciles first.
UNINFORMED_STRATEGIES = ("Random",)

#: Rep-universe offset of each object's content ids (its source mints
#: fresh ids in the shared ``FRESH_ID_BASE`` layout above them).
_OBJECT_STRIDE = 1 << 20


class _IdSpace:
    """One object's sampled ids in ascending order, one bit each.

    The content ids (a consecutive run from ``base``) come first and the
    source's fresh ids follow in mint order, so bit order is id order:
    the ``j``-th lowest set bit of a bitmap is the ``j``-th smallest id
    it holds.  ``ids`` maps bit to id (the very int objects the working
    sets hold); :meth:`bit` maps back arithmetically and refuses an id
    outside the space rather than set a wrong bit.
    """

    def __init__(self, content: List[int], fresh_start: int):
        self.base = content[0]
        self.width = len(content)
        if content[-1] - self.base + 1 != self.width or content[-1] >= fresh_start:
            raise ValueError("content ids must be one run below the fresh ids")
        self.fresh_start = fresh_start
        self.ids = content

    def bit(self, symbol: int) -> int:
        offset = symbol - self.base
        if 0 <= offset < self.width:
            return offset
        offset = symbol - self.fresh_start
        if 0 <= offset < len(self.ids) - self.width:
            return self.width + offset
        raise ValueError(f"id {symbol} is outside the object's id space")

    def mint(self, source: OverlayNode) -> int:
        """The source's next fresh id, appended to the space."""
        symbol = source.mint_fresh_id()
        if symbol != self.fresh_start + len(self.ids) - self.width:
            raise ValueError(f"fresh id {symbol} is out of mint order")
        self.ids.append(symbol)
        return symbol

    def bitmap(self, rep: OverlayNode) -> int:
        """The rep's holdings as one int, built once per working set and
        then kept current from its add journal."""
        return rep.working_set.cached(self, self._build, self._absorb)

    def _build(self, ws) -> int:
        return self._absorb(0, ws)

    def _absorb(self, bitmap: int, added) -> int:
        bit = self.bit
        for symbol in added:
            bitmap |= 1 << bit(symbol)
        return bitmap


def _select(bits: int, j: int) -> int:
    """Position of the ``j``-th lowest set bit of ``bits`` (0-based)."""
    position = 0
    width = bits.bit_length()
    while width > 64:
        half = width >> 1
        low = bits & ((1 << half) - 1)
        below = low.bit_count()
        if j < below:
            bits, width = low, half
        else:
            j -= below
            bits >>= half
            position += half
            width -= half
    for _ in range(j):
        bits &= bits - 1  # clear the lowest set bit
    return position + (bits & -bits).bit_length() - 1


@dataclass(frozen=True)
class CohortDef:
    """One population cohort: peers indistinguishable to the flow model.

    ``initial_fraction`` of ``demand`` is pre-seeded; ``slice_index``
    picks which end of the object's shuffled symbol permutation the
    seed slice comes from (0 = front, 1 = back), so two mirror cohorts
    with complementary slices hold disjoint content — the Figure 1
    environment at population scale.  ``distinct`` is the object's
    distinct-symbol count (shared by every cohort of the object).
    """

    cohort_id: str
    object_id: int
    members: int
    arrival: float = 0.0
    demand: int = 100
    distinct: int = 120
    initial_fraction: float = 0.0
    slice_index: int = 0

    def __post_init__(self) -> None:
        if self.members < 1:
            raise ValueError("cohort members must be positive")
        if self.demand < 1:
            raise ValueError("cohort demand must be positive")
        if self.distinct < self.demand:
            raise ValueError("distinct must be at least demand")
        if not 0.0 <= self.initial_fraction < 1.0:
            raise ValueError("initial_fraction must lie in [0, 1)")
        if self.slice_index not in (0, 1):
            raise ValueError("slice_index must be 0 or 1")
        if self.arrival < 0.0:
            raise ValueError("arrival must be non-negative")


@dataclass
class _Tier:
    """One bandwidth class inside a cohort (identical members)."""

    members: int
    mult: float
    count: float
    completed_at: Optional[float] = None


class _Cohort:
    """Runtime state of one cohort: tiers + the summary representative."""

    def __init__(self, definition: CohortDef, rep: OverlayNode, scale: float,
                 tiers: List[_Tier], space: _IdSpace):
        self.definition = definition
        self.rep = rep
        self.scale = scale  # sampled-ID ids per real symbol
        self.tiers = tiers
        self.space = space  # the object's id space, shared by its cohorts
        self.senders: List["_Cohort"] = []
        self.arrived = False
        self.carry = 0.0  # fractional sampled-ID accumulation
        self.is_source = rep.is_source
        # Tiers still short of the demand: a source has none.
        self.open_tiers = len(tiers)

    @property
    def cohort_id(self) -> str:
        return self.rep.node_id

    @property
    def members(self) -> int:
        return self.definition.members

    def mean_count(self) -> float:
        """Member-weighted mean working-set size (real symbol units)."""
        if self.is_source:
            return float(self.definition.demand)
        total = sum(t.count * t.members for t in self.tiers)
        return total / self.members


@dataclass
class FlowReport:
    """What a flow-level run measured; mirrors
    :class:`~repro.overlay.simulator.SimulationReport`'s counters, plus
    the population bookkeeping the scale demands (per-cohort completion
    batches instead of a per-node dict)."""

    ticks: int
    all_complete: bool
    population: int
    peers_completed: int
    #: (completion time, member count) per completed cohort tier.
    completions: List[Tuple[float, int]] = field(default_factory=list)
    packets_sent: float = 0.0
    packets_lost: float = 0.0
    packets_useful: float = 0.0
    reconfigurations: int = 0
    reconfig_epochs: int = 0
    control_bytes: int = 0
    events: List[str] = field(default_factory=list)

    @property
    def efficiency(self) -> float:
        """Useful fraction of delivered traffic (loss excluded)."""
        delivered = self.packets_sent - self.packets_lost
        return self.packets_useful / delivered if delivered > 0 else 0.0


class FlowSimulator:
    """Advance cohort bulk transfers as rate equations between epochs.

    Args:
        cohorts: the population's :class:`CohortDef` s; one source per
            distinct ``object_id`` is created automatically.
        rate: per-connection nominal goodput (symbols per time unit).
        loss_rate: stationary loss each connection folds in (Gilbert-
            Elliott links fold to their stationary loss upstream).
        interval: epoch period — the handshake/rewiring cadence and the
            flow-integration window.
        rate_tiers / rate_spread: bandwidth classes per cohort
            (:func:`~repro.flow.demand.tier_multipliers`).
        max_connections: sender slots per cohort.
        admission / rewiring: the PR-5 peering policies, operating on
            cohort representatives (``None`` rewiring = static peering).
        scan_budget: candidate cards scanned per receiver per epoch
            (0 = all).
        strategy_name: data-plane sender strategy; only
            ``"Random"`` transfers blind, every other registered
            strategy reconciles before sending.
        sample_cap: sampled-ID sketch size cap per representative.
        rng: the run's master RNG (construction + policy draws).
    """

    def __init__(
        self,
        cohorts: Sequence[CohortDef],
        *,
        rate: float,
        loss_rate: float = 0.0,
        interval: float = 5.0,
        rate_tiers: int = 1,
        rate_spread: float = 0.0,
        max_connections: int = 3,
        admission=None,
        rewiring=None,
        scan_budget: int = 0,
        strategy_name: str = "Random",
        sample_cap: int = 256,
        rng: random.Random,
    ):
        if not 0 < rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must lie in [0, 1)")
        if not 0 < interval < math.inf:
            raise ValueError("interval must be positive and finite")
        if sample_cap < 1:
            raise ValueError("sample_cap must be positive")
        # random.sample needs an int budget: 2.5 would fail at the first
        # epoch, -1 mid-run, True would scan one candidate and NaN every
        # cohort; the slot count is the same kind of number.
        for arg, value in (
            ("scan_budget", scan_budget),
            ("max_connections", max_connections),
        ):
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{arg} must be an int >= 0, got {value!r}")
        self.rate = rate
        self.loss_rate = loss_rate
        self.interval = float(interval)
        self.max_connections = max_connections
        self.admission = admission
        self.rewiring = rewiring
        self.scan_budget = scan_budget
        self.informed_strategy = strategy_name not in UNINFORMED_STRATEGIES
        self.sample_cap = sample_cap
        self.rng = rng

        self.reconfigurations = 0
        self.reconfig_epochs = 0
        self.control_bytes = 0
        self.packets_sent = 0.0
        self.packets_lost = 0.0
        self.packets_useful = 0.0
        self.events: List[str] = []

        mults = tier_multipliers(rate_tiers, rate_spread)
        self.sources: Dict[int, _Cohort] = {}
        self.cohorts: List[_Cohort] = []
        self._by_node_id: Dict[str, _Cohort] = {}
        # Each object's shuffled sampled-ID universe, needed only to
        # slice the seeded cohorts; the object keeps its id space.
        perms: Dict[int, List[int]] = {}
        seen_ids = set()
        for d in cohorts:
            if d.cohort_id in seen_ids:
                raise ValueError(f"duplicate cohort id {d.cohort_id!r}")
            seen_ids.add(d.cohort_id)
            if d.object_id not in self.sources:
                perms[d.object_id] = self._add_source(d)
            self.cohorts.append(self._build_cohort(d, mults, perms[d.object_id]))
        for c in self.cohorts:
            self._by_node_id[c.cohort_id] = c
        self.population = sum(c.members for c in self.cohorts)
        # Cohorts still to complete, counted down where a last tier does.
        self._incomplete = sum(1 for c in self.cohorts if c.open_tiers)

    # -- construction -------------------------------------------------------

    def _add_source(self, d: CohortDef) -> List[int]:
        """One always-on origin server per object, minting fresh ids;
        returns the object's shuffled sampled-ID universe."""
        index = len(self.sources)
        fresh_start = FRESH_ID_BASE + index * FRESH_ID_STRIDE
        rep = OverlayNode(
            f"origin{d.object_id}",
            d.demand,
            is_source=True,
            fresh_id_start=fresh_start,
        )
        rep_target = max(1, min(d.demand, self.sample_cap))
        scale = rep_target / d.demand
        distinct_rep = max(rep_target, int(round(scale * d.distinct)))
        base = d.object_id * _OBJECT_STRIDE
        perm = list(range(base, base + distinct_rep))
        shuffle(self.rng, perm)
        source = _Cohort(
            CohortDef(
                cohort_id=rep.node_id,
                object_id=d.object_id,
                members=1,
                demand=d.demand,
                distinct=d.distinct,
            ),
            rep,
            scale=1.0,
            tiers=[],
            space=_IdSpace(sorted(perm), fresh_start),
        )
        source.arrived = True
        self.sources[d.object_id] = source
        self._by_node_id[rep.node_id] = source
        return perm

    def _build_cohort(self, d: CohortDef, mults: List[float],
                      perm: List[int]) -> _Cohort:
        rep_target = max(1, min(d.demand, self.sample_cap))
        scale = rep_target / d.demand
        initial = int(d.demand * d.initial_fraction)
        rep_initial = min(len(perm), int(round(scale * initial)))
        if d.slice_index == 0:
            rep_ids = perm[:rep_initial]
        else:
            rep_ids = perm[len(perm) - rep_initial:]
        rep = OverlayNode(
            d.cohort_id,
            rep_target,
            initial_ids=rep_ids,
            max_connections=self.max_connections,
        )
        members = apportion(d.members, [1.0] * len(mults))
        tiers = [
            _Tier(members=m, mult=mult, count=float(initial))
            for m, mult in zip(members, mults)
            if m > 0
        ]
        return _Cohort(d, rep, scale, tiers, self.sources[d.object_id].space)

    # -- run loop -----------------------------------------------------------

    def run(self, max_ticks: int = 10_000) -> FlowReport:
        """Advance to completion or ``max_ticks``; collect the report."""
        horizon = float(max_ticks)
        if horizon + self.interval == horizon:
            # ``next_epoch += interval`` would stall short of the horizon.
            raise ValueError(
                f"interval {self.interval!r} cannot advance the clock "
                f"to {horizon:g}"
            )
        arrivals = sorted(
            (c.definition.arrival, i, c) for i, c in enumerate(self.cohorts)
        )
        pending = list(arrivals)
        now = 0.0
        next_epoch = self.interval
        while pending and pending[0][0] <= now:
            self._arrive(pending.pop(0)[2], now)
        while now < horizon:
            t_next = min(next_epoch, horizon)
            if pending:
                t_next = min(t_next, pending[0][0])
            self._advance(now, t_next)
            now = t_next
            while pending and pending[0][0] <= now:
                self._arrive(pending.pop(0)[2], now)
            if now >= next_epoch - 1e-9:
                self._reconfigure(now)
                next_epoch += self.interval
            if not pending and not self._incomplete:
                break
        return self._report(now, horizon)

    def _arrive(self, cohort: _Cohort, now: float) -> None:
        cohort.arrived = True
        self.events.append(
            f"t={now:g} cohort {cohort.cohort_id} joins "
            f"({cohort.members} peers)"
        )
        # Every cohort bootstraps from its object's origin, subject to
        # admission (sources are always admitted).
        source = self.sources[cohort.definition.object_id]
        self._connect(source, cohort)

    def _connect(
        self, sender: _Cohort, receiver: _Cohort, table: Optional[EpochTable] = None
    ) -> bool:
        if receiver.is_source or sender is receiver:
            return False
        if sender in receiver.senders:
            return False
        if len(receiver.senders) >= self.max_connections:
            return False
        if self.admission is not None and not self.admission.admit(
            receiver.rep, sender.rep, table
        ):
            return False
        receiver.senders.append(sender)
        return True

    # -- control plane: epoch handshakes ------------------------------------

    def _reconfigure(self, now: float) -> None:
        """One epoch (:func:`~repro.overlay.reconfiguration.run_epoch`)
        over cohort representatives: real summary cards, PR-5 policies,
        honest bytes.  A receiver scans its object's source and the
        arrived cohorts of that object."""
        if self.rewiring is None:
            return  # static peering: boundaries are free
        self.reconfig_epochs += 1
        by_id = self._by_node_id
        # Arrivals cannot change inside an epoch: one pool per object.
        arrived = {obj: [s.rep] for obj, s in self.sources.items()}
        for c in self.cohorts:
            if c.arrived:
                arrived[c.definition.object_id].append(c.rep)

        def pool_of(rep: OverlayNode) -> List[OverlayNode]:
            obj = by_id[rep.node_id].definition.object_id
            return [r for r in arrived[obj] if r is not rep]

        table = EpochTable.of(self.rewiring)
        for rep, control_bytes, drops, adds in run_epoch(
            self.rewiring,
            self.rng,
            self.scan_budget,
            (c.rep for c in self.cohorts if c.arrived and c.open_tiers),
            pool_of,
            lambda rep: [s.rep for s in by_id[rep.node_id].senders],
            table,
        ):
            self.control_bytes += control_bytes
            receiver = by_id[rep.node_id]
            for d in drops:
                dropped = by_id[d.node_id]
                if dropped in receiver.senders:
                    receiver.senders.remove(dropped)
            for a in adds:
                if self._connect(by_id[a.node_id], receiver, table):
                    self.reconfigurations += 1

    # -- data plane: closed-form flow advancement ---------------------------

    def _novel_fraction(self, receiver: _Cohort, sender: _Cohort) -> float:
        """Ground-truth novelty from the sampled-ID sets (not summaries)."""
        if sender.is_source:
            return 1.0
        held = len(sender.rep.working_set)
        if not held:
            return 0.0  # an empty sender is fully contained: nothing novel
        space = receiver.space
        shared = space.bitmap(sender.rep) & space.bitmap(receiver.rep)
        return 1.0 - shared.bit_count() / held

    def _advance(self, t0: float, t1: float) -> None:
        """Integrate every incomplete tier's transfer over [t0, t1)."""
        window = t1 - t0
        if window <= 0:
            return
        # Simultaneous-update snapshot: every receiver sees its senders'
        # start-of-window state.
        counts = {c.cohort_id: c.mean_count() for c in self.cohorts}
        rep_updates: List[Tuple[_Cohort, _Cohort, int]] = []
        for receiver in self.cohorts:
            if not receiver.arrived or not receiver.open_tiers:
                continue
            novel = {
                s.cohort_id: self._novel_fraction(receiver, s)
                for s in receiver.senders
            }
            cohort_useful: Dict[str, float] = {}
            for tier in receiver.tiers:
                if tier.completed_at is not None:
                    continue
                remaining = receiver.definition.demand - tier.count
                offered = self.rate * tier.mult * window
                delivered = offered * (1.0 - self.loss_rate)
                useful_by_sender: Dict[str, float] = {}
                active = 0
                for s in receiver.senders:
                    if s.is_source:
                        useful_by_sender[s.cohort_id] = delivered
                        active += 1
                        continue
                    n_s = counts[s.cohort_id]
                    if n_s <= 0:
                        continue  # nothing to serve: no traffic at all
                    active += 1
                    pool = novel[s.cohort_id] * n_s
                    if self.informed_strategy:
                        # Reconcile-then-send: every delivered symbol is
                        # novel until the sender's novel pool runs dry.
                        useful_by_sender[s.cohort_id] = min(delivered, pool)
                    else:
                        # Blind Random sending: coupon-collector yield.
                        useful_by_sender[s.cohort_id] = pool * -math.expm1(
                            -delivered / n_s
                        )
                total_useful = sum(useful_by_sender.values())
                if total_useful > remaining > 0:
                    phi = remaining / total_useful
                    gained = remaining
                else:
                    phi = 1.0
                    gained = total_useful
                sent = offered * active * tier.members * phi
                self.packets_sent += sent
                self.packets_lost += sent * self.loss_rate
                self.packets_useful += gained * tier.members
                tier.count += gained
                if tier.count >= receiver.definition.demand - 1e-9:
                    tier.completed_at = t0 + phi * window
                    receiver.open_tiers -= 1
                    if not receiver.open_tiers:
                        self._incomplete -= 1
                for sid, u in useful_by_sender.items():
                    cohort_useful[sid] = cohort_useful.get(sid, 0.0) + u * (
                        tier.members / receiver.members
                    ) * phi
            if not cohort_useful:
                continue
            # Scale the cohort's mean per-member gain into sampled-ID
            # units; the fractional carry keeps long runs unbiased.
            grown = receiver.scale * sum(cohort_useful.values()) + receiver.carry
            draw = int(grown)
            receiver.carry = grown - draw
            if draw <= 0:
                continue
            senders = sorted(cohort_useful)
            shares = apportion(draw, [cohort_useful[s] for s in senders])
            for sid, k in zip(senders, shares):
                if k > 0:
                    rep_updates.append((receiver, self._by_node_id[sid], k))
        for receiver, sender, k in rep_updates:
            self._apply_rep_update(receiver, sender, k)

    def _apply_rep_update(self, receiver: _Cohort, sender: _Cohort, k: int) -> None:
        """Mirror the window's real gains into the sampled-ID sketch.

        A peer sender hands over ``k`` ids drawn uniformly from what it
        holds and the receiver lacks: ``sample`` picks positions in
        that pool's ascending order, and bit order is id order, so each
        position is a bit select — no set is built or sorted.
        """
        space = receiver.space
        if sender.is_source:
            for _ in range(k):
                receiver.rep.receive_symbol(space.mint(sender.rep))
            return
        pool = space.bitmap(sender.rep) & ~space.bitmap(receiver.rep)
        size = pool.bit_count()
        if not size:
            return
        ids = space.ids
        for j in sample(self.rng, range(size), min(k, size)):
            receiver.rep.receive_symbol(ids[_select(pool, j)])

    # -- reporting ----------------------------------------------------------

    def _report(self, now: float, horizon: float) -> FlowReport:
        completions: List[Tuple[float, int]] = []
        completed = 0
        for c in self.cohorts:
            for t in c.tiers:
                if t.completed_at is not None:
                    completions.append((t.completed_at, t.members))
                    completed += t.members
        all_complete = not self._incomplete
        end = max((t for t, _ in completions), default=now) if all_complete else now
        return FlowReport(
            ticks=int(math.ceil(min(end, horizon))),
            all_complete=all_complete,
            population=self.population,
            peers_completed=completed,
            completions=sorted(completions),
            packets_sent=self.packets_sent,
            packets_lost=self.packets_lost,
            packets_useful=self.packets_useful,
            reconfigurations=self.reconfigurations,
            reconfig_epochs=self.reconfig_epochs,
            control_bytes=self.control_bytes,
            events=list(self.events),
        )


__all__ = [
    "CohortDef",
    "FlowReport",
    "FlowSimulator",
    "UNINFORMED_STRATEGIES",
]
