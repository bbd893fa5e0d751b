"""Structured-topology scenarios: ``scale_free_swarm`` and ``cdn_catalog``.

Both scenarios put the paper's informed-collaboration machinery on the
structured graphs where its advantages sharpen (PAPERS.md's scale-free
hub-congestion prediction, Andersen et al.'s CDN bandwidth-management
motivation):

* ``scale_free_swarm`` — the mirror-content comparison of
  ``adaptive_overlay`` rerun over a Barabási–Albert overlay.  Peers
  hold complementary content halves, the origin serves through the
  biggest hub, and every wired peering follows the generated graph —
  so an uninformed overlay funnels redundant traffic through the hubs
  while informed admission/rewiring routes around them.  The headline
  ``informed_useful_gain`` is the informed arm's useful-fraction lead
  over the random arm; per-arm hub-load fractions (and their time
  series) quantify the routing-around-hubs story.

* ``cdn_catalog`` — a multi-object flash crowd over hierarchical CDN
  tiers.  The origin holds the whole catalog, regional caches pre-warm
  the popular half, and edge peers arrive in waves each demanding one
  object by Zipf rank.  Reconciliation is catalog-aware
  (:class:`~repro.overlay.catalog.CatalogScheme`): a candidate holding
  none of a peer's wanted objects is rejected before its symbol card
  is consulted, so peers wanting uncached objects route to the origin
  instead of polling useless caches.  Metrics report useful fraction
  and mean completion tick per demand rank.
"""

import math
import random
from typing import Dict, List, Optional, Tuple

from repro.api.builders import (
    _build_swarm,
    _mirror_halves,
    _require_informed_arm,
    _require_members,
    _require_swarm,
    _run_arms,
    _run_block,
    _schedule_join_waves,
    _seeded_count,
    _series_recorder,
    _source_group,
    reconfig_scheme,
)
from repro.api.registry import scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment
from repro.api.spec import (
    CatalogSpec,
    ChurnSpec,
    ExperimentSpec,
    MeasurementSpec,
    NodeSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SwarmSpec,
    TopologySpec,
)
from repro.overlay.catalog import CatalogNode, CatalogScheme, ObjectCatalog
from repro.overlay.node import OverlayNode
from repro.overlay.simulator import OverlaySimulator, SimulationReport
from repro.seeding import derive_seed, shuffle
from repro.sim.stats import StatsRecorder

#: The scale-free comparison arms, in reporting order.
SCALE_FREE_ARMS = ("random", "informed")

#: How many top-degree nodes count as "the hubs" in the load metrics.
HUB_COUNT = 3


def scale_free_swarm(
    num_peers: int = 24,
    target: int = 60,
    attach: int = 2,
    interval: float = 4.0,
    max_connections: int = 3,
    summary_kind: str = "",
    seed: int = 3,
    max_ticks: int = 8_000,
) -> ExperimentSpec:
    """Spec: random vs informed rewiring over a scale-free overlay.

    Args:
        num_peers: overlay size (excluding the origin).
        target: symbols each peer needs to complete.
        attach: Barabási–Albert attachment count (hub heaviness).
        interval: reconfiguration epoch period.
        max_connections: inbound sender slots per peer.
        summary_kind: summary driving the informed arm ("" = the
            default min-wise calling card).
        seed: master seed; both arms derive identically from it.
    """
    spec = ExperimentSpec(
        scenario="scale_free_swarm",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="p",
                    count=num_peers,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="distinct",
                    max_connections=max_connections,
                ),
            ),
            topology=TopologySpec(kind="scale_free", params={"attach": attach}),
        ),
        strategy=StrategySpec(name="Random"),
        reconfig=ReconfigSpec(policy="informed", interval=interval),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )
    if summary_kind:
        spec = spec.with_override("reconfig.summary.kind", summary_kind)
    return spec


def _hub_load(stats: StatsRecorder, hub_names) -> float:
    """Fraction of all symbol sends originating at the hub nodes."""
    total = hub_sent = 0.0
    for entity in stats.entities():
        if "->" not in entity:
            continue
        sent = stats.total(entity, "sent")
        total += sent
        if entity.split("->", 1)[0] in hub_names:
            hub_sent += sent
    return hub_sent / total if total > 0 else 0.0


@scenario(
    "scale_free_swarm",
    small_spec=lambda: scale_free_swarm(
        num_peers=14,
        target=40,
        seed=3,
        max_ticks=4_000,
    ),
    description="Random vs informed rewiring over a scale-free overlay",
    small_grid=lambda: {"swarm.topology.params.attach": [1, 2]},
    supports=("topology", "reconfig"),
    groups=("p",),
)
def build_scale_free_swarm(spec: ExperimentSpec) -> BuiltExperiment:
    """Run both arms from identical seeds; report the hub-load story."""
    swarm = _require_swarm(spec)
    peers = _require_members(spec, "p", 2, "two peers")
    names = peers.member_ids()
    if swarm.topology is None:
        raise SpecError("scale_free_swarm needs a swarm topology (swarm.topology)")
    graph = swarm.topology.generate(peers.count, spec.seed)
    _require_informed_arm(spec)
    hub_names = {names[h] for h in graph.hubs(HUB_COUNT)}

    def populate(spec, scn, rng, shared) -> None:
        sim = scn.simulator
        src_name = _source_group(swarm).member_ids()[0]
        sim.add_node(OverlayNode(src_name, swarm.target, is_source=True))
        # Complementary content halves by peer parity: a same-half
        # peering is pure redundancy, a cross-half peering pure gain —
        # the Figure 1 mirror insight spread over the generated graph.
        count = _seeded_count(peers, swarm)
        halves = _mirror_halves(rng, swarm.distinct_symbols, count, count)
        for i, name in enumerate(names):
            sim.add_node(
                OverlayNode(
                    name,
                    swarm.target,
                    initial_ids=halves[i % 2],
                    max_connections=peers.max_connections,
                )
            )
        # Wire the structured graph, older (hub-heavy) end serving; nodes
        # the orientation leaves without an inbound edge are fed by the
        # origin, which otherwise serves through the biggest hub.
        fed = set()
        for u, v in graph.edges:
            sim.connect(names[u], names[v])
            fed.add(v)
        for hub in graph.hubs(1):
            sim.connect(src_name, names[hub])
        for i, name in enumerate(names):
            if i not in fed and i not in graph.hubs(1):
                sim.connect(src_name, name)

    def build_arm(arm: str) -> BuiltExperiment:
        # Each arm records its own series whatever ``record_series``
        # says: the hub-load metrics are computed from it.
        rng = random.Random(derive_seed(spec.seed, "scale_free_swarm"))
        return _build_swarm(
            spec, populate, rng=rng, stats=_series_recorder(spec, force=True), arm=arm
        )

    def observe(
        arm: str,
        sim: OverlaySimulator,
        report: SimulationReport,
        series: Optional[StatsRecorder],
    ) -> Tuple[Dict[str, float], str]:
        stats = sim.stats
        load = _hub_load(stats, hub_names)
        if series is not None:
            # The hub-load time series: symbol sends per bucket
            # summed over the hub senders, one signal per arm.
            for entity in stats.entities():
                if "->" not in entity:
                    continue
                if entity.split("->", 1)[0] not in hub_names:
                    continue
                for t, v in stats.series(entity, "sent"):
                    series.count(t, f"hub_load[{arm}]", "sent", v)
            series.gauge(0.0, arm, "useful_fraction", report.efficiency)
            series.gauge(0.0, arm, "hub_load_fraction", load)
        return {"hub_load_fraction": load}, f"hub_load_fraction={load:.3f}"

    def run(built: BuiltExperiment) -> RunResult:
        result = _run_arms(spec, SCALE_FREE_ARMS, build_arm, observe)
        result.metrics["hub_relief"] = (
            result.metrics["hub_load_fraction[random]"]
            - result.metrics["hub_load_fraction[informed]"]
        )
        return result

    return BuiltExperiment(spec=spec, kind="sweep", runner=run)


def cdn_catalog(
    regionals: int = 3,
    edge_peers: int = 12,
    objects: int = 4,
    target: int = 48,
    zipf_skew: float = 1.0,
    size_skew: float = 0.0,
    priority_tiers: int = 2,
    waves: int = 2,
    wave_interval: float = 4.0,
    interval: float = 4.0,
    max_connections: int = 3,
    seed: int = 5,
    max_ticks: int = 8_000,
) -> ExperimentSpec:
    """Spec: a multi-object flash crowd over hierarchical CDN tiers.

    Args:
        regionals: tier-1 cache servers (pre-warmed with the popular
            half of the catalog).
        edge_peers: tier-2 clients, each demanding one object by Zipf
            rank, arriving in ``waves`` join waves.
        objects: catalog size; ``zipf_skew``/``size_skew``/
            ``priority_tiers`` map onto :class:`CatalogSpec`.
        target: total symbol budget the catalog's objects share.
        interval: reconfiguration epoch period.
        seed: master seed for graph, demand, and run streams alike.
    """
    if regionals < 1:
        raise SpecError("cdn_catalog needs at least one regional cache")
    return ExperimentSpec(
        scenario="cdn_catalog",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="origin", count=1, role="source"),
                NodeSpec(
                    name="cache",
                    count=regionals,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="distinct",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="edge",
                    count=edge_peers,
                    max_connections=max_connections,
                ),
            ),
            topology=TopologySpec(
                kind="cdn_tiers", params={"tiers": 3, "fanout": regionals}
            ),
        ),
        strategy=StrategySpec(name="Random"),
        churn=ChurnSpec(join_waves=waves, wave_interval=wave_interval)
        if waves
        else None,
        # Late in a catalog run the usefulness spread between a stocked
        # cache and a nearly-drained peer is small; the default swap
        # margin would freeze the overlay before the unpopular tail
        # finishes, so the scenario pins a tighter one.
        reconfig=ReconfigSpec(policy="informed", interval=interval, hysteresis=0.02),
        catalog=CatalogSpec(
            objects=objects,
            zipf_skew=zipf_skew,
            size_skew=size_skew,
            priority_tiers=priority_tiers,
        ),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


@scenario(
    "cdn_catalog",
    small_spec=lambda: cdn_catalog(
        regionals=2,
        edge_peers=8,
        objects=3,
        target=36,
        seed=5,
        max_ticks=4_000,
    ),
    description="Multi-object flash crowd over CDN tiers, catalog-aware",
    small_grid=lambda: {"catalog.zipf_skew": [0.8, 1.2]},
    supports=("topology", "catalog", "reconfig", "churn.join_waves"),
    groups=("cache", "edge"),
)
def build_cdn_catalog(spec: ExperimentSpec) -> BuiltExperiment:
    """One catalog-aware run over the CDN tier graph."""
    swarm = _require_swarm(spec)
    origin_name = _source_group(swarm).member_ids()[0]
    if spec.catalog is None:
        raise SpecError("cdn_catalog needs a catalog spec (catalog)")
    if swarm.topology is None or swarm.topology.kind != "cdn_tiers":
        raise SpecError(
            "cdn_catalog interprets the cdn_tiers topology; set "
            "swarm.topology.kind = 'cdn_tiers'"
        )
    caches = swarm.group("cache")
    edges_group = _require_members(spec, "edge", 1, "one edge peer")
    catalog = ObjectCatalog.from_specs(spec.catalog, swarm)

    n = 1 + caches.count + edges_group.count
    graph = swarm.topology.generate(n, spec.seed)
    tier1 = [i for i in range(n) if graph.tier[i] == 1]
    tier2 = [i for i in range(n) if graph.tier[i] == 2]
    if graph.tier[0] != 0 or len(tier1) != caches.count or len(tier2) != edges_group.count:
        raise SpecError(
            "cdn_catalog's tier graph must place the origin at tier 0, one "
            f"cache per tier-1 node and one edge peer per tier-2 node; got "
            f"tiers {dict(t0=1, t1=len(tier1), t2=len(tier2))} for groups "
            f"(1, {caches.count}, {edges_group.count}) — set "
            "topology params tiers=3, fanout=<cache count>"
        )
    node_name = {0: origin_name}
    node_name.update(dict(zip(tier1, caches.member_ids())))
    node_name.update(dict(zip(tier2, edges_group.member_ids())))
    parent = {}
    for u, v in graph.edges:
        parent.setdefault(v, u)
    edge_names = list(edges_group.member_ids())

    def populate(spec, scn, rng, shared) -> None:
        sim = scn.simulator
        # The origin holds the entire catalog as a plain (non-minting)
        # fully seeded node: fresh-id minting is not object-addressable,
        # and the catalog's id ranges already carry decoding margin.
        all_ids = [i for o in range(catalog.objects) for i in catalog.symbol_ids(o)]
        sim.add_node(
            CatalogNode(
                origin_name,
                catalog,
                demand=(),
                initial_ids=all_ids,
                max_connections=1,
            )
        )
        # Regional caches pre-warm the popular half of the catalog.
        popular = range(math.ceil(catalog.objects / 2))
        cache_ids = [i for o in popular for i in catalog.symbol_ids(o)]
        for name in caches.member_ids():
            sim.add_node(
                CatalogNode(
                    name,
                    catalog,
                    demand=(),
                    initial_ids=cache_ids,
                    max_connections=caches.max_connections,
                )
            )
            sim.connect(origin_name, name)
        # Edge peers each demand one object by Zipf rank; the demand
        # map is shuffled so arrival waves do not confound rank order.
        demand_rng = random.Random(derive_seed(spec.seed, "cdn_catalog", "demand"))
        assignment = catalog.assign_demand(len(edge_names))
        shuffle(demand_rng, assignment)
        demand_of = scn.extras["demand"] = dict(zip(edge_names, assignment))

        def admit_edge(name: str) -> None:
            idx = tier2[edge_names.index(name)]
            sim.add_node(
                CatalogNode(
                    name,
                    catalog,
                    demand=(demand_of[name],),
                    max_connections=edges_group.max_connections,
                )
            )
            sim.connect(node_name[parent[idx]], name)

        _schedule_join_waves(sim, edge_names, spec.churn, admit_edge)

    def run(built: BuiltExperiment) -> RunResult:
        scn = built.scenario
        report = scn.run(max_ticks=spec.measurement.max_ticks)
        metrics, line = _run_block("run", report)
        events: List[str] = [line]
        demand_of = scn.extras["demand"]
        by_rank: Dict[int, List[float]] = {}
        for name in edge_names:
            node = scn.simulator.nodes.get(name)
            if node is None or node.completed_at_tick is None:
                continue
            by_rank.setdefault(demand_of[name], []).append(
                float(node.completed_at_tick)
            )
        for rank in range(catalog.objects):
            ticks = by_rank.get(rank)
            if ticks:
                metrics[f"completion_rank{rank}"] = sum(ticks) / len(ticks)
                events.append(
                    f"rank {rank}: peers={len(ticks)} "
                    f"mean_completion={metrics[f'completion_rank{rank}']:.1f}"
                )
        return RunResult(
            spec=spec,
            completed=report.all_complete,
            metrics=metrics,
            stats=scn.stats,
            events=events,
            extras={"report": report, "demand": demand_of},
        )

    # Reconciliation is catalog-aware: the informed arm's scheme rejects
    # a candidate holding none of a peer's wanted objects before its
    # symbol card is consulted.
    base = reconfig_scheme(spec)
    return _build_swarm(
        spec,
        populate,
        rng=random.Random(derive_seed(spec.seed, "cdn_catalog")),
        scheme=CatalogScheme(catalog, base.kind, base.params_dict()),
        runner=run,
    )


__all__ = ["SCALE_FREE_ARMS", "HUB_COUNT", "scale_free_swarm", "cdn_catalog"]
