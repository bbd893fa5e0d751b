"""The one consumption gate: ``build`` holds every spec to what its
scenario's ``@scenario(...)`` registration declares it reads.

Table-driven over the whole registry x every optional shape a spec can
carry: a cell builds exactly when the registration declares the section
(``entry.supports``) or group (``entry.groups``), and raises
:class:`SpecError` otherwise — never silent acceptance.
"""

import dataclasses

import pytest

from repro.api import (
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    NodeSpec,
    ReconfigSpec,
    SimScenario,
    SpecError,
    build,
    registry,
    specs,
)


def _base(name):
    spec = registry.small_spec(name)
    if name == "population_flash_crowd":
        # The declaration is per scenario; of its two fidelities only
        # packet has a data plane for strategy.summary to select.
        spec = spec.with_override("measurement.fidelity", "packet")
    return spec


def _with_swarm(spec, **changes):
    return dataclasses.replace(
        spec, swarm=dataclasses.replace(spec.swarm, **changes)
    )


def _with_churn(spec, **changes):
    churn = spec.churn if spec.churn is not None else ChurnSpec()
    return dataclasses.replace(spec, churn=dataclasses.replace(churn, **changes))


def _a_member(spec):
    """A declared non-source member id ("p0" where none is declared)."""
    peers = [g for g in spec.swarm.nodes if g.role != "source"]
    return peers[-1].member_ids()[0] if peers else "p0"


#: shape -> (spec transform, the section whose declaration admits it;
#: None = no registration can admit it).
SHAPES = {
    "extra_peer_group": (
        lambda s: _with_swarm(
            s, nodes=s.swarm.nodes + (NodeSpec(name="extra", count=2),)
        ),
        None,
    ),
    "link_rule": (
        lambda s: _with_swarm(
            s,
            links=s.swarm.links
            + (LinkRuleSpec(link=LinkSpec(kind="constant", rate=2.0)),),
        ),
        "swarm.links",
    ),
    "join_waves": (
        lambda s: _with_churn(s, join_waves=2, wave_interval=5.0),
        "churn.join_waves",
    ),
    "depart_node": (
        lambda s: _with_churn(s, depart_node=_a_member(s), depart_at=3.0),
        "churn.depart_node",
    ),
    "unknown_depart_node": (
        lambda s: _with_churn(s, depart_node="nobody", depart_at=3.0),
        None,
    ),
    "reconfig": (
        lambda s: s if s.reconfig is not None
        else dataclasses.replace(s, reconfig=ReconfigSpec()),
        "reconfig",
    ),
    "strategy_summary": (lambda s: s.with_summary("bloom"), "summary"),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("name", registry.names())
def test_cell_builds_exactly_when_declared(name, shape):
    transform, section = SHAPES[shape]
    entry = registry.get(name)
    spec = transform(_base(name))
    if section is not None and section in entry.supports:
        assert build(spec).spec == spec
    else:
        with pytest.raises(SpecError):
            build(spec)


@pytest.mark.parametrize("name", registry.names())
def test_miniature_spec_stays_inside_its_declaration(name):
    # The base case of the table: nothing the catalog itself emits is
    # refused, and the declared groups are exactly the emitted ones.
    spec = registry.small_spec(name)
    build(spec)
    peers = [g.name for g in spec.swarm.nodes if g.role != "source"]
    assert sorted(peers) == sorted(registry.get(name).groups)


def _holds_source(spec, sim):
    """The simulator holds the swarm's declared source (or, with no
    groups declared, some source node)."""
    declared = [g.member_ids()[0] for g in spec.swarm.nodes if g.role == "source"]
    if declared:
        return declared[0] in sim.nodes
    return any(node.is_source for node in sim.nodes.values())


@pytest.mark.parametrize("name", registry.names())
def test_swarm_kind_hands_back_a_populated_scenario(name):
    # kind == "swarm" promises a live scenario: the simulator exists and
    # already holds the source before anything runs.
    spec = registry.small_spec(name)
    built = build(spec)
    scn = built.scenario
    populated = isinstance(scn, SimScenario) and _holds_source(spec, scn.simulator)
    assert (built.kind == "swarm") == populated


#: (scenario, group, count, the minimum the refusal names): a group
#: count below the scenario's minimum, in a spec read from JSON.
GROUP_MINIMA = [
    ("session_swarm", "dst", 0, "one receiver"),
    ("flash_crowd", "p", 0, "one non-seeded peer"),
    ("congested_swarm", "p", 0, "one non-seeded peer"),
    ("adaptive_overlay", "a", 0, "one mirror per group"),
    ("scale_free_swarm", "p", 1, "two peers"),
    ("cdn_catalog", "edge", 0, "one edge peer"),
]


@pytest.mark.parametrize("name, group, count, minimum", GROUP_MINIMA)
def test_a_group_below_its_minimum_is_refused_at_build(name, group, count, minimum):
    data = registry.small_spec(name).to_dict()
    (node,) = [n for n in data["swarm"]["nodes"] if n["name"] == group]
    node["count"] = count
    spec = ExperimentSpec.from_dict(data)
    with pytest.raises(SpecError, match=f"needs at least {minimum}; swarm group"):
        build(spec)


def test_refusal_names_the_consumers_from_the_registry():
    spec = dataclasses.replace(specs.pair_transfer(), reconfig=ReconfigSpec())
    with pytest.raises(SpecError) as exc:
        build(spec)
    message = str(exc.value)
    assert "no adaptive overlay" in message
    consumers = registry.consumers("reconfig")
    assert {"congested_swarm", "scale_free_swarm", "cdn_catalog",
            "population_flash_crowd"} <= set(consumers)
    for name in consumers:
        assert name in message


def test_phantom_departure_names_the_declared_members():
    spec = _with_churn(
        registry.small_spec("source_departure"), depart_node="nobody"
    )
    with pytest.raises(SpecError) as exc:
        build(spec)
    message = str(exc.value)
    assert "'nobody'" in message
    assert "src" in message and "p0..p5" in message


def test_joins_after_the_source_departed_with_no_content_holder():
    # A spec the gate accepts must run: with the source gone and every
    # seed empty a joiner's plan chooses nobody and the source fallback
    # has nobody to reach — the joiner stays unconnected (the next epoch
    # wires it), it does not raise KeyError('src') out of run().
    spec = specs.flash_crowd(
        num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=1
    )
    spec = _with_swarm(
        spec,
        nodes=tuple(
            dataclasses.replace(g, seeding="empty") if g.name == "seed" else g
            for g in spec.swarm.nodes
        ),
    )
    spec = _with_churn(spec, depart_node="src", depart_at=0.5)
    spec = spec.with_override("measurement.max_ticks", 50)
    built = build(spec)
    result = built.run()
    assert not result.completed
    assert result.metrics["ticks"] == 50.0
    assert result.metrics["packets_sent"] == 0.0
    plans = built.scenario.extras["join_plans"]
    assert len(plans) == 8
    assert all(plan.selection.chosen == [] for plan in plans.values())
    sim = built.scenario.simulator
    assert "src" not in sim.nodes and not sim.connections


def test_registration_rejects_an_undeclarable_section():
    with pytest.raises(ValueError, match="unknown spec sections"):
        registry.scenario("_typo", supports=("swarm.link",))
    assert "_typo" not in registry.names()


class TestCongestedIsTheFlashCrowdAssembly:
    """``congested_swarm`` = the flash-crowd assembly + a required
    bottleneck + two extra metrics; nothing else differs."""

    def _pair(self):
        congested = registry.small_spec("congested_swarm")
        return congested, dataclasses.replace(congested, scenario="flash_crowd")

    def test_same_events_join_plans_and_metrics(self):
        congested, flash = self._pair()
        built_c, built_f = build(congested), build(flash)
        result_c, result_f = built_c.run(), built_f.run()
        assert result_c.events == result_f.events
        plans_c = built_c.scenario.extras["join_plans"]
        plans_f = built_f.scenario.extras["join_plans"]
        assert list(plans_c) == list(plans_f) and plans_c
        for pid, plan in plans_c.items():
            assert plan.selection.chosen == plans_f[pid].selection.chosen
        extra = {"goodput", "useful_fraction"}
        assert set(result_c.metrics) - set(result_f.metrics) == extra
        for key, value in result_f.metrics.items():
            assert result_c.metrics[key] == value

    def test_wave_schedule_is_transport_independent(self):
        congested, flash = self._pair()
        bare = dataclasses.replace(flash, transport=None)
        waves = [e for e in build(bare).run().events if "wave of" in e]
        assert waves == [e for e in build(congested).run().events if "wave of" in e]
