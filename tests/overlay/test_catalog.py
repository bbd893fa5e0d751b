"""The multi-object catalog layer: demand model, node, and scheme.

The catalog must agree with :mod:`repro.flow.demand` by construction —
the same Zipf machinery drives both the packet-level catalogs here and
the flow-fidelity population engine — so the cross-checks compare the
resolved catalog against the flow primitives directly.
"""

import pytest

from repro.api.spec import CatalogSpec, SwarmSpec, NodeSpec
from repro.flow.demand import apportion, zipf_shares
from repro.overlay.catalog import CatalogNode, CatalogScheme, ObjectCatalog
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme


def _swarm(target=60, multiplier=1.2):
    return SwarmSpec(
        target=target,
        distinct_multiplier=multiplier,
        nodes=(
            NodeSpec(name="src", count=1, role="source"),
            NodeSpec(name="p", count=4),
        ),
    )


def _catalog(objects=3, zipf_skew=1.0, size_skew=0.0, priority_tiers=0, **swarm_kw):
    spec = CatalogSpec(
        objects=objects,
        zipf_skew=zipf_skew,
        size_skew=size_skew,
        priority_tiers=priority_tiers,
    )
    return ObjectCatalog.from_specs(spec, _swarm(**swarm_kw))


class TestObjectCatalogFlowCrossChecks:
    def test_sizes_are_flow_apportionment_of_the_swarm_target(self):
        catalog = _catalog(objects=4, size_skew=0.7, target=90)
        expected = [
            max(1, s) for s in apportion(90, zipf_shares(4, 0.7))
        ]
        assert list(catalog.targets) == expected

    def test_demand_shares_are_flow_zipf_shares(self):
        catalog = _catalog(objects=5, zipf_skew=1.3)
        assert list(catalog.demand_shares) == zipf_shares(5, 1.3)

    def test_assign_demand_matches_flow_apportionment(self):
        catalog = _catalog(objects=3, zipf_skew=1.0)
        counts = apportion(10, zipf_shares(3, 1.0))
        assignment = catalog.assign_demand(10)
        assert len(assignment) == 10
        for obj, count in enumerate(counts):
            assert assignment.count(obj) == count
        # Contiguous by rank: popular objects first.
        assert assignment == sorted(assignment)

    def test_single_object_catalog_is_the_degenerate_case(self):
        catalog = _catalog(objects=1, target=50)
        assert catalog.targets == (50,)
        assert catalog.object_of(0) == 0
        assert catalog.object_of(catalog.stride - 1) == 0


class TestObjectCatalogIds:
    def test_symbol_ranges_are_disjoint_and_strided(self):
        catalog = _catalog(objects=3, size_skew=0.5)
        seen = set()
        for obj in range(catalog.objects):
            ids = set(catalog.symbol_ids(obj))
            assert not ids & seen
            seen |= ids
            assert all(catalog.object_of(i) == obj for i in ids)
        assert catalog.stride == max(catalog.distinct) + 1

    def test_priority_tiers_are_monotone_in_rank(self):
        catalog = _catalog(objects=6, priority_tiers=3)
        assert list(catalog.priorities) == sorted(catalog.priorities, reverse=True)
        assert catalog.priorities[0] == 1.0
        assert catalog.priorities[-1] > 0.0

    def test_no_tiers_means_flat_priorities(self):
        catalog = _catalog(objects=4, priority_tiers=0)
        assert set(catalog.priorities) == {1.0}


class TestCatalogNode:
    def test_completion_gates_on_demanded_objects_only(self):
        catalog = _catalog(objects=3)
        node = CatalogNode("n", catalog, demand=(1,))
        assert node.target == catalog.targets[1]
        assert not node.is_complete
        for symbol_id in catalog.symbol_ids(1)[: catalog.targets[1]]:
            node.receive_symbol(symbol_id)
        assert node.is_complete
        # Symbols of undemanded objects are carried but never gate.
        assert node.progress_of(0) == 0

    def test_initial_ids_count_toward_progress(self):
        catalog = _catalog(objects=2)
        ids = list(catalog.symbol_ids(0))[:5]
        node = CatalogNode("n", catalog, demand=(0,), initial_ids=ids)
        assert node.progress_of(0) == 5
        assert node.wanted_objects() == {0}

    def test_empty_demand_is_trivially_complete(self):
        catalog = _catalog()
        origin = CatalogNode("o", catalog)
        assert origin.is_complete
        assert origin.wanted_objects() == frozenset()

    def test_out_of_range_demand_rejected(self):
        catalog = _catalog(objects=2)
        with pytest.raises(ValueError, match="outside catalog"):
            CatalogNode("n", catalog, demand=(5,))


class TestCatalogScheme:
    def _scheme(self, catalog):
        return CatalogScheme(catalog, "minwise", {"entries": 32})

    def test_gate_zeroes_candidates_without_wanted_objects(self):
        catalog = _catalog(objects=2)
        scheme = self._scheme(catalog)
        receiver = CatalogNode("r", catalog, demand=(1,))
        empty = CatalogNode("c", catalog)
        assert scheme.object_weight(receiver, empty) == 0.0
        assert scheme.usefulness(receiver, empty) == 0.0

    def test_gate_scales_with_fill_level(self):
        catalog = _catalog(objects=2)
        scheme = self._scheme(catalog)
        receiver = CatalogNode("r", catalog, demand=(1,))
        ids = list(catalog.symbol_ids(1))
        stocked = CatalogNode("full", catalog, initial_ids=ids)
        partial = CatalogNode("part", catalog, initial_ids=ids[:2])
        assert scheme.object_weight(receiver, stocked) == 1.0
        assert 0.0 < scheme.object_weight(receiver, partial) < 1.0
        assert scheme.object_weight(receiver, partial) < scheme.object_weight(
            receiver, stocked
        )

    def test_fully_stocked_candidate_reproduces_ungated_estimate(self):
        catalog = _catalog(objects=2)
        scheme = self._scheme(catalog)
        base = SummaryScheme("minwise", {"entries": 32})
        receiver = CatalogNode("r", catalog, demand=(0,))
        stocked = CatalogNode(
            "c",
            catalog,
            initial_ids=list(catalog.symbol_ids(0)) + list(catalog.symbol_ids(1)),
        )
        assert scheme.usefulness(receiver, stocked) == base.usefulness(
            receiver, stocked
        )

    def test_sources_and_plain_nodes_pass_ungated(self):
        catalog = _catalog(objects=2)
        scheme = self._scheme(catalog)
        receiver = CatalogNode("r", catalog, demand=(1,))
        source = OverlayNode("src", 10, is_source=True)
        plain = OverlayNode("p", 10, initial_ids=range(5))
        assert scheme.object_weight(receiver, source) == 1.0
        assert scheme.object_weight(receiver, plain) == 1.0

    def test_non_catalog_receiver_passes_ungated(self):
        catalog = _catalog(objects=2)
        scheme = self._scheme(catalog)
        receiver = OverlayNode("r", 10)
        candidate = CatalogNode("c", catalog)
        assert scheme.object_weight(receiver, candidate) == 1.0

    def test_schemes_are_equal_only_over_the_same_catalog(self):
        catalog = _catalog(objects=2)
        scheme = self._scheme(catalog)
        assert scheme == self._scheme(catalog)
        assert hash(scheme) == hash(self._scheme(catalog))
        assert scheme != self._scheme(_catalog(objects=2))
        assert scheme != SummaryScheme("minwise", {"entries": 32})
        assert SummaryScheme("minwise", {"entries": 32}) != scheme

    def test_card_wire_bytes_charges_the_inventory(self):
        catalog = _catalog(objects=5)
        scheme = self._scheme(catalog)
        base = SummaryScheme("minwise", {"entries": 32})
        node = CatalogNode("n", catalog, initial_ids=list(catalog.symbol_ids(0)))
        card = scheme.card_of(node)
        assert card is base.card_of(node)
        assert scheme.card_wire_bytes(card) == base.card_wire_bytes(card) + 5
