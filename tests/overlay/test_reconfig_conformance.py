"""Conformance suite: reconfiguration policies over every summary kind.

Every registered :class:`~repro.reconcile.base.Summary` adapter must be
able to drive the overlay's admission and rewiring policies through a
:class:`~repro.overlay.reconfiguration.SummaryScheme`, and every kind
must satisfy the same behavioural contract:

* admission is monotone in its threshold (raising the bar never admits
  a candidate the lower bar rejected);
* sources are always admitted and never dropped by rewiring;
* zero-working-set candidates are rejected outright;
* the receiver and its current senders (the same objects) are never
  offered back;
* a seeded run replays bit-identically under ``derive_seed``.
"""

import math
import random

import pytest

from repro.delivery.working_set import DEFAULT_KEY_UNIVERSE
from repro.hashing.permutations import PermutationFamily
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    OpenAdmission,
    RandomRewiring,
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)
from repro.overlay.simulator import OverlaySimulator
from repro.reconcile import summary_kinds
from repro.seeding import derive_rng

#: Modest per-kind build parameters so the conformance sims stay fast.
#: CPI is deliberately sized small: discrepancies inside the bound
#: reconcile exactly, larger ones raise ``DiscrepancyExceeded`` — which
#: the scheme reads as usefulness 1.0 (too different to reconcile is
#: itself the signal) without paying the Θ(d³) recovery.
KIND_PARAMS = {
    "minwise": {"entries": 64},
    "modk": {"modulus": 4},
    "random_sample": {"k": 64},
    "bloom": {"bits_per_element": 8},
    "partitioned_bloom": {},
    "art": {},
    "cpi": {"max_discrepancy": 48},
    # Auto-sized hash widths depend on the summarised set's size, so a
    # scheme must pin the width for cards to stay comparable.
    "hashset": {"hash_bits": 32},
    "wholeset": {},
}

ALL_KINDS = sorted(summary_kinds())


def _scheme(kind: str) -> SummaryScheme:
    return SummaryScheme(kind, KIND_PARAMS.get(kind, {}))


def test_every_registered_kind_is_covered():
    # A newly registered adapter must join this suite explicitly.
    assert set(ALL_KINDS) == set(KIND_PARAMS)


def _node(name, ids, **kwargs):
    return OverlayNode(name, target=200, initial_ids=ids, **kwargs)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestAdmissionConformance:
    def test_monotone_in_threshold(self, kind):
        scheme = _scheme(kind)
        receiver = _node("r", range(100))
        # Candidates spanning full overlap to full disjointness.
        candidates = [
            _node(f"c{off}", range(off, off + 100)) for off in (0, 25, 50, 75, 100)
        ]
        admitted = {}
        for threshold in (0.0, 0.2, 0.5, 0.9):
            policy = SketchAdmission(scheme, min_usefulness=threshold)
            admitted[threshold] = {
                c.node_id for c in candidates if policy.admit(receiver, c)
            }
        thresholds = sorted(admitted)
        for low, high in zip(thresholds, thresholds[1:]):
            assert admitted[high] <= admitted[low], (
                f"{kind}: raising the threshold {low}->{high} admitted "
                f"{admitted[high] - admitted[low]}"
            )

    def test_source_always_admitted(self, kind):
        policy = SketchAdmission(_scheme(kind), min_usefulness=1.0)
        receiver = _node("r", range(100))
        source = OverlayNode("src", target=200, is_source=True)
        assert policy.admit(receiver, source)

    def test_empty_candidate_rejected(self, kind):
        policy = SketchAdmission(_scheme(kind), min_usefulness=0.0)
        receiver = _node("r", range(100))
        assert not policy.admit(receiver, _node("empty", ()))

    def test_identical_content_scores_useless(self, kind):
        scheme = _scheme(kind)
        receiver = _node("r", range(100))
        twin = _node("t", range(100))
        stranger = _node("s", range(1000, 1100))
        assert scheme.usefulness(receiver, twin) < scheme.usefulness(
            receiver, stranger
        )


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestRewiringConformance:
    def test_never_drops_the_source(self, kind):
        policy = UtilityRewiring(_scheme(kind))
        source = OverlayNode("src", target=200, is_source=True)
        receiver = _node("r", range(50), max_connections=2)
        stale = _node("stale", range(50))  # duplicate of the receiver
        better = _node("new", range(1000, 1100))
        drops, _adds = policy.rewire(receiver, [source, stale], [better])
        assert source not in drops

    def test_zero_working_set_candidates_rejected(self, kind):
        policy = UtilityRewiring(_scheme(kind))
        receiver = _node("r", range(50), max_connections=3)
        empty = _node("empty", ())
        full = _node("full", range(500, 600))
        drops, adds = policy.rewire(receiver, [], [empty, full, receiver])
        assert drops == []
        assert empty not in adds
        assert receiver not in adds

    def test_receiver_and_current_senders_are_never_offered(self, kind):
        # A node is its object: passing the engine's own objects back as
        # candidates must not add them again.
        policy = UtilityRewiring(_scheme(kind))
        receiver = _node("r", range(50), max_connections=3)
        held = _node("held", range(500, 600))
        drops, adds = policy.rewire(receiver, [held], [held, receiver])
        assert (drops, adds) == ([], [])

    def test_fills_free_slots_with_useful_candidates(self, kind):
        policy = UtilityRewiring(_scheme(kind))
        receiver = _node("r", range(50), max_connections=2)
        good = _node("good", range(500, 600))
        drops, adds = policy.rewire(receiver, [], [good])
        assert drops == []
        assert adds == [good]

    def test_deterministic_replay_under_derive_seed(self, kind):
        def run_once():
            scheme = _scheme(kind)
            rng = derive_rng(7, "reconfig-conformance", kind)
            sim = OverlaySimulator(
                admission=SketchAdmission(scheme),
                rewiring=UtilityRewiring(scheme),
                reconfigure_every=4,
                rng=rng,
            )
            target = 24
            sim.add_node(OverlayNode("src", target, is_source=True))
            seed_rng = derive_rng(7, "reconfig-conformance", kind, "sets")
            for i in range(5):
                ids = seed_rng.sample(range(36), 12)
                sim.add_node(OverlayNode(f"p{i}", target, initial_ids=ids,
                                         max_connections=2))
                sim.connect("src", f"p{i}")
            return sim.run(max_ticks=400)

        first, second = run_once(), run_once()
        assert first.all_complete
        assert (
            first.ticks,
            first.packets_sent,
            first.packets_useful,
            first.reconfigurations,
            first.control_bytes,
        ) == (
            second.ticks,
            second.packets_sent,
            second.packets_useful,
            second.reconfigurations,
            second.control_bytes,
        )
        assert first.completion_ticks == second.completion_ticks
        assert first.control_bytes > 0  # cards were charged


class TestRandomRewiring:
    def test_never_drops_the_source(self):
        policy = RandomRewiring(rng=random.Random(4))
        source = OverlayNode("src", target=200, is_source=True)
        receiver = _node("r", range(50), max_connections=1)
        candidate = _node("c", range(500, 600))
        for _ in range(25):
            drops, _adds = policy.rewire(receiver, [source], [candidate])
            assert source not in drops

    def test_rejects_empty_candidates(self):
        policy = RandomRewiring(rng=random.Random(5))
        receiver = _node("r", range(50), max_connections=3)
        empty = _node("empty", ())
        drops, adds = policy.rewire(receiver, [], [empty, receiver])
        assert drops == [] and adds == []

    def test_receiver_and_current_senders_are_never_offered(self):
        policy = RandomRewiring(rng=random.Random(5))
        receiver = _node("r", range(50), max_connections=3)
        held = _node("held", range(500, 600))
        drops, adds = policy.rewire(receiver, [held], [held, receiver])
        assert drops == [] and adds == []

    def test_swaps_at_capacity(self):
        policy = RandomRewiring(rng=random.Random(6))
        receiver = _node("r", range(50), max_connections=1)
        current = _node("cur", range(100, 150))
        alt = _node("alt", range(200, 250))
        drops, adds = policy.rewire(receiver, [current], [alt])
        assert drops == [current] and adds == [alt]


class TestHysteresisArgument:
    @pytest.mark.parametrize(
        "value",
        [
            math.nan,  # best > worst + nan is always false: never swapped
            math.inf,  # never swapped either
            -math.inf,
            -0.1,
        ],
        ids=["nan", "inf", "-inf", "negative"],
    )
    def test_refused_with_its_name(self, value):
        with pytest.raises(ValueError, match="hysteresis must be finite and >= 0"):
            UtilityRewiring(default_scheme(), hysteresis=value)

    def test_zero_is_a_margin(self):
        assert UtilityRewiring(default_scheme(), hysteresis=0).hysteresis == 0


class TestOpenAdmission:
    def test_admits_anything_nonempty(self):
        policy = OpenAdmission()
        receiver = _node("r", range(50))
        assert policy.admit(receiver, _node("full", range(10)))
        assert policy.admit(receiver, OverlayNode("s", 10, is_source=True))
        assert not policy.admit(receiver, _node("empty", ()))


class TestSummaryScheme:
    def test_default_scheme_usefulness_matches_the_scalar_minima(self):
        # The Summary-driven estimate and the §4 definition's — the share
        # of permutations whose scalar minima agree — must be the same
        # float: the bit-parity cornerstone.
        scheme = default_scheme()
        family = PermutationFamily(128, DEFAULT_KEY_UNIVERSE, seed=99)
        a = _node("a", range(0, 150))
        b = _node("b", range(75, 225))
        minima_a, minima_b = (
            [perm.min_over(sorted(n.working_set.ids)) for perm in family]
            for n in (a, b)
        )
        matches = sum(x == y for x, y in zip(minima_a, minima_b))
        assert 0.0 < scheme.usefulness(a, b) < 1.0
        assert scheme.usefulness(a, b) == 1.0 - matches / len(family)

    def test_default_scheme_is_the_default_policys_card(self):
        from repro.reconcile import CALLING_CARD

        scheme = default_scheme()
        assert (scheme.kind, scheme.params) == (
            CALLING_CARD.kind,
            CALLING_CARD.params,
        )
        node = _node("n", range(40))
        assert default_scheme().card_of(node) is scheme.card_of(node)

    def test_the_calling_card_and_the_default_scheme_share_one_card(self):
        # A hello's card and the overlay's default card are one cached
        # object of the working set: one family, one entry.
        from repro.reconcile import CALLING_CARD

        node = _node("n", range(40))
        assert CALLING_CARD.summary_of(node.working_set) is default_scheme().card_of(
            node
        )
        assert repr(default_scheme()).startswith("SummaryScheme(")

    def test_unknown_kind_rejected(self):
        from repro.reconcile import UnknownSummaryError

        with pytest.raises(UnknownSummaryError):
            SummaryScheme("nope")

    def test_cards_are_cached_until_the_set_changes(self):
        scheme = SummaryScheme("bloom")
        node = _node("n", range(50))
        first = scheme.card_of(node)
        assert scheme.card_of(node) is first
        node.receive_symbol(999)
        assert scheme.card_of(node) is not first


def _one_epoch(kind, params, scan_budget=0):
    """A 24-peer partially seeded swarm ticked through its first epoch."""
    target = 120
    rng = derive_rng(0, "one-epoch", kind, scan_budget)
    scheme = SummaryScheme(kind, params)
    sim = OverlaySimulator(
        admission=SketchAdmission(scheme),
        rewiring=UtilityRewiring(scheme),
        reconfigure_every=2,
        reconfig_budget=scan_budget,
        rng=rng,
    )
    sim.add_node(OverlayNode("src", target, is_source=True))
    for i in range(24):
        ids = rng.sample(range(int(target * 1.2)), rng.randrange(0, target // 2))
        sim.add_node(OverlayNode(f"p{i}", target, initial_ids=ids, max_connections=3))
        sim.connect("src", f"p{i}")
    sim.tick()
    sim.tick()
    return sim


class TestScheduledEpochs:
    def _sim(self, **kwargs):
        scheme = default_scheme()
        rng = random.Random(11)
        sim = OverlaySimulator(
            admission=SketchAdmission(scheme),
            rewiring=UtilityRewiring(scheme),
            rng=rng,
            **kwargs,
        )
        sim.add_node(OverlayNode("src", 60, is_source=True))
        for i in range(4):
            sim.add_node(
                OverlayNode(f"p{i}", 60, initial_ids=range(i * 10, i * 10 + 20),
                            max_connections=2)
            )
            sim.connect("src", f"p{i}")
        return sim

    def test_epochs_fire_on_the_event_clock(self):
        sim = self._sim(reconfigure_every=5)
        report = sim.run(max_ticks=200)
        assert report.all_complete
        assert report.reconfig_epochs == sim.tick_count // 5
        assert report.control_bytes > 0

    def test_jitter_defers_but_still_reconfigures(self):
        jittered = self._sim(reconfigure_every=5, reconfig_jitter=2.0)
        report = jittered.run(max_ticks=200)
        assert report.all_complete
        assert report.reconfig_epochs > 0
        assert report.reconfigurations > 0

    def test_scan_budget_limits_control_bytes(self):
        full = self._sim(reconfigure_every=5).run(max_ticks=200)
        budgeted = self._sim(reconfigure_every=5, reconfig_budget=2).run(
            max_ticks=200
        )
        assert budgeted.control_bytes < full.control_bytes

    def test_fractional_interval_composes_with_ticks(self):
        sim = self._sim(reconfigure_every=2.5)
        report = sim.run(max_ticks=200)
        assert report.all_complete
        assert report.reconfig_epochs > 0

    def test_late_policy_assignment_still_fires(self):
        # The historical contract: callers may install a rewiring
        # policy after construction; epoch boundaries pick it up.
        rng = random.Random(12)
        sim = OverlaySimulator(reconfigure_every=5, rng=rng)
        sim.add_node(OverlayNode("src", 40, is_source=True))
        sim.add_node(OverlayNode("p0", 40, initial_ids=range(10),
                                 max_connections=2))
        sim.add_node(OverlayNode("p1", 40, initial_ids=range(10, 30),
                                 max_connections=2))
        sim.connect("src", "p0")
        sim.connect("src", "p1")
        sim.rewiring = UtilityRewiring(default_scheme())
        report = sim.run(max_ticks=200)
        assert report.all_complete
        assert report.reconfig_epochs > 0

    def test_scan_budget_orders_one_epochs_cost(self):
        full, mid, small = (
            _one_epoch("minwise", {"entries": 128}, scan_budget=budget).control_bytes
            for budget in (0, 8, 2)
        )
        assert small < mid < full

    @pytest.mark.parametrize(
        "kind, params",
        [("minwise", {"entries": 128}), ("bloom", {"bits_per_element": 8}),
         ("modk", {"modulus": 16})],
    )
    def test_one_epoch_rewires_and_charges_cards(self, kind, params):
        sim = _one_epoch(kind, params)
        assert sim.report().reconfig_epochs == 1
        assert sim.reconfigurations > 0
        assert sim.control_bytes > 0

    def test_negative_jitter_and_budget_rejected(self):
        with pytest.raises(ValueError):
            OverlaySimulator(reconfig_jitter=-1.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            OverlaySimulator(reconfig_budget=-1, rng=random.Random(0))

    @pytest.mark.parametrize(
        "arg, value",
        [
            ("refresh_every", -1),  # t % -1 == 0: refreshed every tick
            ("refresh_every", float("nan")),  # never refreshed
            ("reconfigure_every", float("nan")),  # no epoch scheduled
            ("reconfigure_every", -5),  # no epoch scheduled
            ("reconfig_jitter", float("nan")),  # never jittered
        ],
    )
    def test_cadence_must_be_finite_and_non_negative(self, arg, value):
        with pytest.raises(ValueError, match=arg):
            OverlaySimulator(rng=random.Random(0), **{arg: value})

    @pytest.mark.parametrize(
        "value",
        [
            2.5,  # a TypeError from random.sample at the first epoch
            True,  # silently scanned one candidate
            float("nan"),  # silently scanned every node
        ],
    )
    def test_scan_budget_must_be_a_non_bool_int(self, value):
        with pytest.raises(ValueError, match="reconfig_budget"):
            OverlaySimulator(reconfig_budget=value, rng=random.Random(0))

    def test_zero_cadence_switches_the_pass_off(self):
        sim = OverlaySimulator(reconfigure_every=0, refresh_every=0, rng=random.Random(0))
        assert sim._reconfig_handle is None
