"""Conformance suite: every registered Summary adapter, one contract.

Parametrized over the registry, so a newly registered kind is tested
automatically: payload round-trips (through real JSON), honest wire
sizes, merge semantics, capability flags that do what they claim — and
raise :class:`SummaryError` when they claim nothing.
"""

import json
import random

import pytest

from repro.reconcile import (
    SummaryError,
    build_summary,
    summary_class,
    summary_from_payload,
    summary_kinds,
)
from repro.reconcile.adapters import resemblance_rows

#: Build parameters keeping every kind fast and exact kinds feasible on
#: the conformance sets (|A Δ B| stays well under the CPI bound).
PARAMS = {
    "cpi": {"max_discrepancy": 96},
    "minwise": {"entries": 64},
}


def params_for(kind):
    return PARAMS.get(kind, {})


@pytest.fixture(scope="module")
def sets():
    """Equal-size sets (merge-compatible geometry for every kind) with a
    symmetric difference of 60 — comfortably inside the CPI bound."""
    rng = random.Random(42)
    a = set(rng.sample(range(1500), 260))
    b = set(a)
    b.difference_update(rng.sample(sorted(a), 30))
    b.update(rng.sample(sorted(set(range(1500)) - a), 30))
    return a, b


ALL_KINDS = summary_kinds()


class TestRegistry:
    def test_expected_kinds_registered(self):
        assert set(ALL_KINDS) >= {
            "minwise",
            "modk",
            "random_sample",
            "bloom",
            "partitioned_bloom",
            "art",
            "cpi",
            "hashset",
            "wholeset",
        }

    def test_unknown_kind_lists_known(self):
        with pytest.raises(KeyError, match="registered kinds"):
            summary_class("nope")

    def test_payload_without_kind_rejected(self):
        with pytest.raises(SummaryError, match="kind"):
            summary_from_payload({"set_size": 3})

    def test_bad_params_fold_into_summary_error(self):
        with pytest.raises(SummaryError, match="invalid parameters"):
            build_summary("bloom", [1, 2], no_such_parameter_anywhere=3)

    def test_out_of_range_params_fold_into_summary_error(self):
        """Values the underlying structures reject surface as one type."""
        for kind, params in [
            ("minwise", {"entries": 0}),
            ("bloom", {"k_hashes": 0}),
            ("cpi", {"max_discrepancy": 0}),
        ]:
            with pytest.raises(SummaryError):
                build_summary(kind, [1, 2], **params)


class TestPayloadFaults:
    """What a one-minute mutation fuzz found (ROADMAP 6c), as pins: a
    payload is refused with :class:`SummaryError` — never accepted to
    hang its first reader, never a bare ``ValueError`` / ``KeyError``."""

    @pytest.mark.parametrize(
        "kind, path",
        [
            ("bloom", ("k_hashes",)),
            ("bloom", ("m_bits",)),
            ("partitioned_bloom", ("k_hashes",)),
            ("partitioned_bloom", ("m_bits",)),
            ("art", ("leaf", "k_hashes")),
            ("art", ("internal", "k_hashes")),
            ("art", ("internal", "m_bits")),
        ],
    )
    def test_filter_sizes_are_bound_by_the_payloads_own_bytes(self, kind, path):
        """``k_hashes = 2**70`` used to be accepted; the first
        ``may_contain`` then built a ``k_hashes``-long index list."""
        payload = json.loads(json.dumps(build_summary(kind, range(40)).to_payload()))
        wire = summary_from_payload(payload)  # the unedited payload is fine
        assert all(wire.may_contain(x) for x in range(40))
        holder = payload
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = 1 << 70
        with pytest.raises(SummaryError):
            summary_from_payload(payload)

    def test_a_filter_may_probe_every_payload_bit_but_no_more(self):
        s = build_summary("bloom", range(2), bits_per_element=8, k_hashes=16)
        assert s.m == 16
        payload = s.to_payload()
        assert summary_from_payload(payload).may_contain(3)
        payload["k_hashes"] = 17
        with pytest.raises(SummaryError, match="k_hashes"):
            summary_from_payload(payload)

    @pytest.mark.parametrize("bits", [0, 65, -3, 1 << 70])
    def test_hashset_width_is_a_summary_error(self, bits):
        payload = build_summary("hashset", range(10)).to_payload()
        payload["hash_bits"] = bits
        with pytest.raises(SummaryError, match="hash width"):
            summary_from_payload(payload)

    @pytest.mark.parametrize(
        "kind, edit",
        [
            # The first missing_from raised a bare ValueError.
            ("cpi", {"max_discrepancy": 0}),
            ("cpi", {"max_discrepancy": -1}),
            ("art", {"correction": -1}),
            # Accepted without the evaluations the bound promises; with a
            # bound of 100 000 the first search ran for minutes.
            ("cpi", {"evaluations": []}),
            ("cpi", {"max_discrepancy": 100_000}),
            ("cpi", {"verify_evaluations": [1, 2]}),
        ],
    )
    def test_a_bound_the_payload_cannot_serve_is_refused(self, kind, edit):
        payload = build_summary(kind, range(40)).to_payload()
        payload.update(edit)
        with pytest.raises(SummaryError):
            summary_from_payload(payload)

    def test_an_unknown_kind_is_a_summary_error_and_still_a_key_error(self):
        from repro.reconcile import UnknownSummaryError

        assert issubclass(UnknownSummaryError, SummaryError)
        assert issubclass(UnknownSummaryError, KeyError)
        with pytest.raises(SummaryError, match="registered kinds"):
            summary_from_payload({"kind": "nope", "set_size": 0})
        with pytest.raises(SummaryError, match="registered kinds"):
            build_summary("nope", [1, 2])


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestConformance:
    def test_build_reports_set_size(self, kind, sets):
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        assert s.kind == kind
        assert s.set_size == len(a)

    def test_payload_round_trip_through_json(self, kind, sets):
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        payload = json.loads(json.dumps(s.to_payload()))
        assert payload["kind"] == kind
        r = summary_from_payload(payload)
        assert type(r) is type(s)
        assert r.set_size == s.set_size
        # Round-tripping again is stable.
        assert r.to_payload() == s.to_payload()

    def test_wire_bytes_honest_and_stable(self, kind, sets):
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        wire = s.wire_bytes()
        assert wire > 0
        r = summary_from_payload(json.loads(json.dumps(s.to_payload())))
        assert r.wire_bytes() == wire

    def test_capability_flags_honest(self, kind, sets):
        """A False flag raises SummaryError; a True flag answers."""
        a, b = sets
        cls = summary_class(kind)
        s = build_summary(kind, a, **params_for(kind))
        other = build_summary(kind, b, **params_for(kind))
        if cls.supports_membership:
            assert isinstance(s.may_contain(next(iter(a))), bool)
        else:
            with pytest.raises(SummaryError):
                s.may_contain(1)
        if cls.supports_difference:
            assert isinstance(s.missing_from(sorted(b)), list)
        else:
            with pytest.raises(SummaryError):
                s.missing_from(sorted(b))
        if cls.supports_estimate:
            assert s.estimate_difference(other, a) >= 0.0
        else:
            with pytest.raises(SummaryError):
                s.estimate_difference(other, a)

    def test_membership_has_no_false_negatives(self, kind, sets):
        a, _ = sets
        cls = summary_class(kind)
        if not cls.supports_membership:
            pytest.skip(f"{kind} has no membership surface")
        s = build_summary(kind, a, **params_for(kind))
        assert all(s.may_contain(x) for x in a)

    def test_missing_from_is_sound(self, kind, sets):
        """Everything reported missing is genuinely missing (never a
        false 'useful' symbol — the property recoded transfers rely on)."""
        a, b = sets
        cls = summary_class(kind)
        if not cls.supports_difference:
            pytest.skip(f"{kind} has no difference surface")
        s = build_summary(kind, a, **params_for(kind))
        wire = summary_from_payload(json.loads(json.dumps(s.to_payload())))
        missing = wire.missing_from(sorted(b))
        assert set(missing) <= b - a
        if cls.exact:
            assert set(missing) == b - a

    def test_estimate_tracks_truth(self, kind, sets):
        a, b = sets
        cls = summary_class(kind)
        if not cls.supports_estimate:
            pytest.skip(f"{kind} has no estimator")
        sa = build_summary(kind, a, **params_for(kind))
        sb = build_summary(kind, b, **params_for(kind))
        true_d = len(a ^ b)
        est = sb.estimate_difference(sa, b)
        if cls.exact:
            assert est == true_d
        else:
            # Calling-card precision: right order of magnitude is the
            # contract (64 entries / small samples on ~260-element sets).
            assert abs(est - true_d) <= max(12, 1.2 * true_d)
        # Feasibility clamps always hold.
        assert abs(sa.set_size - sb.set_size) <= est <= sa.set_size + sb.set_size

    def test_only_minwise_merges(self, kind, sets):
        """The §4 union of calling cards is the one merge the system
        makes (join planning's coverage card): min-wise merges to the
        union's minima, every other kind refuses."""
        a, b = sets
        sa = build_summary(kind, a, **params_for(kind))
        sb = build_summary(kind, b, **params_for(kind))
        if kind != "minwise":
            with pytest.raises(SummaryError, match="do not support merging"):
                sa.merge(sb)
            return
        merged = sa.merge(sb)
        assert merged.minima == build_summary(kind, a | b, **params_for(kind)).minima
        # The larger operand's size, a lower bound on the union's.
        assert merged.set_size == max(len(a), len(b))

    @pytest.mark.parametrize("size", [40, 400])
    def test_a_wire_summary_answers_as_the_original(self, kind, size):
        """A summary holds no ids: rebuilt from its payload it gives the
        same estimate, ``missing_from`` and ``may_contain`` answers as
        the original, given the same ids."""
        cls = summary_class(kind)
        rng = random.Random(f"wire-{kind}-{size}")
        a = set(rng.sample(range(4 * size), size))
        b = set(rng.sample(sorted(a), size - 10)) | set(
            rng.sample(range(4 * size, 5 * size), 10)
        )
        s = build_summary(kind, a, **params_for(kind))
        wire = summary_from_payload(json.loads(json.dumps(s.to_payload())))
        other = build_summary(kind, b, **params_for(kind))
        probes = sorted(b) + [rng.randrange(1 << 40) for _ in range(50)]
        for theirs in (other, summary_from_payload(other.to_payload())):
            if cls.supports_estimate:
                assert wire.estimate_difference(theirs, a) == (
                    s.estimate_difference(theirs, a)
                )
        if cls.supports_difference:
            assert wire.missing_from(probes) == s.missing_from(probes)
        if cls.supports_membership:
            assert [wire.may_contain(x) for x in probes] == [
                s.may_contain(x) for x in probes
            ]

    def test_empty_set_builds_and_round_trips(self, kind):
        s = build_summary(kind, [], **params_for(kind))
        assert s.set_size == 0
        r = summary_from_payload(json.loads(json.dumps(s.to_payload())))
        assert r.set_size == 0
        assert r.wire_bytes() == s.wire_bytes()


@pytest.mark.parametrize(
    "kind, other",
    [(kind, other) for kind in ALL_KINDS for other in ALL_KINDS if other != kind],
)
def test_a_card_of_another_kind_is_refused(kind, other, sets):
    """Two kinds never combine: a receiver holding one kind's card
    refuses a peer's card of another kind, and so does a merge."""
    a, b = sets
    sa = build_summary(kind, a, **params_for(kind))
    sb = build_summary(other, b, **params_for(other))
    with pytest.raises(SummaryError, match="cannot combine"):
        sa.estimate_difference(sb, a)
    with pytest.raises(SummaryError):
        sa.merge(sb)


class TestKindSpecifics:
    @pytest.mark.parametrize("numpy_lane", ["numpy", "numpy-blocked"])
    def test_bloom_build_matches_the_scalar_insertion(
        self, sets, numpy_lane, monkeypatch
    ):
        """The card sets the bits of the classic scalar insertion loop,
        sized ``8 n`` bits with the optimal hash count."""
        import repro.hashing.batch as batch
        from repro.hashing.families import BloomHashes
        from repro.reconcile import optimal_hash_count

        if numpy_lane == "numpy-blocked":
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        a, _ = sets
        s = build_summary("bloom", a, bits_per_element=8)
        m = 8 * len(a)
        assert (s.m, s.k, s.count) == (m, optimal_hash_count(m, len(a)), len(a))
        bits = bytearray(m // 8)
        for key in sorted(a):
            for i in BloomHashes(s.k, m, 0).indices(key):
                bits[i >> 3] |= 1 << (i & 7)
        assert s.bits == bits

    @pytest.mark.parametrize("numpy_lane", ["numpy", "numpy-blocked"])
    def test_bloom_missing_from_matches_the_membership_walk(
        self, sets, numpy_lane, monkeypatch
    ):
        """The batched ``missing_from`` override answers exactly as the
        inherited ``may_contain`` walk would — order, duplicates and
        keys past the 32-bit universe included."""
        import repro.hashing.batch as batch

        if numpy_lane == "numpy-blocked":
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        a, b = sets
        s = build_summary("bloom", a, bits_per_element=4)
        rng = random.Random("bloom-missing-from")
        candidates = sorted(b) + [rng.randrange(1 << 40) for _ in range(200)]
        candidates += [(1 << 32) + x for x in sorted(a)[:20]] + [1 << 63, 0]
        candidates += rng.choices(candidates, k=100)  # duplicates
        rng.shuffle(candidates)
        walk = [x for x in candidates if not s.may_contain(x)]
        assert s.missing_from(candidates) == walk
        assert s.missing_from(iter(candidates)) == walk
        assert 0 < len(walk) < len(candidates)
        assert s.missing_from([]) == []

    def test_minwise_build_matches_the_scalar_minima(self, sets):
        from repro.hashing.permutations import PermutationFamily

        a, _ = sets
        s = build_summary("minwise", a, entries=64, seed=5)
        family = PermutationFamily(64, 1 << 32, seed=5)
        assert s.minima == [perm.min_over(sorted(a)) for perm in family]

    def test_cpi_raises_past_its_bound(self, sets):
        from repro.exact.cpi import DiscrepancyExceeded

        a, b = sets
        s = build_summary("cpi", a, max_discrepancy=4)
        with pytest.raises(DiscrepancyExceeded):
            s.missing_from(sorted(b))

    def test_partitioned_bloom_uncovered_keys_unknown(self, sets):
        a, _ = sets
        s = build_summary("partitioned_bloom", a, rho=4, beta=1)
        uncovered = [x for x in range(200) if not s.covers(x)]
        assert uncovered
        # Unknown keys must answer "may contain" — never a false missing.
        assert all(s.may_contain(x) for x in uncovered)

    def test_art_search_beats_per_key_probing_budget(self, sets):
        """The trie search visits O(d log n) nodes, not O(n) probes."""
        from repro.art.tree import ReconciliationTrie
        from repro.art.search import find_difference

        a, b = sets
        s = build_summary("art", a, bits_per_element=8, correction=1)
        trie = ReconciliationTrie(sorted(b), seed=0)
        stats = find_difference(trie, s, correction=1)
        assert stats.nodes_visited < 2 * len(b)

    def test_incompatible_merge_rejected(self):
        s1 = build_summary("minwise", range(10), entries=16, seed=1)
        s2 = build_summary("minwise", range(10), entries=16, seed=2)
        with pytest.raises(SummaryError, match="family"):
            s1.merge(s2)

    @pytest.mark.parametrize(
        "kind",
        ["random_sample", "bloom", "partitioned_bloom", "art", "cpi"],
    )
    def test_an_estimate_that_reads_its_own_ids_asks_the_caller(self, kind, sets):
        a, b = sets
        s = build_summary(kind, a, **params_for(kind))
        other = build_summary(kind, b, **params_for(kind))
        with pytest.raises(SummaryError, match="needs the ids"):
            s.estimate_difference(other)

    @pytest.mark.parametrize(
        "ids",
        [[2**32, 0, 1, 2**32 + 1, 0], [2**40 + i for i in range(9)] + [0, 1, 2**40]],
        ids=["2**32", "2**40"],
    )
    def test_minwise_set_size_counts_the_ids_given(self, ids):
        """Counted before the ``% universe`` fold, as every kind counts."""
        assert build_summary("minwise", ids).set_size == len(set(ids))

    def test_minwise_payload_rejects_non_integer_minima(self):
        s = build_summary("minwise", range(10), entries=2)
        payload = s.to_payload()
        payload["minima"] = ["a", "b"]
        with pytest.raises(SummaryError, match="integers or null"):
            summary_from_payload(payload)

    @pytest.mark.parametrize(
        "edit",
        [
            # The first estimate used to divide by zero.
            {"entries": 0, "minima": []},
            # -1 is the batch kernel's "unset" sentinel; 2**70 overflowed
            # its int64 row with a bare OverflowError.
            {"minima": [-1, 5]},
            {"minima": [1 << 70, 5]},
            {"minima": [1 << 32, 5]},
            {"universe": 0},
            {"set_size": -1},
        ],
        ids=["no-entries", "negative", "beyond-int64", "at-universe",
             "no-universe", "negative-size"],
    )
    def test_minwise_payload_rejects_what_no_card_can_hold(self, edit):
        payload = build_summary("minwise", range(10), entries=2).to_payload()
        payload.update(edit)
        with pytest.raises(SummaryError):
            summary_from_payload(payload)

    def test_minwise_wire_card_estimates_like_the_original(self, sets, monkeypatch):
        a, b = sets
        cards = [
            build_summary("minwise", ids, entries=64)
            for ids in (a, b, a | b, set())
        ]
        wire = [
            summary_from_payload(json.loads(json.dumps(c.to_payload())))
            for c in cards
        ]
        expected = [[x.estimate_resemblance(y) for y in cards] for x in cards]
        assert [[x.estimate_resemblance(y) for y in wire] for x in wire] == expected
        # The row kernel takes a card with every position set: a
        # non-empty one.
        full = [i for i, x in enumerate(wire) if x.set_size]
        for lane in ("numpy", "scalar"):
            if lane == "scalar":
                monkeypatch.setattr("repro.hashing.batch._numpy", lambda: None)
            by_rows = [resemblance_rows(wire[i].row, wire[i].rows_of(wire)) for i in full]
            assert by_rows == [expected[i] for i in full]

    def test_cpi_wire_bytes_for_bound_matches_real_sketch(self):
        from repro.reconcile.adapters import CPISummary

        s = build_summary("cpi", range(50), max_discrepancy=24)
        assert CPISummary.wire_bytes_for_bound(24) == s.wire_bytes()

    def test_working_set_summary_surface(self, sets):
        """WorkingSet.summary(kind) is the same registry, one call away."""
        from repro.delivery import WorkingSet

        a, _ = sets
        ws = WorkingSet(a)
        for kind in ("minwise", "bloom", "art"):
            s = ws.summary(kind, **params_for(kind))
            assert s.kind == kind
            assert s.set_size == len(a)


INCREMENTAL_KINDS = [k for k in ALL_KINDS if summary_class(k).supports_incremental]
REBUILD_ONLY_KINDS = [k for k in ALL_KINDS if not summary_class(k).supports_incremental]


class TestIncrementalConformance:
    """``absorb`` == from-scratch rebuild, payload for payload.

    The contract the overlay's stamped card caches rely on: a card
    updated by absorbing the working set's add-journal — ids not yet
    summarised, each once — must be indistinguishable on the wire from
    one rebuilt over the whole set.  Only the min-wise card absorbs.
    """

    def test_only_minwise_absorbs(self):
        assert INCREMENTAL_KINDS == ["minwise"]

    @pytest.mark.parametrize("trial", range(6))
    @pytest.mark.parametrize("kind", INCREMENTAL_KINDS)
    def test_absorb_matches_rebuild_over_random_add_sequences(self, kind, trial):
        """Random base set, random deltas of new ids, derived seeds."""
        rng = random.Random(f"incremental-{kind}-{trial}")
        universe = 5000
        base = set(rng.sample(range(universe), rng.randint(0, 120)))
        summary = build_summary(kind, base, **params_for(kind))
        current = set(base)
        for _ in range(rng.randint(1, 4)):
            unseen = sorted(set(range(universe)) - current)
            delta = rng.sample(unseen, rng.randint(0, 80))
            summary = summary.absorb(delta)
            current.update(delta)
        extra = rng.choice(sorted(set(range(universe)) - current))
        summary = summary.absorb((extra,))  # a single new key
        current.add(extra)
        rebuilt = build_summary(kind, current, **params_for(kind))
        assert summary.to_payload() == rebuilt.to_payload()
        assert summary.set_size == len(current)
        assert summary.wire_bytes() == rebuilt.wire_bytes()

    @pytest.mark.parametrize("kind", INCREMENTAL_KINDS)
    def test_absorb_matches_rebuild_without_numpy(self, kind, monkeypatch):
        """The scalar fallbacks produce the same payloads bit for bit."""
        import repro.hashing.batch as batch

        rng = random.Random(f"incremental-scalar-{kind}")
        base = set(rng.sample(range(3000), 90))
        delta = rng.sample(sorted(set(range(3000)) - base), 50)
        monkeypatch.setattr(batch, "_numpy", lambda: None)
        summary = build_summary(kind, base, **params_for(kind)).absorb(delta)
        rebuilt = build_summary(kind, base | set(delta), **params_for(kind))
        assert summary.to_payload() == rebuilt.to_payload()

    @pytest.mark.parametrize("kind", INCREMENTAL_KINDS)
    def test_absorb_never_mutates_the_receiver(self, kind, sets):
        """Handed-out references (cached cards) must stay valid."""
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        before = s.to_payload()
        s.absorb([4999, 4998])
        assert s.to_payload() == before

    @pytest.mark.parametrize("kind", INCREMENTAL_KINDS)
    def test_absorbing_nothing_is_the_same_card(self, kind, sets):
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        assert s.absorb(()) is s

    @pytest.mark.parametrize("kind", INCREMENTAL_KINDS)
    def test_a_wire_card_absorbs_as_the_original(self, kind, sets):
        """A card holds no ids, so one off the wire absorbs alike."""
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        wire = summary_from_payload(json.loads(json.dumps(s.to_payload())))
        assert wire.absorb([4999, 4998]).to_payload() == (
            s.absorb([4999, 4998]).to_payload()
        )

    @pytest.mark.parametrize("kind", REBUILD_ONLY_KINDS)
    def test_rebuild_only_kinds_refuse_absorb(self, kind, sets):
        a, _ = sets
        s = build_summary(kind, a, **params_for(kind))
        with pytest.raises(SummaryError, match="incremental"):
            s.absorb([1])
