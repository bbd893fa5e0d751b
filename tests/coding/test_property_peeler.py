"""Property tests for the recoded-symbol peeler (arrival-order invariance).

A solvable recoded batch must peel to the same recovered set no matter
the order packets arrive in ("recoded symbols which are not immediately
useful are often eventually useful"), and ``recoded_useless`` must
count exactly the fully-redundant arrivals.

The batch construction guarantees both properties analytically: chain
symbol ``i`` blends the first ``i`` missing ids with already-known ids,
so each chain symbol resolves exactly one missing id (it can never
arrive fully known — its own id is recoverable only by itself), while
redundant symbols draw constituents solely from the initially known
set, so they are useless at arrival under every permutation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import RecodedPeeler, Packet, xor_payloads
from repro.delivery.working_set import WorkingSet


def build_batch(num_known, num_missing, num_redundant, rng):
    """A solvable chain over missing ids plus fully-redundant blends."""
    known = list(range(num_known))
    missing = list(range(1000, 1000 + num_missing))
    rng.shuffle(missing)
    batch = []
    for i in range(1, num_missing + 1):
        mix = rng.sample(known, rng.randrange(0, min(3, num_known) + 1))
        batch.append(Packet.recoded(frozenset(missing[:i]) | frozenset(mix)))
    for _ in range(num_redundant):
        size = rng.randrange(1, min(4, num_known) + 1)
        batch.append(Packet.recoded(frozenset(rng.sample(known, size))))
    return set(known), set(missing), batch


class TestArrivalOrderInvariance:
    @given(
        num_known=st.integers(min_value=1, max_value=12),
        num_missing=st.integers(min_value=1, max_value=10),
        num_redundant=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        order_seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_order_recovers_same_set_and_counts_useless(
        self, num_known, num_missing, num_redundant, seed, order_seed
    ):
        known, missing, batch = build_batch(
            num_known, num_missing, num_redundant, random.Random(seed)
        )
        arrival = list(batch)
        random.Random(order_seed).shuffle(arrival)

        peeler = RecodedPeeler(known_ids=known)
        recovered = []
        for symbol in arrival:
            recovered.extend(peeler.add_recoded(symbol))

        # Same final set under every permutation: everything solvable
        # was solved, nothing is left pending.
        assert peeler.known_ids == known | missing
        assert sorted(recovered) == sorted(missing)
        assert peeler.pending_count == 0
        # Useless counts exactly the fully-redundant arrivals.
        assert peeler.recoded_received == len(batch)
        assert peeler.recoded_useless == num_redundant

    @given(
        num_known=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_redundant_only_batch_recovers_nothing(self, num_known, seed):
        rng = random.Random(seed)
        known, _, batch = build_batch(num_known, 0, 5, rng)
        peeler = RecodedPeeler(known_ids=known)
        for symbol in batch:
            assert peeler.add_recoded(symbol) == []
        assert peeler.known_ids == known
        assert peeler.recoded_useless == 5

    @given(
        num_missing=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_reversed_vs_forward_order_agree(self, num_missing, seed):
        known, missing, batch = build_batch(5, num_missing, 2, random.Random(seed))
        outcomes = []
        for order in (batch, list(reversed(batch))):
            peeler = RecodedPeeler(known_ids=known)
            for symbol in order:
                peeler.add_recoded(symbol)
            outcomes.append((peeler.known_ids, peeler.recoded_useless))
        assert outcomes[0] == outcomes[1]


# -- known_count: the O(1) completion read ----------------------------------

ID_SPACE = 12
PAYLOAD_BYTES = 4

#: ("enc", id) | ("rec", frozenset of ids) over a small id space, so
#: duplicates, degree-1 recodes and multi-symbol cascades are all common.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("enc"), st.integers(0, ID_SPACE - 1)),
        st.tuples(
            st.just("rec"),
            st.frozensets(st.integers(0, ID_SPACE - 1), min_size=1, max_size=5),
        ),
    ),
    max_size=40,
)


def _payload(symbol_id):
    return bytes([symbol_id + 1]) * PAYLOAD_BYTES


def _blend(ids):
    return xor_payloads(_payload(i) for i in ids)


def _owned(known_ids=(), payloads=None):
    return RecodedPeeler(known_ids=known_ids, payloads=payloads)


def _adopted(known_ids=(), payloads=None):
    return RecodedPeeler.into(WorkingSet(known_ids), payloads=payloads)


@pytest.mark.parametrize("make_peeler", [_owned, _adopted], ids=["owned", "adopted"])
class TestKnownCountInvariant:
    @given(
        initial=st.frozensets(st.integers(0, ID_SPACE - 1), max_size=6),
        ops=_ops,
        with_payloads=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_tracks_the_set_under_any_interleaving(
        self, make_peeler, initial, ops, with_payloads
    ):
        peeler = make_peeler(
            initial,
            {i: _payload(i) for i in initial} if with_payloads else None,
        )
        assert peeler.known_count == len(peeler.known_ids) == len(initial)
        for kind, arg in ops:
            before = peeler.known_count
            if kind == "enc":
                recovered = peeler.add_encoded(
                    arg, _payload(arg) if with_payloads else None
                )
            else:
                recovered = peeler.add_recoded(
                    Packet.recoded(arg, _blend(arg) if with_payloads else None)
                )
            assert len(set(recovered)) == len(recovered)
            assert peeler.known_count == before + len(recovered)
            assert peeler.known_count == len(peeler.known_ids)
            if with_payloads:
                for symbol_id in recovered:
                    assert peeler.payload_of(symbol_id) == _payload(symbol_id)

    @given(initial=st.frozensets(st.integers(0, ID_SPACE - 1), max_size=6), ops=_ops)
    @settings(max_examples=60, deadline=None)
    def test_mutating_the_returned_set_leaves_the_peeler_alone(
        self, make_peeler, initial, ops
    ):
        peeler = make_peeler(initial)
        for kind, arg in ops:
            if kind == "enc":
                peeler.add_encoded(arg)
            else:
                peeler.add_recoded(Packet.recoded(arg))
        held = peeler.known_ids
        count = peeler.known_count
        held.add(ID_SPACE + 1)
        held.discard(next(iter(held)))
        held.clear()
        assert peeler.known_count == count
        assert len(peeler.known_ids) == count
        assert peeler.known_ids is not peeler.known_ids

    def test_cascade_grows_the_count_by_everything_it_resolves(self, make_peeler):
        # 5.4.2's example, fed so one arrival resolves three symbols.
        peeler = make_peeler()
        assert peeler.add_recoded(Packet.recoded(frozenset([5, 8]))) == []
        assert peeler.add_recoded(Packet.recoded(frozenset([5, 13]))) == []
        assert peeler.known_count == 0
        recovered = peeler.add_encoded(13)
        assert sorted(recovered) == [5, 8, 13]
        assert peeler.known_count == 3
