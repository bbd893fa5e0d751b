"""The 1 KB calling card is 1 KB — in memory, not only on the wire.

Per-peer state bounds how many peers an end system can carry (paper
§2.2), and :meth:`MinwiseSummary.wire_bytes` prices the default card at
``4 + 8 * 128`` bytes.  These pins hold the in-memory card to the same
shape: one packed int64 row, no second per-entry container on the
object, and — measured, not asserted from the layout — under 2 KB of
traced memory per card even after a batch comparison.  As lists of boxed
ints plus a cached array copy, a card took over 5 KB.  No summary of any
kind keeps a copy of the set it was built from: the working set is the
only one.
"""

import json
import random
import tracemalloc
from array import array

import pytest

import repro.hashing.batch as batch
from repro.reconcile import (
    CALLING_CARD,
    build_summary,
    summary_from_payload,
    summary_kinds,
)
from repro.reconcile.adapters import resemblance_rows

CARDS = 1_000


@pytest.fixture(params=["numpy", "numpy-blocked"], autouse=True)
def numpy_lane(request, monkeypatch):
    if request.param == "numpy-blocked":
        monkeypatch.setattr(batch, "_numpy", lambda: None)


_default_card = CALLING_CARD.build  # the 128-entry min-wise card


def test_the_card_is_its_row():
    card = _default_card(range(0, 5_000, 7))
    grown = card.absorb(range(5_000, 5_100))
    both = card.merge(grown)
    wire = summary_from_payload(json.loads(json.dumps(card.to_payload())))
    resemblance_rows(wire.row, wire.rows_of([card, grown, both]))  # caches nothing
    for c in (card, grown, both, wire):
        assert type(c._row) is array and c._row.typecode == "q"
        assert len(c._row) * c._row.itemsize == 8 * c.entries
        assert c.wire_bytes() == 4 + len(c._row) * c._row.itemsize
        per_entry = [
            name
            for name, value in vars(c).items()
            if name != "_row" and hasattr(value, "__len__")
        ]
        assert per_entry == []


def test_a_thousand_cards_take_under_two_kilobytes_each():
    # What a peer holds of its neighbours: cards off the wire.  Any
    # in-universe minima do; drawing them skips a thousand kernel
    # passes.
    payload = _default_card(range(300)).to_payload()
    rng = random.Random("card-footprint")
    rows = [json.dumps(payload)] + [
        json.dumps(
            dict(payload, minima=[rng.randrange(1 << 32) for _ in payload["minima"]])
        )
        for _ in range(CARDS - 1)
    ]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cards = [summary_from_payload(json.loads(row)) for row in rows]
        estimates = resemblance_rows(cards[0].row, cards[0].rows_of(cards))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(estimates) == CARDS and estimates[0] == 1.0
    per_card = (after - before) / CARDS
    assert 8 * cards[0].entries <= per_card < 2_048


#: The set-valued attributes a summary may have: each is what its
#: payload ships under the same name (the keys, their truncated hashes,
#: the mod-k sample).
SHIPPED_SETS = {"wholeset": {"ids"}, "hashset": {"hashes"}, "modk": {"sample"}}


@pytest.mark.parametrize("kind", summary_kinds())
def test_no_summary_keeps_a_copy_of_its_set(kind):
    summary = build_summary(kind, range(0, 3_000, 3))
    sets = {
        name
        for name, value in vars(summary).items()
        if isinstance(value, (set, frozenset))
    }
    assert sets == SHIPPED_SETS.get(kind, set())
    assert sets <= set(summary.to_payload())
