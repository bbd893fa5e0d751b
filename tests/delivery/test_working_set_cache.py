"""No interleaving of mutations and reads makes a working set serve a
stale artefact (ROADMAP item 5b).

Everything computed from one working set — summaries of every kind,
card-matrix rows, catalog inventories — is kept current by the one rule
in :meth:`WorkingSet.cached`: served while the version is unchanged,
absorbed when the set only grew, rebuilt otherwise.  The machine drives
that rule through every incremental summary kind, one rebuild-only kind
and two plain ``cached`` keys, with ids on both sides of the min-wise
universe, against a model set and from-scratch builds.

A receiver's peeler peels *into* its working set
(:meth:`RecodedPeeler.into`), so packets are one more way the set
mutates: the machine feeds an adopting peeler encoded ids and blends
of degree 1-4 (some pending until a later arrival) and holds it to the
same rule — every id it recovers went through :meth:`WorkingSet.add`.
"""

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.coding import RecodedPeeler, Packet
from repro.delivery.working_set import WorkingSet
from repro.reconcile import build_summary, summary_class

#: Every kind that absorbs, plus one that can only rebuild (``modk``).
#: Two parameters each, so a permuted spelling exists.
KINDS = {
    "minwise": {"entries": 16, "seed": 3},
    "bloom": {"bits_per_element": 8, "seed": 1},
    "counting_bloom": {"buckets_per_element": 4, "seed": 2},
    "hashset": {"hash_bits": 24, "seed": 5},
    "modk": {"modulus": 4, "seed": 7},
}
assert all(summary_class(k).supports_incremental for k in KINDS if k != "modk")
assert not summary_class("modk").supports_incremental

# Few distinct values, so adds collide and discards hit; half of them
# beyond 2**32, where min-wise summaries fold into their universe.
_ids = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=(1 << 32) - 3, max_value=(1 << 32) + 40),
    st.integers(min_value=1 << 40, max_value=(1 << 40) + 40),
)


def _total(working_set):
    return sum(working_set)


def _total_more(total, added):
    return total + sum(added)


def _sorted_ids(working_set):
    return tuple(sorted(working_set))


class WorkingSetCacheMachine(RuleBasedStateMachine):
    adopt = staticmethod(RecodedPeeler.into)

    @initialize(ids=st.sets(_ids, max_size=12))
    def start(self, ids):
        self.ws = WorkingSet(ids)
        self.model = set(ids)
        self.peeler = self.adopt(self.ws)
        # Every blend fed and every id ever held: what a recovered id
        # may legitimately have been reduced from and by.
        self.blends = []
        self.ever_held = set(ids)

    @rule(symbol_id=_ids)
    def add(self, symbol_id):
        assert self.ws.add(symbol_id) == (symbol_id not in self.model)
        self.model.add(symbol_id)
        self.ever_held.add(symbol_id)

    @rule(ids=st.lists(_ids, max_size=8))
    def update(self, ids):
        assert self.ws.update(ids) == len(set(ids) - self.model)
        self.model.update(ids)
        self.ever_held.update(ids)

    def _peel(self, blend, feed):
        """Feed one arrival; fold what the peeler recovered into the model."""
        self.blends.append(blend)
        unknown = blend - self.model
        before = self.ws.version
        recovered = feed()
        # Through WorkingSet.add: journalled once each, in recovery order.
        assert self.ws.added_since(before) == recovered
        assert len(set(recovered)) == len(recovered)
        assert not set(recovered) & self.model
        if len(unknown) == 1:
            assert recovered[:1] == list(unknown)
        elif not unknown:
            assert recovered == []
        for symbol_id in recovered:
            assert any(
                symbol_id in b and b - {symbol_id} <= self.ever_held
                for b in self.blends
            )
            self.model.add(symbol_id)
            self.ever_held.add(symbol_id)

    @rule(symbol_id=_ids)
    def peel_encoded(self, symbol_id):
        self._peel(
            frozenset([symbol_id]), lambda: self.peeler.add_encoded(symbol_id)
        )

    @rule(ids=st.frozensets(_ids, min_size=1, max_size=4))
    def peel_recoded(self, ids):
        self._peel(ids, lambda: self.peeler.add_recoded(Packet.recoded(ids)))

    def _waited_on(self):
        """Ids whose arrival reduces a blend still short of two or more."""
        short = [b - self.model for b in self.blends]
        return sorted({i for unknown in short if len(unknown) > 1 for i in unknown})

    @precondition(lambda self: self._waited_on())
    @rule(data=st.data())
    def peel_toward_a_pending_blend(self, data):
        self.peel_encoded(data.draw(st.sampled_from(self._waited_on())))

    @invariant()
    def peeler_reads_the_set_itself(self):
        assert self.peeler.known is self.ws
        assert self.peeler.known_count == len(self.ws) == len(self.model)
        assert set(self.ws) == self.model

    @rule(symbol_id=_ids)
    def discard(self, symbol_id):
        self.ws.discard(symbol_id)
        self.model.discard(symbol_id)

    @rule(kind=st.sampled_from(sorted(KINDS)))
    def summary(self, kind):
        params = KINDS[kind]
        served = self.ws.summary(kind, **params)
        oracle = build_summary(kind, self.model, **params)
        assert served.to_payload() == oracle.to_payload()
        # Unchanged version: the same object, under either spelling.
        assert self.ws.summary(kind, **params) is served
        assert self.ws.summary(kind, **dict(reversed(params.items()))) is served
        assert len([key for key in self.ws._derived if key[0] == kind]) == 1

    @rule()
    def absorbing_artefact(self):
        total = self.ws.cached("total", _total, _total_more)
        assert total == sum(self.model)

    @rule()
    def rebuilt_artefact(self):
        served = self.ws.cached("sorted", _sorted_ids)
        assert served == tuple(sorted(self.model))
        assert self.ws.cached("sorted", _sorted_ids) is served


TestWorkingSetCache = WorkingSetCacheMachine.TestCase
TestWorkingSetCache.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class _MirroringPeeler(RecodedPeeler):
    """Writes the raw id set, skipping the version bump and the journal
    — what a peeler keeping a private mirror of the set amounts to."""

    def _know(self, symbol_id, payload):
        self._known._ids.add(symbol_id)


class _MutantMachine(WorkingSetCacheMachine):
    adopt = staticmethod(_MirroringPeeler.into)


def test_machine_rejects_a_peeler_that_bypasses_working_set_add():
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            _MutantMachine,
            settings=settings(
                max_examples=60,
                stateful_step_count=30,
                deadline=None,
                database=None,
                phases=(Phase.generate,),
            ),
        )
