"""No interleaving of mutations and reads makes a working set serve a
stale artefact (ROADMAP item 5b).

Everything computed from one working set — summaries of every kind,
card-matrix rows, catalog inventories — is kept current by the one rule
in :meth:`WorkingSet.cached`: served while the version is unchanged,
absorbed when the set only grew, rebuilt otherwise.  The machine drives
that rule through every incremental summary kind, one rebuild-only kind
and two plain ``cached`` keys, with ids on both sides of the min-wise
universe, against a model set and from-scratch builds.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

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
    @initialize(ids=st.sets(_ids, max_size=12))
    def start(self, ids):
        self.ws = WorkingSet(ids)
        self.model = set(ids)

    @rule(symbol_id=_ids)
    def add(self, symbol_id):
        assert self.ws.add(symbol_id) == (symbol_id not in self.model)
        self.model.add(symbol_id)

    @rule(ids=st.lists(_ids, max_size=8))
    def update(self, ids):
        assert self.ws.update(ids) == len(set(ids) - self.model)
        self.model.update(ids)

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
