"""The flow engine's bitmaps against plain-set oracles.

Ground truth in :class:`~repro.flow.FlowSimulator` is a bit count over
each object's ordered id space: novelty is ``1 - |S & R| / |S|`` and a
peer sender's draw picks positions of ``S & ~R`` with ``rng.sample``
over ``range``.  These tests run small simulators end to end and check
every call against what plain sets give — the novel fraction from
``set`` intersection, and the ids, order and RNG state of
``rng.sample(sorted(S - R), k)`` on a cloned RNG — with numpy and with
:func:`repro.hashing.batch._numpy` patched to ``None``.  Whole-result
hashes pin the small population spec across policies and tier counts.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.batch as batch
from repro.api import run
from repro.api.registry import small_spec
from repro.flow import CohortDef, FlowSimulator
from repro.flow.engine import _select
from repro.overlay.reconfiguration import (
    RandomRewiring,
    SketchAdmission,
    UtilityRewiring,
    default_scheme,
)

GATES = ["numpy", "no-numpy"]


class _Oracle:
    """Wraps the two ground-truth methods; every call is checked."""

    def __init__(self, patch):
        self.novelty_checks = 0
        self.peer_draws = 0
        self.source_draws = 0
        novel = FlowSimulator._novel_fraction
        apply = FlowSimulator._apply_rep_update

        def checked_novel(sim, receiver, sender):
            got = novel(sim, receiver, sender)
            if sender.is_source:
                expected = 1.0
            else:
                s = set(sender.rep.working_set)
                r = set(receiver.rep.working_set)
                expected = 1.0 - (len(s & r) / len(s) if s else 1.0)
            assert got == expected
            self.novelty_checks += 1
            return got

        def checked_apply(sim, receiver, sender, k):
            ws = receiver.rep.working_set
            stamp = ws.version
            clone = random.Random()
            clone.setstate(sim.rng.getstate())
            if sender.is_source:
                apply(sim, receiver, sender, k)
                added = ws.added_since(stamp)
                assert len(added) == k
                assert added == list(range(added[0], added[0] + k))
                assert all(i > max(receiver.space.ids[: receiver.space.width])
                           for i in added)
                self.source_draws += 1
            else:
                pool = sorted(set(sender.rep.working_set) - set(ws))
                expected = clone.sample(pool, min(k, len(pool))) if pool else []
                apply(sim, receiver, sender, k)
                assert ws.added_since(stamp) == expected
                self.peer_draws += bool(expected)
            assert sim.rng.getstate() == clone.getstate()

        patch.setattr(FlowSimulator, "_novel_fraction", checked_novel)
        patch.setattr(FlowSimulator, "_apply_rep_update", checked_apply)


def _gate(patch, gate):
    if gate == "no-numpy":
        patch.setattr(batch, "_numpy", lambda: None)


def _object(obj, demand, extra, mirrors, waves):
    distinct = demand + extra
    cohorts = [
        CohortDef(f"o{obj}.m{i}", obj, members, demand=demand, distinct=distinct,
                  initial_fraction=fraction, slice_index=i % 2)
        for i, (members, fraction) in enumerate(mirrors)
    ]
    cohorts += [
        CohortDef(f"o{obj}.w{i}", obj, members, arrival=arrival, demand=demand,
                  distinct=distinct)
        for i, (members, arrival) in enumerate(waves)
    ]
    return cohorts


def _objects(max_mirrors):
    return st.tuples(
        st.integers(8, 60),
        st.integers(0, 30),
        st.lists(st.tuples(st.integers(1, 5), st.sampled_from([0.3, 0.5, 0.7])),
                 min_size=1, max_size=max_mirrors),
        st.lists(st.tuples(st.integers(1, 20),
                           st.sampled_from([0.0, 2.5, 5.5, 7.0])),
                 min_size=1, max_size=2),
    )


def _simulator(seed, objects, policy, strategy, sample_cap, rate, tiers, interval):
    rng = random.Random(seed)
    if policy == "informed":
        scheme = default_scheme()
        admission, rewiring = SketchAdmission(scheme), UtilityRewiring(scheme)
    elif policy == "random":
        admission, rewiring = None, RandomRewiring(rng=rng)
    else:
        admission, rewiring = None, None
    cohorts = [c for obj, spec in enumerate(objects) for c in _object(obj, *spec)]
    return FlowSimulator(
        cohorts, rate=rate, loss_rate=0.05, interval=interval,
        rate_tiers=tiers, rate_spread=0.3, max_connections=3,
        admission=admission, rewiring=rewiring, strategy_name=strategy,
        sample_cap=sample_cap, rng=rng,
    )


@pytest.mark.parametrize("gate", GATES)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    # Two mirrors on complementary slices can hold a whole object, and
    # an informed epoch may then drop the source before it ever sends;
    # a lone mirror holds at most 70 %, so the first object needs it.
    objects=st.tuples(_objects(max_mirrors=1), _objects(max_mirrors=2)),
    policy=st.sampled_from(["informed", "random", "static"]),
    strategy=st.sampled_from(["Random", "Recode/BF"]),
    sample_cap=st.sampled_from([16, 32, 256]),
    rate=st.sampled_from([0.5, 1.0, 3.0]),
    tiers=st.integers(1, 3),
    interval=st.sampled_from([2.5, 5.0]),
)
def test_every_ground_truth_call_matches_plain_sets(
    gate, seed, objects, policy, strategy, sample_cap, rate, tiers, interval
):
    with pytest.MonkeyPatch.context() as patch:
        _gate(patch, gate)
        oracle = _Oracle(patch)
        sim = _simulator(seed, objects, policy, strategy, sample_cap, rate,
                         tiers, interval)
        sim.run(max_ticks=60)
    assert oracle.source_draws > 0


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("policy", ["informed", "random"])
def test_a_rewired_run_checks_peer_draws_too(gate, policy):
    """The property above may draw static runs only; this one is pinned
    to exercise the peer-sender branch on both objects."""
    objects = [(40, 8, [(3, 0.5), (3, 0.5)], [(12, 0.0), (6, 5.5)])] * 2
    with pytest.MonkeyPatch.context() as patch:
        _gate(patch, gate)
        oracle = _Oracle(patch)
        sim = _simulator(3, objects, policy, "Random", 32, 1.0, 2, 2.5)
        sim.run(max_ticks=200)
    assert oracle.peer_draws > 0 and oracle.novelty_checks > 0


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(0, 3000), min_size=1, max_size=400), st.data())
def test_select_is_the_jth_smallest_set_bit(positions, data):
    bits = sum(1 << p for p in positions)
    ordered = sorted(positions)
    j = data.draw(st.integers(0, len(ordered) - 1))
    assert _select(bits, j) == ordered[j]


#: sha256 of ``run(spec).to_json(include_series=True)`` for the small
#: ``population_flash_crowd`` spec, recorded before the flow engine's
#: ground truth became a bit count.
PINNED = {
    ("informed", 1): "ad64f99c2fee1333e812befdef647e1817e485ca131cea8e8daa688db16e1f00",
    ("informed", 3): "237e8ccdaf5475688e6180724690ed1f454f2832436819ddbb283b9832d0fe8b",
    ("random", 1): "49c7178d5aa5ef7ba580e86f7916a5368656c54f753e0c14c92c875747ff76c6",
    ("random", 3): "58aa7c0b1eb641deec5ac9f0e0e27937aa676644d2b4323e8a552e7b393e3131",
    ("static", 1): "a7a706c29301499966338faa5c4a96a0a795d50fc4367204e4255c8d3e8e91c0",
    ("static", 3): "e64a2599e46148a43eeeb0f5a7ce268f68665747f0a845077f21c49bf7e61772",
}


@pytest.mark.parametrize("gate", GATES)
@pytest.mark.parametrize("policy,tiers", sorted(PINNED))
def test_small_population_results_are_pinned(gate, policy, tiers):
    spec = (
        small_spec("population_flash_crowd")
        .with_override("reconfig.policy", policy)
        .with_override("population.rate_tiers", tiers)
    )
    with pytest.MonkeyPatch.context() as patch:
        _gate(patch, gate)
        text = run(spec).to_json(include_series=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[policy, tiers]
