"""Each flow object's id space, and the bitmaps read through it.

An object's sampled ids are one ordered space — content ids, then the
source's fresh ids in mint order — so a representative's holdings are
one int with a bit per id.  The bitmap is derived state of the working
set: cached on it (built once, then absorbing the add journal), never a
mirror the engine keeps by hand.
"""

import random

import pytest

from repro.api import run
from repro.api.registry import small_spec
from repro.delivery import WorkingSet
from repro.flow import CohortDef, FlowSimulator
from repro.flow.engine import _IdSpace


def _sim(**kwargs):
    return FlowSimulator(
        [
            CohortDef("ma", 0, 4, demand=40, distinct=48,
                      initial_fraction=0.5, slice_index=0),
            CohortDef("mb", 0, 4, demand=40, distinct=48,
                      initial_fraction=0.5, slice_index=1),
            CohortDef("w", 0, 8, demand=40, distinct=48, arrival=2.5),
        ],
        rate=2.0, rng=random.Random(4), **kwargs,
    )


def _plain_bitmap(space, ids):
    return sum(1 << space.ids.index(i) for i in ids)


class TestTheSpace:
    def test_bit_order_is_id_order(self):
        sim = _sim()
        space = sim.cohorts[0].space
        source = sim.sources[0].rep
        minted = [space.mint(source) for _ in range(5)]
        assert space.ids == sorted(space.ids)
        assert space.ids[-5:] == minted
        assert [space.bit(i) for i in space.ids] == list(range(len(space.ids)))

    def test_every_cohort_of_an_object_shares_its_space(self):
        sim = _sim()
        assert all(c.space is sim.sources[0].space for c in sim.cohorts)

    def test_an_id_outside_the_space_is_refused(self):
        sim = _sim()
        space = sim.cohorts[0].space
        below, past_content = space.base - 1, space.base + space.width
        for symbol in (below, past_content, space.fresh_start, 10**15, -1):
            with pytest.raises(ValueError, match="outside"):
                space.bit(symbol)
        space.mint(sim.sources[0].rep)
        assert space.bit(space.fresh_start) == space.width
        with pytest.raises(ValueError, match="outside"):
            space.bit(space.fresh_start + 1)

    def test_a_foreign_id_in_a_working_set_never_sets_a_wrong_bit(self):
        sim = _sim()
        rep, space = sim.cohorts[2].rep, sim.cohorts[2].space
        assert space.bitmap(rep) == 0
        rep.working_set.add(space.fresh_start + 3)  # never minted
        with pytest.raises(ValueError, match="outside"):
            space.bitmap(rep)

    def test_a_mint_out_of_order_is_refused(self):
        sim = _sim()
        space, source = sim.cohorts[0].space, sim.sources[0].rep
        source.mint_fresh_id()  # minted behind the space's back
        with pytest.raises(ValueError, match="mint order"):
            space.mint(source)

    def test_content_must_be_one_run_below_the_fresh_ids(self):
        with pytest.raises(ValueError, match="one run"):
            _IdSpace([0, 1, 3], fresh_start=100)
        with pytest.raises(ValueError, match="one run"):
            _IdSpace([98, 99, 100], fresh_start=100)


class TestTheBitmapLivesOnTheSet:
    def test_absorbs_adds_and_equals_a_fresh_build(self):
        sim = _sim()
        rep, space = sim.cohorts[0].rep, sim.cohorts[0].space
        first = space.bitmap(rep)
        assert first == _plain_bitmap(space, rep.working_set)
        rep.receive_symbol(space.mint(sim.sources[0].rep))
        rep.receive_symbol(next(i for i in space.ids if i not in rep.working_set))
        assert space.bitmap(rep) == _plain_bitmap(space, rep.working_set)
        assert space.bitmap(rep) != first

    def test_a_replaced_working_set_gets_a_fresh_bitmap(self):
        sim = _sim()
        rep, space = sim.cohorts[0].rep, sim.cohorts[0].space
        old_set = rep.working_set
        old = space.bitmap(rep)
        rep.working_set = WorkingSet(space.ids[-3:])
        assert space.bitmap(rep) == _plain_bitmap(space, space.ids[-3:])
        assert space.bitmap(rep) != old
        # The old set's entry is its own: untouched by the replacement.
        assert old_set.cached(space, lambda ws: None) == old


#: Everything on a WorkingSet that hands back a new set.
_SET_COPIES = ("ids", "__rsub__", "__rand__", "resemblance_with")


def test_a_flow_window_copies_no_working_set(monkeypatch):
    """Zero set copies per window; each set's bitmap is built at most
    once and kept current by absorbing its journal."""
    copies = {"count": 0, "in_windows": 0}
    inside = {"windows": 0, "peer_updates": 0}
    builds, absorbs = [], [0]

    for name in _SET_COPIES:
        original = WorkingSet.__dict__[name]
        target = original.fget if isinstance(original, property) else original

        def counted(*args, _target=target):
            copies["count"] += 1
            return _target(*args)

        monkeypatch.setattr(
            WorkingSet, name,
            property(counted) if isinstance(original, property) else counted,
        )

    build, absorb = _IdSpace._build, _IdSpace._absorb

    def counted_build(space, ws):
        builds.append(ws)
        return build(space, ws)

    def counted_absorb(space, bitmap, added):
        absorbs[0] += 1
        return absorb(space, bitmap, added)

    monkeypatch.setattr(_IdSpace, "_build", counted_build)
    monkeypatch.setattr(_IdSpace, "_absorb", counted_absorb)

    advance, apply_update = FlowSimulator._advance, FlowSimulator._apply_rep_update

    def counted_advance(self, t0, t1):
        before = copies["count"]
        advance(self, t0, t1)
        inside["windows"] += 1
        copies["in_windows"] += copies["count"] - before

    def counted_update(self, receiver, sender, k):
        inside["peer_updates"] += not sender.is_source
        apply_update(self, receiver, sender, k)

    monkeypatch.setattr(FlowSimulator, "_advance", counted_advance)
    monkeypatch.setattr(FlowSimulator, "_apply_rep_update", counted_update)

    run(small_spec("population_flash_crowd"))
    assert inside["windows"] > 0 and inside["peer_updates"] > 0
    assert copies["in_windows"] == 0
    assert len(builds) == len({id(ws) for ws in builds})
    assert absorbs[0] > len(builds)
