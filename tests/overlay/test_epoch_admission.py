"""An epoch estimates each pair once: admission reads the decision.

:class:`~repro.overlay.reconfiguration.UtilityRewiring` records each
decision's adds with the utilities that chose them on the epoch's
:class:`~repro.overlay.reconfiguration.EpochTable`, and the engine's
``connect`` hands that table to :class:`SketchAdmission`, which reads
the recorded utility instead of estimating the pair again.  That is
exact only if the recorded float *is* the one-pair estimate: cards
cannot change inside an epoch, and the batched estimate equals the
one-pair estimate bit for bit.  These tests hold every epoch add of
four informed rows to a fresh ``scheme.usefulness`` (numpy on and off),
spy that no one-pair estimate runs inside an epoch, and check that the
table keeps one decision's adds at a time.
"""

import pytest

from repro.api import run, specs
from repro.flow.engine import FlowSimulator
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    EpochTable,
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)
from repro.overlay.simulator import OverlaySimulator

import repro.hashing.batch as batch

#: Informed rows whose epochs add senders: a budgeted min-wise scan, the
#: catalog-aware scheme, a non-min-wise card and the flow engine.
ROWS = {
    "informed_scan_budget": lambda: (
        specs.random_overlay(num_peers=10, target=120, seed=9)
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.scan_budget", 4)
    ),
    "cdn_catalog": lambda: specs.cdn_catalog(
        regionals=2, edge_peers=6, objects=3, target=36, seed=5
    ),
    "bloom_reconfig_summary": lambda: (
        specs.random_overlay(num_peers=8, target=100, seed=3)
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.summary.kind", "bloom")
    ),
    "flow_informed": lambda: specs.population_flash_crowd(
        population=64, target=48, waves=2, wave_interval=5.0,
        seeded_fraction=0.25, rate_tiers=2, seed=9, max_ticks=2_000,
        fidelity="flow", policy="informed",
    ),
}


def _numpy(monkeypatch, on):
    if not on:
        monkeypatch.setattr(batch, "_numpy", lambda: None)


def _watch_epochs(mp):
    """Count, per run: decisions' adds, admissions handed a table, and
    one-pair estimates made while an epoch is open (either engine)."""
    seen = {"adds": 0, "table_admits": 0, "epoch_estimates": 0, "in_epoch": False}
    for engine in (OverlaySimulator, FlowSimulator):
        reconfigure = engine._reconfigure

        def watched(self, *args, _reconfigure=reconfigure):
            seen["in_epoch"] = True
            try:
                return _reconfigure(self, *args)
            finally:
                seen["in_epoch"] = False

        mp.setattr(engine, "_reconfigure", watched)

    usefulness = SummaryScheme.usefulness

    def counted_usefulness(self, receiver, candidate):
        seen["epoch_estimates"] += seen["in_epoch"]
        return usefulness(self, receiver, candidate)

    mp.setattr(SummaryScheme, "usefulness", counted_usefulness)

    admit = SketchAdmission.admit

    def counted_admit(self, receiver, candidate, table=None):
        seen["table_admits"] += table is not None
        return admit(self, receiver, candidate, table)

    mp.setattr(SketchAdmission, "admit", counted_admit)
    return seen


@pytest.mark.parametrize("numpy_on", [True, False])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_every_recorded_utility_is_the_one_pair_estimate(name, numpy_on, monkeypatch):
    _numpy(monkeypatch, numpy_on)
    checked = []
    record = EpochTable.record

    def checking(self, receiver, adds, utilities):
        utilities = list(utilities)
        for add, utility in zip(adds, utilities):
            fresh = self.scheme.usefulness(receiver, add)
            assert utility == fresh, (receiver.node_id, add.node_id)
            checked.append(add.node_id)
        return record(self, receiver, adds, utilities)

    monkeypatch.setattr(EpochTable, "record", checking)
    run(ROWS[name]())
    assert checked, "the row made no epoch add"


@pytest.mark.parametrize("numpy_on", [True, False])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_no_one_pair_estimate_runs_inside_an_epoch(name, numpy_on, monkeypatch):
    _numpy(monkeypatch, numpy_on)
    seen = _watch_epochs(monkeypatch)
    record = EpochTable.record

    def counting(self, receiver, adds, utilities):
        seen["adds"] += len(adds)
        return record(self, receiver, adds, utilities)

    monkeypatch.setattr(EpochTable, "record", counting)
    run(ROWS[name]())
    # Every epoch admission read a recorded utility; none estimated.
    assert 0 < seen["table_admits"] <= seen["adds"]
    assert seen["epoch_estimates"] == 0


@pytest.mark.parametrize("name", sorted(ROWS))
def test_the_table_holds_one_decision_at_a_time(name, monkeypatch):
    decided = []  # (table, receiver, add) of every recorded decision
    record = EpochTable.record

    def probing(self, receiver, adds, utilities):
        out = record(self, receiver, adds, utilities)
        held = len(self._decided[1])
        assert self._decided[0] is receiver and held == len(adds)
        for table, earlier, add in decided:
            if table is self and earlier is not receiver:
                assert self.utility(self.scheme, earlier, add) is None
        for add in adds:
            assert self.utility(self.scheme, receiver, add) is not None
            decided.append((self, receiver, add))
        return out

    monkeypatch.setattr(EpochTable, "record", probing)
    run(ROWS[name]())
    assert decided


def _nodes():
    receiver = OverlayNode("r", 100, initial_ids=range(50), max_connections=2)
    near = OverlayNode("near", 100, initial_ids=range(45))
    far = OverlayNode("far", 100, initial_ids=range(500, 560))
    return receiver, near, far


def test_admission_reads_only_the_decision_it_is_applying(monkeypatch):
    scheme = default_scheme()
    receiver, near, far = _nodes()
    table = EpochTable(scheme, (receiver, near, far))
    drops, adds = UtilityRewiring(scheme).rewire(receiver, [], [near, far], table)
    assert (drops, adds) == ([], [far, near])

    estimates = []
    usefulness = SummaryScheme.usefulness

    def counted(self, r, c):
        estimates.append((r.node_id, c.node_id))
        return usefulness(self, r, c)

    monkeypatch.setattr(SummaryScheme, "usefulness", counted)
    admission = SketchAdmission(scheme, min_usefulness=0.5)
    # The decision's adds are judged by their recorded utilities ...
    assert admission.admit(receiver, far, table)
    assert not admission.admit(receiver, near, table)
    assert estimates == []
    # ... and what the decision did not add, for another receiver or
    # under another (even an equal) scheme object, is estimated.
    other = OverlayNode("o", 100, initial_ids=range(50))
    admission.admit(receiver, other, table)
    admission.admit(near, far, table)
    SketchAdmission(default_scheme(), 0.5).admit(receiver, far, table)
    admission.admit(receiver, far)
    assert estimates == [("r", "o"), ("near", "far"), ("r", "far"), ("r", "far")]


def test_a_recorded_utility_decides_the_admission():
    scheme = default_scheme()
    receiver, _near, far = _nodes()
    admission = SketchAdmission(scheme)
    assert admission.admit(receiver, far)
    table = EpochTable(scheme)
    table.record(receiver, [far], [0.0])
    assert not admission.admit(receiver, far, table)


def test_the_next_decision_replaces_the_last():
    scheme = default_scheme()
    receiver, near, far = _nodes()
    policy = UtilityRewiring(scheme)
    table = EpochTable(scheme, (receiver, near, far))
    _drops, adds = policy.rewire(receiver, [], [near, far], table)
    assert table.utility(scheme, receiver, far) is not None
    # A decision that adds nothing still replaces the record.
    lonely = OverlayNode("l", 100, initial_ids=range(10), max_connections=1)
    assert policy.rewire(lonely, [], [lonely], table) == ([], [])
    assert all(table.utility(scheme, receiver, a) is None for a in adds)
