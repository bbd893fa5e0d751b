"""Incremental summary maintenance: parity pins and rebuild-skip spies.

The hot-path contract: every run is **bit-identical** to rebuilding
each card, filter and strategy from scratch whenever it is consulted —
incremental maintenance is an optimisation, never a semantic.  Rebuild
is no longer a mode of the library; it survives here as an oracle,
reached by forcing the library's own fallback paths
(:func:`_rebuild_oracle`).  These tests pin the equivalence across the
seeded scenario catalog at both ``engine`` values (with and without
numpy), spy on the registry's from-scratch builds to prove unchanged
receivers really skip the rebuild (and pin how many a small spec pays),
spy on the simulator's strategy builds to prove an unchanged connection
is renewed rather than rebuilt (and pin how many the congested row
pays), and hold the working-set summary cache-key regression
(permuted-but-equal params share one entry).  The delivery pass is held
to a full-walk oracle the same way (:func:`_full_walk_oracle`), and the
connection visits it saves are pinned as counts; so is an epoch's table
(:func:`_per_read_oracle`) and the card reads it saves.
"""

import math
from dataclasses import replace

import pytest

from repro.api import build, run, specs
from repro.delivery.strategies import make_strategy
from repro.delivery.working_set import WorkingSet
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme, UtilityRewiring
from repro.reconcile.adapters import MinwiseSummary
from repro.overlay.simulator import OverlaySimulator
from repro.transport.controller import TransportController
from repro.transport.rtx import RtxManager

import repro.hashing.batch as batch
import repro.overlay.reconfiguration as reconfiguration
import repro.overlay.simulator as simulator
import repro.reconcile.policy as policy
import repro.reconcile.registry as registry
import repro.transport.controller as controller


def _with_engine(spec, engine):
    return replace(spec, measurement=replace(spec.measurement, engine=engine))


def _never_fresh(self, conn):
    return False


_cached_many = WorkingSet.cached_many


def _never_absorb(sets, key, build_many, absorb_many=None):
    """``WorkingSet.cached_many`` without its absorb: every artefact a
    set grew past is rebuilt from the set (``cached`` reads through
    this too)."""
    return _cached_many(sets, key, build_many)


def _always_build(self, key, build, absorb=None):
    return build(self)


def _rebuild_oracle(mp):
    """Force every fallback: nothing computed from a working set (card,
    receiver summary, card row, inventory) is served from cache or
    absorbed, and every strategy is rebuilt each refresh (no endpoint
    stamp is ever current)."""
    mp.setattr(WorkingSet, "cached", _always_build)
    mp.setattr(OverlaySimulator, "_strategy_fresh", _never_fresh)


class _ScanEveryCall(RtxManager):
    """An rtx manager whose earliest-deadline bound never holds a scan
    back: every ``allowance`` call scans the outstanding table."""

    next_deadline = property(lambda self: -math.inf, lambda self, value: None)


def _every_connection(self):
    return list(self.connections.values())


def _polled_feeding(conn):
    receiver = conn.receiver
    return receiver.completed_at_tick is None and not receiver.is_complete


def _full_walk_oracle(mp):
    """Restore the full walk: every pass visits every connection, each
    ``feeding`` read polls the receiver (``is_complete`` on every visit,
    after every inline arrival and in the refresh) instead of reading
    the flag the completion event cleared, and every connection-window
    takes ``allowance``, which scans for timeouts."""
    mp.setattr(OverlaySimulator, "_feeding_connections", _every_connection)
    mp.setattr(
        simulator.Connection,
        "feeding",
        property(_polled_feeding, lambda conn, value: None),
        raising=False,
    )
    mp.setattr(controller, "RtxManager", _ScanEveryCall)


class _ReadThrough(dict):
    """A table map that keeps nothing: ``map[node]`` reads the node."""

    def __init__(self, read):
        super().__init__()
        self._read = read

    def __getitem__(self, node):
        return self._read(node)


def _fill_nothing(self, nodes):
    """``EpochTable.fill`` with nothing read up front and no refresh:
    every can-serve and wire-size lookup reads the node (and its card,
    through ``scheme.card_of``) again."""
    scheme, serves = self.scheme, reconfiguration._can_serve
    self.serves = _ReadThrough(serves)
    if scheme is not None:
        self.wire_bytes = _ReadThrough(
            lambda node: 0
            if node.is_source or not serves(node)
            else scheme.card_wire_bytes(scheme.card_of(node))
        )


def _pair_by_pair(self, receiver, candidates):
    """``EpochTable.usefulness`` with no rows: each pair's two cards are
    read through ``scheme.card_of`` and compared by the scheme's
    one-pair estimate."""
    scheme = self.scheme
    ours = scheme.card_of(receiver)
    return [
        1.0
        if c.is_source
        else 1.0 - scheme.resemblance(ours, scheme.card_of(c), receiver.working_set)
        for c in candidates
    ]


def _per_read_oracle(mp):
    """An epoch table that keeps nothing: every can-serve, wire-size and
    usefulness lookup reads the nodes and their cards again."""
    mp.setattr(reconfiguration.EpochTable, "fill", _fill_nothing)
    mp.setattr(reconfiguration.EpochTable, "usefulness", _pair_by_pair)


def _count_card_reads(mp):
    """Count ``SummaryScheme.card_of`` calls (catalog schemes inherit it)."""
    calls = {"card_of": 0}
    card_of = SummaryScheme.card_of

    def counted(self, node):
        calls["card_of"] += 1
        return card_of(self, node)

    mp.setattr(SummaryScheme, "card_of", counted)
    return calls


def _run(spec, rebuild: bool = False):
    with pytest.MonkeyPatch.context() as mp:
        if rebuild:
            _rebuild_oracle(mp)
        return run(spec)


CATALOG = {
    "flash_crowd": lambda: specs.flash_crowd(
        num_peers=16, target=60, initial_seeded=3, waves=2, wave_interval=8, seed=11
    ),
    "random_overlay": lambda: specs.random_overlay(num_peers=8, target=120, seed=17),
    "adaptive_overlay": lambda: specs.adaptive_overlay(
        mirrors_per_group=3, joiners=3, target=60, seed=2, max_ticks=4_000
    ),
    "informed_scan_budget": lambda: (
        specs.random_overlay(num_peers=10, target=120, seed=9)
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.scan_budget", 4)
    ),
    "bloom_reconfig_summary": lambda: (
        specs.random_overlay(num_peers=8, target=100, seed=3)
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.summary.kind", "bloom")
    ),
    "cdn_catalog": lambda: specs.cdn_catalog(
        regionals=2, edge_peers=6, objects=3, target=36, seed=5
    ),
    # Recode/BF under AIMD and a bottleneck queue, with no epochs: the
    # refresh renews every strategy whose endpoints are unchanged.
    "congested_aimd": lambda: specs.congested_swarm(
        num_peers=48,
        target=40,
        initial_seeded=4,
        bottleneck_rate=16,
        bottleneck_buffer=16,
        waves=4,
        transport_policy="aimd",
        reconfig_policy="static",
        seed=29,
    ),
}


def _spy_on_builds(mp):
    """Record the kind of every from-scratch ``build_summary`` call."""
    calls = []
    orig = registry.build_summary

    def spy(kind, ids, **params):
        calls.append(kind)
        return orig(kind, ids, **params)

    mp.setattr(registry, "build_summary", spy)  # what working sets cache
    mp.setattr(policy, "build_summary", spy)  # bare-id builds
    return calls


def _spy_on_batch_builds(mp):
    """Count the cards every batched build makes (``WorkingSet.
    cached_many`` → ``registry._build_many_frozen`` → the kind's
    ``build_many``), by kind.  A one-set ``build`` that delegates to
    ``build_many`` is not a batched build and is not counted."""
    from collections import Counter

    cards = Counter()
    orig = registry._summary_call

    def spy(kind, fn, ids, params):
        built = orig(kind, fn, ids, params)
        if getattr(fn, "__name__", None) == "build_many":
            cards[kind] += len(built)
        return built

    mp.setattr(registry, "_summary_call", spy)
    return cards


def _spy_on_strategy_builds(mp):
    """Record the name of every strategy the simulator builds."""
    built = []

    def spy(name, *args, **kwargs):
        built.append(name)
        return make_strategy(name, *args, **kwargs)

    mp.setattr(simulator, "make_strategy", spy)
    return built


class TestIncrementalParity:
    """Incremental == rebuild, report for report, at both ``engine`` values."""

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_scenario(self, name, engine):
        spec = _with_engine(CATALOG[name](), engine)
        fast = _run(spec)
        slow = _run(spec, rebuild=True)
        assert fast.metrics == slow.metrics
        if slow.report is not None:
            assert fast.report == slow.report
        assert fast.completed == slow.completed

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    @pytest.mark.parametrize(
        "name", ["flash_crowd", "informed_scan_budget", "congested_aimd"]
    )
    def test_scenario_without_numpy(self, name, engine, monkeypatch):
        monkeypatch.setattr(batch, "_numpy", lambda: None)
        spec = _with_engine(CATALOG[name](), engine)
        fast = _run(spec)
        slow = _run(spec, rebuild=True)
        assert fast.metrics == slow.metrics
        if slow.report is not None:
            assert fast.report == slow.report


class TestFullWalkParity:
    """Walking only feeding connections, and scanning the RTO table only
    once a timeout can be due, == the full walk, report for report."""

    @pytest.mark.parametrize("numpy_on", [True, False])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_scenario(self, name, numpy_on, monkeypatch):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        spec = CATALOG[name]()
        fast = run(spec)
        with pytest.MonkeyPatch.context() as mp:
            _full_walk_oracle(mp)
            slow = run(spec)
        assert fast.metrics == slow.metrics
        assert fast.report == slow.report
        assert fast.completed == slow.completed


#: The rows whose runs hold reconfiguration epochs.
EPOCH_ROWS = sorted(set(CATALOG) - {"congested_aimd"})


class TestEpochTableParity:
    """Reading each node once per epoch == reading it on every lookup,
    report for report."""

    @pytest.mark.parametrize("numpy_on", [True, False])
    @pytest.mark.parametrize("name", EPOCH_ROWS)
    def test_scenario(self, name, numpy_on, monkeypatch):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        calls = _count_card_reads(monkeypatch)
        spec = CATALOG[name]()
        fast = run(spec)
        table_reads, calls["card_of"] = calls["card_of"], 0
        with pytest.MonkeyPatch.context() as mp:
            _per_read_oracle(mp)
            slow = run(spec)
        assert fast.metrics == slow.metrics
        assert fast.report == slow.report
        assert fast.completed == slow.completed
        # The row ran epochs, and the oracle did read again.
        assert calls["card_of"] > table_reads


class TestEpochCardReads:
    """How many cards the budgeted informed row fetches: 91 when every
    candidate's card was fetched again for each receiver that scanned
    it; 60 with the table, each node's once per epoch (for pricing and
    for the usefulness batch) plus admission's two per add inside
    ``connect``; 20 once admission read the decision's recorded
    utilities off the table and fetched no card; none now that the
    table keeps the cards the epoch's refresh hands back."""

    CARD_OF_CALLS = 0

    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_informed_scan_budget(self, numpy_on, monkeypatch):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        calls = _count_card_reads(monkeypatch)
        result = run(CATALOG["informed_scan_budget"]())
        assert calls["card_of"] == self.CARD_OF_CALLS
        assert result.metrics["reconfig_epochs"] == 2.0


class TestEpochShape:
    """One refresh per epoch, and a receiver loop that fetches no card
    and checks no family: every estimate is a gather of the rows the
    table took from that refresh."""

    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_informed_random_overlay(self, numpy_on, monkeypatch):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        calls = {"refresh": 0, "card_of": 0, "_check_family": 0}

        def spy(cls, name):
            original = getattr(cls, name)

            def counted(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        spy(SummaryScheme, "refresh")
        spy(SummaryScheme, "card_of")
        spy(MinwiseSummary, "_check_family")
        receivers = []
        decide = UtilityRewiring._decide

        def deciding(self, receiver, *args):
            receivers.append(receiver)
            return decide(self, receiver, *args)

        monkeypatch.setattr(UtilityRewiring, "_decide", deciding)
        epochs = []
        reconfigure = OverlaySimulator._reconfigure

        def epoch(self):
            calls.update(dict.fromkeys(calls, 0))
            reconfigure(self)
            epochs.append(dict(calls))

        monkeypatch.setattr(OverlaySimulator, "_reconfigure", epoch)
        result = run(_informed_random_overlay())
        assert receivers  # the epochs asked receivers
        assert len(epochs) == result.metrics["reconfig_epochs"] > 0
        assert epochs == [{"refresh": 1, "card_of": 0, "_check_family": 0}] * len(
            epochs
        )


def _informed_random_overlay():
    return specs.random_overlay(
        num_peers=8, target=120, seed=17, strategy_name="Random/BF"
    ).with_override("reconfig.policy", "informed")


class TestRefreshSkip:
    """Unchanged receivers must not pay a summary rebuild per refresh,
    and a strategy whose endpoints are unchanged is renewed in place —
    Recode/BF included, whose renewal replays its domain truncation."""

    def _simulator(self, engine, strategy_name="Random/BF"):
        spec = _with_engine(
            # Both /BF strategies build a receiver summary, so refresh
            # skips are observable.
            specs.random_overlay(
                num_peers=8,
                target=120,
                seed=17,
                initial_fraction_lo=0.2,
                strategy_name=strategy_name,
            ),
            engine,
        )
        sim = build(spec).scenario.simulator
        # The builder wires only source links; peer-to-peer connections
        # normally form during the run.  Wire a ring of peer links and
        # dirty every working set so the first refresh has work to do
        # (connect() itself stamps strategies as current).
        peers = [n for n in sim.nodes.values() if not n.is_source]
        wired = sum(
            sim.connect(s.node_id, r.node_id)
            for s, r in zip(peers, peers[1:] + peers[:1])
        )
        assert wired >= 3
        for i, node in enumerate(peers):
            node.working_set.add(999_000_000 + i)
        return sim

    def _spy_on_builds(self, monkeypatch):
        # With no absorb every re-derivation is a from-scratch build,
        # which the spy can see (an absorb never reaches the registry).
        monkeypatch.setattr(WorkingSet, "cached_many", staticmethod(_never_absorb))
        return _spy_on_builds(monkeypatch)

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_unchanged_receivers_build_once(self, engine, monkeypatch):
        sim = self._simulator(engine)
        calls = self._spy_on_builds(monkeypatch)
        sim._refresh_strategies()
        first = len(calls)
        assert first > 0
        # Nothing moved between the refreshes — every connection's
        # endpoint stamps are current, so no summary is rebuilt.
        sim._refresh_strategies()
        sim._refresh_strategies()
        assert len(calls) == first

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_never_fresh_oracle_rebuilds_every_strategy(self, engine, monkeypatch):
        sim = self._simulator(engine)
        monkeypatch.setattr(OverlaySimulator, "_strategy_fresh", _never_fresh)
        calls = self._spy_on_builds(monkeypatch)
        sim._refresh_strategies()
        first = len(calls)
        assert first > 0
        before = {
            key: conn.strategy
            for key, conn in sim.connections.items()
            if not conn.sender.is_source and not conn.receiver.is_complete
        }
        assert before
        sim._refresh_strategies()
        assert all(sim.connections[k].strategy is not s for k, s in before.items())
        # ...while the receivers' summaries, version-unchanged, are reused.
        assert len(calls) == first

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_changed_receiver_rebuilds(self, engine, monkeypatch):
        sim = self._simulator(engine)
        calls = self._spy_on_builds(monkeypatch)
        sim._refresh_strategies()
        first = len(calls)
        # Mutate exactly one incomplete receiver's working set; only the
        # connections it is an endpoint of should rebuild, and only its
        # own summary with them.
        receiver = next(
            conn.receiver
            for conn in sim.connections.values()
            if not conn.sender.is_source and not conn.receiver.is_complete
        )
        receiver.working_set.add(999_999_001)
        sim._refresh_strategies()
        rebuilt = len(calls) - first
        # Mutating the node invalidates every connection it is an
        # endpoint of; version-unchanged receivers are served from the
        # persistent cache, so only the mutated node's own summary is
        # rebuilt.
        affected = [
            conn
            for conn in sim.connections.values()
            if not conn.sender.is_source
            and not conn.receiver.is_complete
            and (conn.receiver is receiver or conn.sender is receiver)
        ]
        assert affected
        assert rebuilt == 1

    @pytest.mark.parametrize("engine", ["reference", "columnar"])
    def test_recode_bf_renews_what_the_oracle_rebuilds(self, engine, monkeypatch):
        renewing = self._simulator(engine, "Recode/BF")
        oracle = self._simulator(engine, "Recode/BF")
        renewing._refresh_strategies()
        oracle._refresh_strategies()
        before = {
            key: conn.strategy
            for key, conn in renewing.connections.items()
            if conn.strategy is not None and not conn.receiver.is_complete
        }
        # Some domains were truncated, so renewing must draw.
        assert any(s._full_domain is not None for s in before.values())
        drawn_from = renewing.rng.getstate()
        built = _spy_on_strategy_builds(monkeypatch)
        renewing._refresh_strategies()
        assert built == []
        assert all(renewing.connections[k].strategy is s for k, s in before.items())
        assert renewing.rng.getstate() != drawn_from
        # The rebuild oracle ends in the same RNG state, over the same domains.
        monkeypatch.setattr(OverlaySimulator, "_strategy_fresh", _never_fresh)
        oracle._refresh_strategies()
        assert len(built) == len(before)
        assert oracle.rng.getstate() == renewing.rng.getstate()
        for key, strategy in before.items():
            assert oracle.connections[key].strategy._domain == strategy._domain


class TestRefreshRebuildCount:
    """How many strategies the congested row builds: only a connection
    with a changed endpoint is rebuilt (471 when every truncated
    Recode/BF domain was rebuilt each refresh)."""

    MAKE_STRATEGY_CALLS = 249

    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_congested_run_builds_only_on_change(self, numpy_on, monkeypatch):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        built = _spy_on_strategy_builds(monkeypatch)
        result = run(CATALOG["congested_aimd"]())
        assert len(built) == self.MAKE_STRATEGY_CALLS
        assert set(built) == {"Recode/BF"}
        assert result.metrics["packets_sent"] == 3499.0
        assert result.metrics["packets_useful"] == 497.0


def _count_pass_work(mp):
    """Count RTO table scans, ``is_complete`` reads and ``allowance`` calls."""
    counts = {"expire_scans": 0, "is_complete": 0, "allowance": 0}
    expire = RtxManager.expire
    is_complete = OverlayNode.is_complete.fget
    allowance = TransportController.allowance

    def counted_expire(self, now):
        counts["expire_scans"] += now >= self.next_deadline
        return expire(self, now)

    def counted_is_complete(self):
        counts["is_complete"] += 1
        return is_complete(self)

    def counted_allowance(self, *args, **kwargs):
        counts["allowance"] += 1
        return allowance(self, *args, **kwargs)

    mp.setattr(RtxManager, "expire", counted_expire)
    mp.setattr(OverlayNode, "is_complete", property(counted_is_complete))
    mp.setattr(TransportController, "allowance", counted_allowance)
    return counts


class TestDeliveryPassCounts:
    """What the congested row's delivery pass does: completed receivers'
    connections are not visited, a connection-window takes
    ``allowance`` (and its timeout scan) only once a timeout can be
    due, and completion is read once per useful arrival — 497 — plus
    once per node joining (49) and once per node in the closing
    ``report()`` (49); no read is made per visit or per packet.  The
    full walk polls ``is_complete`` on every ``feeding`` read and takes
    ``allowance`` on every connection-window, which scans each time.
    Before completion was an event the pass read ``is_complete`` 17 637
    times (every visit, after every send and on every ``run()`` tick)
    and took ``allowance`` 7 436 times; the full walk read 28 162.
    Before an ack that empties the rtx table cleared its deadline bound
    the pass took ``allowance`` (and scanned) 2 276 times, 727 of them
    over an empty table.  The sends do not move."""

    COUNTS = {"expire_scans": 1549, "is_complete": 595, "allowance": 1549}
    FULL_WALK = {"expire_scans": 7436, "is_complete": 8370, "allowance": 7436}

    @pytest.mark.parametrize("oracle", [False, True], ids=["pass", "full_walk"])
    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_congested_run(self, numpy_on, oracle, monkeypatch):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        if oracle:
            _full_walk_oracle(monkeypatch)
        counts = _count_pass_work(monkeypatch)
        result = run(CATALOG["congested_aimd"]())
        assert counts == (self.FULL_WALK if oracle else self.COUNTS)
        assert result.metrics["packets_sent"] == 3499.0
        assert result.metrics["packets_useful"] == 497.0


class TestSummaryCache:
    """:meth:`WorkingSet.summary` cache-key and stamp semantics."""

    def _ws(self):
        return WorkingSet(range(40))

    def test_permuted_params_share_one_cache_entry(self):
        ws = self._ws()
        a = ws.summary("bloom", bits_per_element=8, k_hashes=4)
        b = ws.summary("bloom", k_hashes=4, bits_per_element=8)
        assert a is b
        assert len([k for k in ws._derived if k[0] == "bloom"]) == 1

    def test_unchanged_version_returns_the_same_object(self):
        ws = self._ws()
        assert ws.summary("minwise") is ws.summary("minwise")

    def test_absorb_path_matches_rebuild_path(self):
        from repro.reconcile import build_summary

        ws = self._ws()
        stale = ws.summary("bloom", bits_per_element=8)
        for symbol_id in range(40, 55):
            ws.add(symbol_id)
        fresh = ws.summary("bloom", bits_per_element=8)
        assert fresh is not stale
        rebuilt = build_summary("bloom", ws.ids, bits_per_element=8)
        assert fresh.to_payload() == rebuilt.to_payload()

    def test_a_card_never_absorbed_is_the_same_payload(self, monkeypatch):
        ws = self._ws()
        ws.summary("minwise", entries=64)
        for symbol_id in range(40, 55):
            ws.add(symbol_id)
        incremental = ws.summary("minwise", entries=64)
        ws2 = self._ws()
        monkeypatch.setattr(WorkingSet, "cached_many", staticmethod(_never_absorb))
        ws2.summary("minwise", entries=64)
        for symbol_id in range(40, 55):
            ws2.add(symbol_id)
        rebuilt = ws2.summary("minwise", entries=64)
        assert incremental.to_payload() == rebuilt.to_payload()

    def test_minwise_card_folds_ids_like_sketch(self):
        """The absorbed card and a from-scratch build publish identical
        minima (both fold ids into the universe)."""
        from repro.reconcile import build_summary

        ws = self._ws()
        ws.summary("minwise", entries=64)
        for symbol_id in range(40, 70):
            ws.add(symbol_id)
        card = ws.summary("minwise", entries=64)
        rebuilt = build_summary(
            "minwise", (i % (1 << 32) for i in ws.ids), entries=64
        )
        assert card.minima == rebuilt.minima

    def test_two_minwise_seeds_keep_distinct_current_cards(self):
        """What the deleted ``OverlayNode.sketch`` got wrong (it ignored
        which family it was asked for): each scheme's card is its own
        family's from-scratch sketch over the folded ids, before and
        after the set grows.  The scalar per-permutation minimum is the
        oracle."""
        from repro.hashing.permutations import PermutationFamily
        from repro.overlay.reconfiguration import SummaryScheme

        universe = 1 << 32
        node = OverlayNode("n0", target=64, initial_ids=[3, 17, (1 << 40) + 5])
        schemes = [
            SummaryScheme("minwise", {"entries": 32, "seed": seed}) for seed in (5, 6)
        ]

        def check_current():
            folded = sorted({i % universe for i in node.working_set.ids})
            cards = [scheme.card_of(node) for scheme in schemes]
            for seed, card in zip((5, 6), cards):
                family = PermutationFamily(32, universe, seed=seed)
                assert card.minima == [perm.min_over(folded) for perm in family]
            assert cards[0].minima != cards[1].minima

        check_current()
        assert node.receive_symbol((1 << 41) + 9)  # folds below the universe
        assert node.receive_symbol(2)
        check_current()
        permuted = node.working_set.summary("minwise", seed=5, entries=32)
        assert permuted is schemes[0].card_of(node)
        minwise = [k for k in node.working_set._derived if k[0] == "minwise"]
        assert len(minwise) == 2

    def test_replaced_working_set_never_serves_the_old_card(self):
        """A cache keyed by version number alone served the old set's
        card when ``node.working_set`` was replaced by a fresh set at
        the same version; the cache now lives on the set itself."""
        from repro.hashing.permutations import PermutationFamily
        from repro.overlay.reconfiguration import default_scheme

        scheme = default_scheme()
        node = OverlayNode("n0", target=64, initial_ids=range(40))
        stale = scheme.card_of(node)
        other_ids = range(1_000, 1_030)
        node.working_set = WorkingSet(other_ids)
        assert node.working_set.version == 0  # same stamp as the old set
        card = scheme.card_of(node)
        assert card is not stale
        family = PermutationFamily(card.entries, card.universe, seed=card.seed)
        assert card.minima == [perm.min_over(sorted(other_ids)) for perm in family]

    def test_replaced_working_set_never_serves_the_old_inventory(self):
        from repro.overlay.catalog import CatalogNode, ObjectCatalog

        catalog = ObjectCatalog(
            targets=[3, 3], distinct=[5, 5], priorities=[1.0, 1.0],
            demand_shares=[0.5, 0.5],
        )
        node = CatalogNode(
            "n0", catalog, demand=(0, 1), initial_ids=catalog.symbol_ids(0)[:3]
        )
        assert node.wanted_objects() == {1}
        node.working_set = WorkingSet(catalog.symbol_ids(1)[:3])
        assert node.wanted_objects() == {0}
        assert node.progress_of(0) == 0 and node.progress_of(1) == 3
        assert not node.is_complete


class TestFromScratchBuilds:
    """How many from-scratch ``build_summary`` calls a small spec pays.

    A receiver's summary lives on its working set: every sender,
    handshake and wire-size read shares it, and the min-wise card
    absorbs arrivals instead of rebuilding.  A Bloom summary is rebuilt
    from the set once per version it is read at: its filter is sized
    from the set, so a grown set needs a new one.  (Before, the
    protocol layer rebuilt per call: 4 min-wise builds for
    session_swarm.)  A card that a batched refresh builds — an epoch's
    or a join wave's — is a kernel pass, not a ``build_summary`` call:
    ``batch_builds`` counts those cards by kind, so a regression that
    rebuilds cards through the batch path shows too."""

    @pytest.mark.parametrize(
        "name, builds, batch_builds",
        [
            ("session_swarm", {"minwise": 3}, {}),
            ("flash_crowd", {"minwise": 8, "bloom": 16}, {"minwise": 2}),
            ("congested_swarm", {"minwise": 8, "bloom": 17}, {"minwise": 2}),
        ],
    )
    def test_small_spec_build_counts(self, name, builds, batch_builds, monkeypatch):
        from collections import Counter

        from repro.api.registry import small_spec

        calls = _spy_on_builds(monkeypatch)
        cards = _spy_on_batch_builds(monkeypatch)
        run(small_spec(name))
        assert Counter(calls) == builds
        assert cards == batch_builds


class TestOneCallingCard:
    """Joins, admission and rewiring read the same cached working-set
    summary, so a node version costs one min-wise card — not a join
    sketch plus an admission card — and an epoch brings all the cards
    it can read current in one kernel pass."""

    #: Outermost minima-kernel calls over the run below: 58 when joins
    #: kept their own sketch, 51 when every card was built or absorbed
    #: by a kernel call of its own on first read, 26 when only epochs
    #: refreshed their cards in one pass; join waves do too now.
    KERNEL_PASSES = 17

    #: ``MinwiseSummary`` constructions over the same run, by whether
    #: numpy is there: 16 builds and 35 absorbs, plus — without numpy,
    #: where join planning merges card by card — 39 join-planning
    #: merges.  With numpy a wave's greedy rounds lower one stacked row.
    CARD_CONSTRUCTIONS = {True: 51, False: 90}

    def _count_kernel_passes(self, mp):
        import repro.reconcile.adapters as adapters

        calls = {"passes": 0, "depth": 0}

        def counted(kernel):
            def spy(*args, **kwargs):
                # The one-list kernels call the many-list one: one pass.
                calls["passes"] += calls["depth"] == 0
                calls["depth"] += 1
                try:
                    return kernel(*args, **kwargs)
                finally:
                    calls["depth"] -= 1

            return spy

        for name in (
            "permutation_minima",
            "permutation_minima_fold",
            "permutation_minima_many",
        ):
            spy = counted(getattr(batch, name))
            mp.setattr(batch, name, spy)  # callers importing at call time
        # The adapters bind the many-list kernel's name: point it at the spy.
        mp.setattr(adapters, "permutation_minima_many", batch.permutation_minima_many)
        return calls

    def _count_constructions(self, mp):
        from repro.reconcile.adapters import MinwiseSummary

        calls = {"cards": 0}
        init = MinwiseSummary.__init__

        def counted(self, *args, **kwargs):
            calls["cards"] += 1
            init(self, *args, **kwargs)

        mp.setattr(MinwiseSummary, "__init__", counted)
        return calls

    @pytest.mark.parametrize("numpy_on", [True, False])
    def test_informed_flash_crowd_pays_one_pass_per_version(
        self, numpy_on, monkeypatch
    ):
        if not numpy_on:
            monkeypatch.setattr(batch, "_numpy", lambda: None)
        spec = CATALOG["flash_crowd"]()
        assert spec.reconfig is None  # unset = the informed arm, default card
        calls = self._count_kernel_passes(monkeypatch)
        cards = self._count_constructions(monkeypatch)
        result = run(spec)
        assert (calls["passes"], cards["cards"]) == (
            self.KERNEL_PASSES,
            self.CARD_CONSTRUCTIONS[batch._numpy() is not None],
        )
        # The run itself is the parent's, to the packet.
        assert result.metrics["ticks"] == 55.0
        assert result.metrics["packets_sent"] == 1452.0
        assert result.metrics["packets_useful"] == 391.0
        assert result.metrics["reconfigurations"] == 18.0
