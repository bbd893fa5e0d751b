"""``SenderStrategy.renew()`` equals a rebuild from the same sets.

The overlay's strategy refresh renews a strategy whose endpoint sets are
version-unchanged instead of rebuilding it.  That is only sound if a
renewed strategy is, list for list and draw for draw, what
:func:`make_strategy` would build afresh from the same sets and an RNG
in the same state.  Each case builds the strategy twice from two RNGs in
one state, renews the first and rebuilds the second, and compares the
lists, the RNG states and the packets that follow — with numpy and
without.
"""

import random

import pytest

import repro.hashing.batch as batch
from repro.delivery import WorkingSet, make_strategy
from repro.reconcile import DEFAULT_POLICY, SummaryPolicy

MINWISE = SummaryPolicy(kind="minwise")
SMALL_CPI = SummaryPolicy(kind="cpi", params={"max_discrepancy": 2})


@pytest.fixture(params=[True, False], ids=["numpy", "no-numpy"])
def numpy_on(request, monkeypatch):
    if not request.param:
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    return request.param


def overlapping_sets(sender_size=120, overlap=40, seed=3):
    pool = random.Random(seed).sample(range(1 << 30), 2 * sender_size - overlap)
    return WorkingSet(pool[:sender_size]), WorkingSet(pool[sender_size - overlap :])


def renew_and_rebuild(name, sender, receiver, **kwargs):
    """(the renewed strategy, whether renew drew) — checked against a
    rebuild from an RNG in the same state."""
    rng_renew, rng_rebuild = random.Random(29), random.Random(29)
    renewed = make_strategy(name, sender, receiver, rng_renew, **kwargs)
    make_strategy(name, sender, receiver, rng_rebuild, **kwargs)
    assert rng_renew.getstate() == rng_rebuild.getstate()
    before = rng_renew.getstate()
    renewed.renew()
    drew = rng_renew.getstate() != before
    rebuilt = make_strategy(name, sender, receiver, rng_rebuild, **kwargs)
    assert rng_renew.getstate() == rng_rebuild.getstate()
    assert type(renewed) is type(rebuilt) and renewed.name == rebuilt.name
    for attr in ("_pool", "_useful", "_domain"):
        assert getattr(renewed, attr, None) == getattr(rebuilt, attr, None), attr
    # Same lists, same RNG state: the same packets follow.
    assert [renewed.next_packet() for _ in range(40)] == [
        rebuilt.next_packet() for _ in range(40)
    ]
    return renewed, drew


class TestRenewDrawsNothing:
    """Strategies whose construction draws nothing renew as a no-op."""

    @pytest.mark.parametrize(
        "name, policy, label",
        [
            ("Random", DEFAULT_POLICY, "Random"),
            ("Random/BF", DEFAULT_POLICY, "Random/bloom"),
            ("Recode", DEFAULT_POLICY, "Recode"),
            ("Recode/MW", DEFAULT_POLICY, "Recode/bloom-est"),
            ("Recode/BF", MINWISE, "Recode/minwise-est"),
            ("Random/BF", MINWISE, "Random/minwise-blind"),
            ("Random/BF", SMALL_CPI, "Random/cpi-blind"),
            ("Recode/BF", SMALL_CPI, "Recode/cpi-blind"),
        ],
    )
    def test_renew_is_a_no_op(self, name, policy, label, numpy_on):
        sender, receiver = overlapping_sets()
        renewed, drew = renew_and_rebuild(
            name, sender, receiver, symbols_desired=10, summary_policy=policy
        )
        assert renewed.name == label
        assert not drew


class TestRecodeSummaryRenew:
    """Recode/BF replays its domain truncation, and only that."""

    def _filtered_size(self, sender, receiver):
        probe = make_strategy("Recode/BF", sender, receiver, random.Random(0))
        return len(probe._domain)

    @pytest.mark.parametrize(
        "offset, truncates", [(-15, True), (0, False), (15, False)]
    )
    def test_symbols_desired_around_the_filtered_domain(
        self, offset, truncates, numpy_on
    ):
        sender, receiver = overlapping_sets()
        filtered = self._filtered_size(sender, receiver)
        assert filtered > 15
        renewed, drew = renew_and_rebuild(
            "Recode/BF", sender, receiver, symbols_desired=filtered + offset
        )
        assert drew is truncates
        assert len(renewed._domain) == min(filtered, filtered + offset)

    def test_no_symbols_desired_never_truncates(self, numpy_on):
        sender, receiver = overlapping_sets()
        _, drew = renew_and_rebuild("Recode/BF", sender, receiver)
        assert not drew

    def test_filter_eliminating_everything_truncates_the_whole_pool(
        self, numpy_on
    ):
        # The receiver holds every sender id: a Bloom filter has no false
        # negatives, so the useful domain is empty and Recode/BF falls
        # back to the sender's whole pool — which renew must replay from.
        sender = WorkingSet(range(60))
        receiver = WorkingSet(range(80))
        renewed, drew = renew_and_rebuild(
            "Recode/BF", sender, receiver, symbols_desired=12
        )
        assert drew
        assert renewed.filtered_out == len(sender)
        assert renewed._full_domain == list(sender)
        assert len(renewed._domain) == 12
