"""Summary policies through the protocol stack, and default-policy pins.

Two halves:

* **Pins** — with nobody choosing a policy,
  :class:`~repro.protocol.session.TransferSession` and
  :func:`~repro.delivery.strategies.make_strategy` run under
  :data:`~repro.reconcile.DEFAULT_POLICY` and must reproduce the seeded
  behaviour of the original hardcoded min-wise/Bloom implementation.
  The literals below were recorded against it; only the control bytes
  (the 4-byte summary header every summary now charges), the
  ``Recode/MW`` stream (estimated through the policy, no ground-truth
  peek) and the session's packet counts (its blends now come from the
  session's strategy) were ever re-recorded.
* **Policies** — every reconciliation-capable summary kind drives a
  full byte-accounted session to completion, the session's policy is
  the one that names the summary, and the handshake charges the two
  hellos and the request at the session's wire sizes.
"""

import hashlib
import random

import pytest

from repro.delivery import make_strategy
from repro.delivery.scenarios import make_pair_scenario
from repro.protocol import CodeParameters, ProtocolPeer, TransferSession
from repro.protocol.session import HELLO_HEADER_BYTES, REQUEST_BYTES
from repro.reconcile import CALLING_CARD, DEFAULT_POLICY, SummaryPolicy


def make_params(num_blocks=200, block_size=24, seed=11):
    return CodeParameters(
        num_blocks=num_blocks, block_size=block_size, stream_seed=seed
    )


def make_content(params, seed=3):
    rng = random.Random(seed)
    return bytes(
        rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
    )


def seeded_pair(params, content):
    enc = params.encoder_for(content)
    a = ProtocolPeer("a", params, initial_symbols=enc.symbols(range(0, 160)))
    b = ProtocolPeer("b", params, initial_symbols=enc.symbols(range(100, 260)))
    return a, b


class TestDefaultPolicyPins:
    """Pins recorded against the pre-reconcile hardcoded implementation."""

    def test_default_session_bytes_unchanged(self, drive):
        params = make_params()
        a, b = seeded_pair(params, make_content(params))
        stats = drive(TransferSession(a, b, rng=random.Random(23)), max_packets=5000)
        assert stats.completed
        # 2240 under the inline messages + the 4-byte summary header on
        # each of the two hellos and the one Bloom summary.
        assert stats.control_bytes == 2252
        # Re-recorded (was 82 / 3) when the blends moved from the
        # sender peer's own rng to the session's Recode/BF strategy.
        assert stats.data_packets == 88
        assert stats.useful_packets == 6
        assert round(stats.estimated_correlation, 6) == 0.315789

    # SHA-256 prefixes of the first 300 packet identities each strategy
    # emits from rng seed 5 on the seed-17 pair layout.
    STRATEGY_PINS = {
        "Random": "e1a7618b5d308660",
        "Random/BF": "fa4203c7b20fb4dd",
        "Recode": "919362c06b34c611",
        "Recode/BF": "3b3550ef84f24731",
        # Re-recorded (was 9374ea6928e72c41 with the ground-truth peek).
        "Recode/MW": "f4c57a3092de9be1",
    }

    @pytest.mark.parametrize("name", sorted(STRATEGY_PINS))
    def test_default_strategy_packet_stream_unchanged(self, name):
        layout = make_pair_scenario(400, 1.1, 0.3, random.Random(17))
        strategy = make_strategy(
            name, layout.sender, layout.receiver, random.Random(5),
            symbols_desired=100,
        )
        digest = hashlib.sha256()
        for _ in range(300):
            pkt = strategy.next_packet()
            digest.update(
                repr((pkt.symbol_id, tuple(sorted(pkt.constituent_ids)))).encode()
            )
        assert digest.hexdigest()[:16] == self.STRATEGY_PINS[name]


POLICIES = {
    "bloom": SummaryPolicy(kind="bloom", params={"bits_per_element": 8}),
    "art": SummaryPolicy(kind="art", params={"bits_per_element": 8, "correction": 2}),
    "cpi": SummaryPolicy(kind="cpi", params={"max_discrepancy": 250}),
    "hashset": SummaryPolicy(kind="hashset"),
    "wholeset": SummaryPolicy(kind="wholeset"),
    "minwise": SummaryPolicy(kind="minwise", params={"entries": 128}),
}


class TestPolicySessions:
    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_session_completes_under_policy(self, kind, drive):
        policy = POLICIES[kind]
        params = make_params()
        content = make_content(params)
        a, b = seeded_pair(params, content)
        session = TransferSession(a, b, rng=random.Random(23), summary_policy=policy)
        assert session.summary_policy is policy
        stats = drive(session, max_packets=6000)
        assert stats.completed
        assert b.decoded_content(len(content)) == content
        assert stats.control_bytes > 0
        # Searchable kinds ship a summary; estimate-only kinds cannot.
        assert stats.used_summary == policy.can_filter

    def test_policy_estimates_correlation(self):
        params = make_params()
        a, b = seeded_pair(params, make_content(params))
        session = TransferSession(
            a, b, rng=random.Random(23), summary_policy=POLICIES["bloom"]
        )
        assert session.handshake()
        # True overlap: 60 of a's 160 symbols are shared.
        assert abs(session.stats.estimated_correlation - 60 / 160) < 0.12

    def test_cpi_bound_too_small_degrades_gracefully(self, drive):
        policy = SummaryPolicy(kind="cpi", params={"max_discrepancy": 16})
        params = make_params()
        a, b = seeded_pair(params, make_content(params))
        stats = drive(
            TransferSession(a, b, rng=random.Random(23), summary_policy=policy),
            max_packets=6000,
        )
        # Bytes were spent, the bound failed, recoding proceeded blind.
        assert not stats.used_summary
        assert stats.completed

    def test_the_session_policy_decides_the_summary_bytes(self, drive):
        """The session's policy is the one agreement on the summary: an
        ART session charges the ART, not the default Bloom filter."""
        params = make_params()
        content = make_content(params)
        default_bytes = drive(
            TransferSession(*seeded_pair(params, content), rng=random.Random(23)),
            max_packets=6000,
        ).control_bytes
        a, b = seeded_pair(params, content)
        session = TransferSession(
            a, b, rng=random.Random(23), summary_policy=POLICIES["art"]
        )
        assert session.summary_policy is POLICIES["art"]
        stats = drive(session, max_packets=6000)
        assert stats.completed
        assert stats.used_summary
        assert stats.control_bytes != default_bytes

    def test_policy_handshake_charges_the_cards_it_estimates_from(self):
        """An estimate-only policy ships no summary: the handshake is the
        two hellos (header + calling card, whatever the policy) and the
        request."""
        params = make_params()
        a, b = seeded_pair(params, make_content(params))
        session = TransferSession(
            a, b, rng=random.Random(23), summary_policy=POLICIES["minwise"]
        )
        assert session.handshake()
        card = CALLING_CARD.build(range(10))
        expected = 2 * (HELLO_HEADER_BYTES + card.wire_bytes()) + REQUEST_BYTES
        assert session.stats.control_bytes == expected == 2 * (8 + 4 + 8 * 128) + 4


class TestOneCallingCard:
    """Every hello carries CALLING_CARD, so a policy is only a kind and
    its params: a spec that names the default Bloom policy is the
    default policy, and its session is the default session."""

    @staticmethod
    def spec_policy():
        from repro.api.spec import SummarySpec

        return SummarySpec(kind="bloom", params=(("bits_per_element", 8),)).policy()

    def test_a_spec_built_bloom8_policy_is_the_default_policy(self):
        policy = self.spec_policy()
        assert policy == DEFAULT_POLICY
        assert hash(policy) == hash(DEFAULT_POLICY)

    def test_a_spec_policy_session_is_the_default_session(self, drive):
        params = make_params()
        content = make_content(params)
        stats = {}
        for name, policy in (("spec", self.spec_policy()), ("default", DEFAULT_POLICY)):
            a, b = seeded_pair(params, content)
            session = TransferSession(a, b, rng=random.Random(23), summary_policy=policy)
            stats[name] = drive(session, max_packets=6000)
        assert stats["spec"].completed
        assert stats["spec"].used_summary
        assert stats["spec"].to_dict() == stats["default"].to_dict()

    def test_correlation_is_estimated_across_the_two_peers(self):
        params = make_params()
        a, b = seeded_pair(params, make_content(params))
        # a holds 0..159, b 100..259: 60 shared of each one's 160.
        for sender, receiver in ((a, b), (b, a)):
            session = TransferSession(
                sender, receiver, rng=random.Random(0),
                summary_policy=self.spec_policy(),
            )
            assert session.handshake()
            assert session.stats.estimated_correlation == pytest.approx(
                60 / 160, abs=0.15
            )
