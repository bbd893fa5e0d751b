"""Summary policies through the protocol stack, and default-policy pins.

Two halves:

* **Pins** — with nobody choosing a policy, :class:`~repro.protocol.
  peer.ProtocolPeer`, :class:`~repro.protocol.session.TransferSession`,
  and :func:`~repro.delivery.strategies.make_strategy` run under
  :data:`~repro.reconcile.DEFAULT_POLICY` and must reproduce the seeded
  behaviour of the original hardcoded min-wise/Bloom implementation.
  The literals below were recorded against it; only the control bytes
  (the 4-byte summary header every message now charges), the
  ``Recode/MW`` stream (estimated through the policy, no ground-truth
  peek) and the session's packet counts (its blends now come from the
  session's strategy) were ever re-recorded.
* **Policies** — every reconciliation-capable summary kind drives a
  full byte-accounted session to completion, and generic hello/summary
  messages report the carried summary's honest wire size.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.delivery import make_strategy
from repro.delivery.scenarios import make_pair_scenario
from repro.protocol import CodeParameters, ProtocolPeer, TransferSession
from repro.protocol.messages import HelloMessage, SummaryMessage
from repro.reconcile import (
    CALLING_CARD,
    DEFAULT_POLICY,
    SummaryError,
    SummaryPolicy,
    build_summary,
)


def make_params(num_blocks=200, block_size=24, seed=11):
    return CodeParameters(
        num_blocks=num_blocks, block_size=block_size, stream_seed=seed
    )


def make_content(params, seed=3):
    rng = random.Random(seed)
    return bytes(
        rng.randrange(256) for _ in range(params.num_blocks * params.block_size)
    )


def seeded_pair(params, content, policy=DEFAULT_POLICY):
    enc = params.encoder_for(content)
    a = ProtocolPeer(
        "a",
        params,
        initial_symbols=enc.symbols(range(0, 160)),
        summary_policy=policy,
    )
    b = ProtocolPeer(
        "b",
        params,
        initial_symbols=enc.symbols(range(100, 260)),
        summary_policy=policy,
    )
    return a, b


class TestDefaultPolicyPins:
    """Pins recorded against the pre-reconcile hardcoded implementation."""

    def test_default_session_bytes_unchanged(self):
        params = make_params()
        a, b = seeded_pair(params, make_content(params))
        stats = TransferSession(a, b, rng=random.Random(23)).run(max_packets=5000)
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


class TestSummaryBearingMessages:
    def test_hello_carries_any_summary_with_honest_bytes(self):
        s = build_summary("modk", range(100), modulus=8)
        hello = HelloMessage.carrying(s)
        assert hello.set_size == 100
        assert hello.wire_bytes() == 8 + s.wire_bytes()
        recovered = hello.summary()
        assert recovered.kind == "modk"
        assert recovered.sample == s.sample

    def test_summary_message_carries_any_summary(self):
        s = build_summary("art", range(128), bits_per_element=8)
        msg = SummaryMessage.carrying(s)
        assert msg.wire_bytes() == s.wire_bytes()
        found = set(msg.summary().missing_from(range(120, 140)))
        # Approximate: never a false difference, and most real ones found.
        assert found <= set(range(128, 140))
        assert len(found) >= 6

    @pytest.mark.parametrize("message", [HelloMessage, SummaryMessage])
    def test_a_body_that_is_not_json_is_refused(self, message):
        honest = message.carrying(build_summary("bloom", range(50)))
        torn = dataclasses.replace(honest, summary_json=honest.summary_json[:-1])
        with pytest.raises(SummaryError, match="not JSON"):
            torn.summary()

    def test_a_hello_mislabelled_as_a_card_is_refused(self):
        # A 50-id Bloom filter (74 B honest) labelled as an 11 B min-wise card.
        honest = HelloMessage.carrying(build_summary("bloom", range(50)))
        assert honest.wire_bytes() == 74
        lying = dataclasses.replace(
            honest, summary_kind="minwise", summary_wire_bytes=3
        )
        assert lying.wire_bytes() == 11
        with pytest.raises(SummaryError, match="summary_kind"):
            lying.summary()

    @pytest.mark.parametrize(
        "message, field, value",
        [(HelloMessage, "summary_kind", "modk"),
         (HelloMessage, "summary_wire_bytes", 1),
         (HelloMessage, "set_size", 49),
         (SummaryMessage, "summary_kind", "modk"),
         (SummaryMessage, "summary_wire_bytes", 1)],
        ids=["hello-kind", "hello-bytes", "hello-set-size", "summary-kind",
             "summary-bytes"],
    )
    def test_a_header_that_disagrees_with_its_summary_is_refused(
        self, message, field, value
    ):
        honest = message.carrying(build_summary("bloom", range(50)))
        honest.summary()
        with pytest.raises(SummaryError, match=field):
            dataclasses.replace(honest, **{field: value}).summary()

    def test_messages_stay_frozen_and_hashable(self):
        s = build_summary("wholeset", range(5))
        assert hash(HelloMessage.carrying(s)) == hash(HelloMessage.carrying(s))


POLICIES = {
    "bloom": SummaryPolicy(kind="bloom", params={"bits_per_element": 8}),
    "counting_bloom": SummaryPolicy(kind="counting_bloom"),
    "art": SummaryPolicy(kind="art", params={"bits_per_element": 8, "correction": 2}),
    "cpi": SummaryPolicy(kind="cpi", params={"max_discrepancy": 250}),
    "hashset": SummaryPolicy(kind="hashset"),
    "wholeset": SummaryPolicy(kind="wholeset"),
    "minwise": SummaryPolicy(kind="minwise", params={"entries": 128}),
}


class TestPolicySessions:
    @pytest.mark.parametrize("kind", sorted(POLICIES))
    def test_session_completes_under_policy(self, kind):
        policy = POLICIES[kind]
        params = make_params()
        content = make_content(params)
        a, b = seeded_pair(params, content, policy=policy)
        session = TransferSession(a, b, rng=random.Random(23))
        assert session.summary_policy is policy
        stats = session.run(max_packets=6000)
        assert stats.completed
        assert b.decoded_content(len(content)) == content
        assert stats.control_bytes > 0
        # Searchable kinds ship a summary; estimate-only kinds cannot.
        assert stats.used_summary == policy.can_filter

    def test_policy_estimates_correlation(self):
        params = make_params()
        a, b = seeded_pair(params, make_content(params), policy=POLICIES["bloom"])
        est = b.estimate_peer_correlation(a.hello())
        # True overlap: 60 of a's 160 symbols are shared.
        assert abs(est - 60 / 160) < 0.12

    def test_cpi_bound_too_small_degrades_gracefully(self):
        policy = SummaryPolicy(kind="cpi", params={"max_discrepancy": 16})
        params = make_params()
        content = make_content(params)
        a, b = seeded_pair(params, content, policy=policy)
        stats = TransferSession(a, b, rng=random.Random(23)).run(max_packets=6000)
        # Bytes were spent, the bound failed, recoding proceeded blind.
        assert not stats.used_summary
        assert stats.completed

    def test_non_bloom_policy_with_partitioned_rho_rejected(self):
        """The pipelined stream ships Bloom partitions: only a bloom
        session policy (the default included) may combine with it."""
        params = make_params()
        a, b = seeded_pair(params, make_content(params), policy=POLICIES["art"])
        with pytest.raises(ValueError, match="partitioned_rho"):
            TransferSession(a, b, partitioned_rho=4, rng=random.Random(0))

    def test_session_level_policy_over_default_policy_peers(self):
        """The session's policy is the agreement — an explicit one
        governs both ends, whatever the peers carry."""
        params = make_params()
        content = make_content(params)
        a, b = seeded_pair(params, content)  # both peers: DEFAULT_POLICY
        session = TransferSession(
            a, b, rng=random.Random(23), summary_policy=POLICIES["art"]
        )
        assert session.summary_policy is POLICIES["art"]
        default_bytes = (
            TransferSession(*seeded_pair(params, content), rng=random.Random(23))
            .run(max_packets=6000)
            .control_bytes
        )
        stats = session.run(max_packets=6000)
        assert stats.completed
        assert stats.used_summary
        # The ART's bytes were charged, not the peers' own Bloom filter's.
        assert stats.control_bytes != default_bytes

    def test_policy_handshake_charges_the_cards_it_estimates_from(self):
        """Control bytes reflect the session policy's messages, whatever
        policies the peer objects carry — same agreement, same bytes."""
        from repro.protocol.messages import HelloMessage

        params = make_params()
        content = make_content(params)
        policy = POLICIES["minwise"]  # estimate-only: hellos are the
        # entire control exchange besides the 4-byte request

        def control_bytes(peer_policy):
            a, b = seeded_pair(params, content, policy=peer_policy)
            session = TransferSession(
                a, b, rng=random.Random(23), summary_policy=policy
            )
            assert session.handshake()
            return session.stats.control_bytes

        with_peer_policy = control_bytes(policy)
        other_peer_policy = control_bytes(DEFAULT_POLICY)
        assert with_peer_policy == other_peer_policy
        card = CALLING_CARD.build(range(10))
        expected = 2 * HelloMessage.carrying(card).wire_bytes() + 4
        assert with_peer_policy == expected

    def test_explicit_session_policy_settles_mismatched_peers(self):
        params = make_params()
        content = make_content(params)
        a, _ = seeded_pair(params, content, policy=POLICIES["art"])
        _, b = seeded_pair(params, content)  # DEFAULT_POLICY: disagrees
        with pytest.raises(ValueError, match="different summary policies"):
            TransferSession(a, b, rng=random.Random(0))
        stats = TransferSession(
            a, b, rng=random.Random(23), summary_policy=POLICIES["art"]
        ).run(max_packets=6000)
        assert stats.completed
        assert stats.used_summary

    def test_mismatched_peer_policies_rejected(self):
        params = make_params()
        content = make_content(params)
        a, _ = seeded_pair(params, content, policy=POLICIES["bloom"])
        _, b = seeded_pair(params, content, policy=POLICIES["cpi"])
        with pytest.raises(ValueError, match="different summary policies"):
            TransferSession(a, b, rng=random.Random(0))


class TestOneCallingCard:
    """Every hello carries CALLING_CARD, so a policy is only a kind and
    its params: a spec that names the default Bloom policy is the
    default policy, and its peers talk to default peers."""

    @staticmethod
    def spec_policy():
        from repro.api.spec import SummarySpec

        return SummarySpec(kind="bloom", params=(("bits_per_element", 8),)).policy()

    def test_a_spec_built_bloom8_policy_is_the_default_policy(self):
        policy = self.spec_policy()
        assert policy == DEFAULT_POLICY
        assert hash(policy) == hash(DEFAULT_POLICY)

    def test_a_spec_policy_peer_and_a_default_peer_complete_a_session(self):
        params = make_params()
        content = make_content(params)
        a, _ = seeded_pair(params, content, policy=self.spec_policy())
        _, b = seeded_pair(params, content)
        stats = TransferSession(a, b, rng=random.Random(23)).run(max_packets=6000)
        assert stats.completed
        assert stats.used_summary

    def test_correlation_is_estimated_across_the_two_peers(self):
        params = make_params()
        content = make_content(params)
        a, _ = seeded_pair(params, content, policy=self.spec_policy())
        _, b = seeded_pair(params, content)
        # a holds 0..159, b 100..259: 60 shared of a's 160.
        assert a.estimate_peer_correlation(b.hello()) == pytest.approx(
            60 / 160, abs=0.15
        )
        assert b.estimate_peer_correlation(a.hello()) == pytest.approx(
            60 / 160, abs=0.15
        )
