"""Every recoded packet comes from :class:`repro.coding.Recoder`.

The recoding strategies and :meth:`ProtocolPeer.recoded_data` used to
draw their blends themselves.  Frozen copies of those two draws are kept
here as the reference: Hypothesis checks that the one recoder emits the
same packets (byte for byte on the wire, for the peer) and leaves the
RNG in the same state, over domain sizes around the degree cap of 50,
with and without the Recode/MW degree shift, and across Recode/BF's
domain truncation followed by ``renew()``.
"""

import random
from typing import Optional, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.coding import DegreeDistribution, LTEncoder, Packet, Recoder
from repro.coding.symbol import xor_payloads
from repro.delivery import WorkingSet
from repro.delivery.strategies import _RecodeBase
from repro.protocol import CodeParameters, DataMessage, ProtocolPeer

DOMAIN_SIZES = [1, 2, 49, 50, 51, 400]
SHIFTS = [0.0, 0.3, 0.99]


class _FrozenRecodeBase:
    """The recoding strategies' draw before it moved into the recoder."""

    _full_domain: Optional[list] = None

    def __init__(
        self,
        pool: Sequence[int],
        domain: Sequence[int],
        min_degree: int,
        max_degree: int = 50,
        degree_shift: float = 0.0,
        domain_limit: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ):
        self.rng = rng
        self._domain = list(domain) if domain else list(pool)
        if domain_limit is not None and 0 < domain_limit < len(self._domain):
            self._full_domain = self._domain
            self._domain = self.rng.sample(self._full_domain, domain_limit)
        max_degree = max(1, min(max_degree, len(self._domain)))
        min_degree = max(1, min(min_degree, max_degree))
        self._distribution = DegreeDistribution.recoding_soliton(
            len(self._domain), min_degree=min_degree, max_degree=max_degree
        )
        self._degree_shift = degree_shift
        self._max_degree = max_degree

    def _draw_degree(self) -> int:
        d = self._distribution.sample(self.rng)
        if self._degree_shift:
            d = min(self._max_degree, int(d / (1.0 - self._degree_shift)))
        return max(1, min(d, len(self._domain)))

    def renew(self) -> None:
        if self._full_domain is not None:
            self._domain = self.rng.sample(self._full_domain, len(self._domain))

    def next_packet(self) -> Packet:
        degree = self._draw_degree()
        chosen = self.rng.sample(self._domain, degree)
        return Packet.recoded(chosen)


def _frozen_recoded_data(symbols, rng, domain_ids=None) -> DataMessage:
    """``ProtocolPeer.recoded_data`` before it moved into the recoder."""
    pool = domain_ids if domain_ids else list(symbols)
    dist = DegreeDistribution.recoding_soliton(len(pool), max_degree=50)
    degree = min(dist.sample(rng), len(pool))
    chosen = rng.sample(pool, degree)
    payloads = [symbols[i].payload for i in chosen]
    if degree == 1:
        return DataMessage.encoded(chosen[0], payloads[0])
    return DataMessage.recoded(chosen, xor_payloads(payloads))


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from(DOMAIN_SIZES),
    shift=st.sampled_from(SHIFTS),
    whole_pool=st.booleans(),
    limit=st.one_of(st.none(), st.integers(1, 60), st.integers(61, 420)),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=400, shift=0.0, whole_pool=False, limit=30, seed=1)
@example(size=400, shift=0.99, whole_pool=True, limit=51, seed=2)
@example(size=51, shift=0.3, whole_pool=False, limit=50, seed=3)
@example(size=2, shift=0.3, whole_pool=True, limit=1, seed=4)
def test_the_strategies_draw_what_they_drew(size, shift, whole_pool, limit, seed):
    ids = random.Random(seed).sample(range(1 << 30), size + 7)
    pool, domain = ids[:size] if whole_pool else ids, () if whole_pool else ids[:size]
    working_set = WorkingSet(pool)
    ours, frozen = random.Random(seed), random.Random(seed)
    strategy = _RecodeBase(
        working_set, domain, degree_shift=shift, domain_limit=limit, rng=ours
    )
    reference = _FrozenRecodeBase(
        list(working_set), domain, 1, degree_shift=shift, domain_limit=limit, rng=frozen
    )
    for _ in range(2):
        assert strategy._domain == reference._domain
        assert ours.getstate() == frozen.getstate()
        assert [strategy.next_packet() for _ in range(30)] == [
            reference.next_packet() for _ in range(30)
        ]
        assert ours.getstate() == frozen.getstate()
        strategy.renew()
        reference.renew()


@pytest.fixture(scope="module")
def held_symbols():
    params = CodeParameters(num_blocks=64, block_size=8, stream_seed=3)
    content = bytes(random.Random(5).randrange(256) for _ in range(64 * 8))
    return params, params.encoder_for(content).symbols(range(420))


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from(DOMAIN_SIZES),
    whole_set=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_peer_sends_what_it_sent(held_symbols, size, whole_set, seed):
    params, symbols = held_symbols
    held = symbols[:size] if whole_set else symbols
    ours, frozen = random.Random(seed), random.Random(seed)
    peer = ProtocolPeer("p", params, initial_symbols=held, rng=ours)
    domain = None if whole_set else [s.symbol_id for s in symbols[:size]]
    for _ in range(20):
        sent = peer.recoded_data(domain)
        expected = _frozen_recoded_data(peer.symbols, frozen, domain)
        assert (sent.is_recoded, sent.pack()) == (expected.is_recoded, expected.pack())
        assert ours.getstate() == frozen.getstate()


class TestRecoderOptions:
    def _domain(self, n=400):
        return list(range(1000, 1000 + n))

    def test_shift_formula(self):
        # Section 6.2: a sampled degree d becomes floor(d / (1 - c)), capped.
        for seed in range(200):
            plain = len(Recoder.over_ids(self._domain(), random.Random(seed)).draw())
            shifted = Recoder.over_ids(self._domain(), random.Random(seed), 0.5)
            assert len(shifted.draw()) == min(50, int(plain / 0.5))

    def test_shift_capped_at_max(self):
        recoder = Recoder.over_ids(self._domain(), random.Random(1), 0.99)
        assert {len(recoder.draw()) for _ in range(50)} == {50}

    @pytest.mark.parametrize("shift", [-0.1, 1.0, 1.5])
    def test_shift_outside_the_unit_interval_is_refused(self, shift):
        with pytest.raises(ValueError, match="degree shift"):
            Recoder.over_ids(self._domain(), random.Random(1), shift)

    def test_empty_domain_is_refused(self):
        with pytest.raises(ValueError, match="empty"):
            Recoder.over_ids([], random.Random(1))

    def test_both_constructors_draw_alike(self):
        symbols = LTEncoder(500, stream_seed=2).symbols(range(120))
        ids = [s.symbol_id for s in symbols]
        a = Recoder(symbols, min_degree=3, rng=random.Random(4))
        b = Recoder(symbols, min_degree=3, rng=random.Random(4))
        assert [a.next_symbol() for _ in range(30)] == [
            Packet.recoded(b.draw()) for _ in range(30)
        ]
        c = Recoder.over_ids(ids, random.Random(9))
        d = Recoder(symbols, rng=random.Random(9))
        assert [c.next_symbol() for _ in range(30)] == [
            d.next_symbol() for _ in range(30)
        ]

    def test_over_ids_holds_the_domain_it_was_given(self):
        domain = self._domain(60)
        assert Recoder.over_ids(domain, random.Random(1)).domain is domain
