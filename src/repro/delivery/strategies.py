"""The five sender strategies compared in Section 6.2.

All strategies are *stateless per packet* — the sender never remembers
what it already sent on a connection.  That is deliberate: Section 2.2
argues per-connection state is what kills scalability, and Section 6.1
notes summaries are never updated during a transfer ("we never send
updates to our Bloom filter").  Statelessness is also what makes Random
selection a coupon-collector process in compact scenarios.

Strategies:

* ``Random`` — pick an available symbol uniformly (Swarmcast-style).
* ``Random/BF`` — pick uniformly among symbols *not* in the receiver's
  Bloom filter (guaranteed-useful modulo nothing: no false usefulness,
  only FP-hidden symbols are lost).
* ``Recode`` — recoded symbols over the whole working set, oblivious.
* ``Recode/BF`` — recoded symbols over the Bloom-filtered subset.
* ``Recode/MW`` — recoded symbols over the whole set with the degree
  distribution shifted by the min-wise-estimated correlation.

"Bloom filter" and "min-wise" are the paper's instances: every informed
strategy reconciles through a :class:`~repro.reconcile.SummaryPolicy`
(:func:`make_strategy`), whose default is that Bloom filter.
"""

import random
from typing import Callable, Dict, Optional, Sequence

from repro.coding.recode import Recoder
from repro.coding.symbol import Packet
from repro.delivery.working_set import WorkingSet
from repro.exact.cpi import DiscrepancyExceeded
from repro.reconcile import DEFAULT_POLICY, SummaryPolicy
from repro.seeding import randbelow, sample


class SenderStrategy:
    """Base class: a sender's rule for composing the next packet.

    :meth:`renew` stands in for rebuilding the strategy from unchanged
    inputs: it replays exactly the RNG draws construction made (only
    Recode/BF's domain truncation makes any), so an engine that renews
    instead of rebuilding consumes the same stream and composes the
    same packets.
    """

    #: Human-readable name matching the paper's legend.
    name: str = "abstract"

    def __init__(self, working_set: WorkingSet, rng: random.Random):
        if len(working_set) == 0:
            raise ValueError("a sender with an empty working set cannot transmit")
        self.working_set = working_set
        self.rng = rng
        # Materialised list for O(1) uniform sampling.
        self._pool = list(working_set)

    def next_packet(self) -> Packet:
        """Compose one transmission."""
        raise NotImplementedError

    def renew(self) -> None:
        """Become what a rebuild from the same, unchanged sets would be.

        A rebuild re-derives everything but the RNG draws from the same
        inputs, so renewing replays those draws and nothing else.  The
        base strategy draws nothing at construction.
        """

    # -- shared helpers ---------------------------------------------------

    def _uniform_id(self, pool: Sequence[int]) -> int:
        return pool[randbelow(self.rng, len(pool))]


class RandomStrategy(SenderStrategy):
    """Uniform random selection from the working set (the baseline)."""

    name = "Random"

    def next_packet(self) -> Packet:
        return Packet.encoded(self._uniform_id(self._pool))


class _RecodeBase(SenderStrategy):
    """The recoding strategies' domain; every blend over it is drawn by
    :class:`~repro.coding.Recoder`."""

    #: The domain before truncation, kept only when it was truncated.
    _full_domain: Optional[list] = None

    def __init__(
        self,
        working_set: WorkingSet,
        domain: Sequence[int],
        degree_shift: float = 0.0,
        domain_limit: Optional[int] = None,
        *,
        rng: random.Random,
    ):
        super().__init__(working_set, rng)
        domain = list(domain) if domain else list(self._pool)
        if domain_limit is not None and 0 < domain_limit < len(domain):
            # Section 6.1: "we restrict the recoding domain to an
            # appropriate small size" — recoding over a domain matched to
            # what the receiver asked for lets pending blends resolve
            # instead of scattering over symbols that will never arrive.
            self._full_domain = domain
            domain = sample(self.rng, domain, domain_limit)
        self._recoder = Recoder.over_ids(domain, self.rng, degree_shift)

    @property
    def _domain(self) -> list:
        return self._recoder.domain

    def renew(self) -> None:
        if self._full_domain is not None:
            self._recoder.domain = sample(
                self.rng, self._full_domain, len(self._domain)
            )

    def next_packet(self) -> Packet:
        return Packet.recoded(self._recoder.draw())


class RecodeStrategy(_RecodeBase):
    """Oblivious recoding over the entire working set (no summary info)."""

    name = "Recode"

    def __init__(self, working_set: WorkingSet, rng: random.Random):
        super().__init__(working_set, domain=(), rng=rng)


class RandomSummaryStrategy(SenderStrategy):
    """Random selection over a summary-reconciled useful domain.

    The paper's Random/BF, for *any* difference-capable
    :class:`~repro.reconcile.base.Summary` (Bloom, counting/partitioned
    Bloom, ART search, exact CPI...).  The summary is applied once at
    connection setup; false positives hide some useful symbols for the
    whole transfer (paper Figure 5 notes BF strategies plateau at the
    FP-induced loss).  If it eliminates everything (identical sets up
    to FPs), falls back to plain random so a sender never stalls
    silently.
    """

    name = "Random/summary"

    def __init__(
        self,
        working_set: WorkingSet,
        useful_domain: Sequence[int],
        rng: random.Random,
        label: Optional[str] = None,
    ):
        super().__init__(working_set, rng)
        self._useful = list(useful_domain)
        self.filtered_out = len(self._pool) - len(self._useful)
        if label:
            self.name = label

    def next_packet(self) -> Packet:
        pool = self._useful if self._useful else self._pool
        return Packet.encoded(self._uniform_id(pool))


class RecodeSummaryStrategy(_RecodeBase):
    """Recoding over a summary-reconciled useful domain.

    The paper's Recode/BF, for any difference-capable summary.  With
    the domain already purged of symbols the receiver holds (modulo the
    structure's stated error), low degrees are safe — the distribution
    starts at 1 and stays heavy-tailed to tolerate parallel-download
    races.
    """

    name = "Recode/summary"

    def __init__(
        self,
        working_set: WorkingSet,
        useful_domain: Sequence[int],
        symbols_desired: Optional[int] = None,
        *,
        rng: random.Random,
        label: Optional[str] = None,
    ):
        super().__init__(
            working_set,
            domain=list(useful_domain),
            domain_limit=symbols_desired,
            rng=rng,
        )
        self.filtered_out = len(working_set) - len(useful_domain)
        if label:
            self.name = label


class RecodeMWStrategy(_RecodeBase):
    """Recoding with the min-wise-informed degree shift (Section 6.2).

    The sender recodes over its whole set but, knowing the estimated
    correlation ``c``, shifts a sampled degree ``d`` to ``floor(d/(1-c))``
    (capped) so most constituents land in the intersection and the blend
    reduces to something new with good probability.
    """

    name = "Recode/MW"

    def __init__(
        self,
        working_set: WorkingSet,
        estimated_correlation: float,
        rng: random.Random,
    ):
        if not 0.0 <= estimated_correlation <= 1.0:
            raise ValueError("correlation estimate must lie in [0, 1]")
        # Section 6.2: same base distribution as plain Recode; a sampled
        # degree d becomes floor(d / (1 - c)), capped at the maximum.
        super().__init__(
            working_set,
            domain=(),
            degree_shift=min(estimated_correlation, 0.99),
            rng=rng,
        )
        self.estimated_correlation = estimated_correlation


#: Legend-order names, as they appear in Figures 5-8.
STRATEGY_NAMES = ("Random", "Random/BF", "Recode", "Recode/BF", "Recode/MW")

#: The receiver's request margin over its (even share of the) deficit:
#: decoding-overhead allowance plus slack for sender-domain overlap
#: (Section 6.1's "symbols desired").  Every layer that sizes a request
#: — overlay connections, protocol sessions, the figure sweeps, the
#: spec constructors — reads this one constant.
DEFAULT_DESIRED_MARGIN = 1.15


def make_strategy(
    name: str,
    sender_set: WorkingSet,
    receiver_set: WorkingSet,
    rng: random.Random,
    correlation_estimate: Optional[float] = None,
    symbols_desired: Optional[int] = None,
    summary_policy: SummaryPolicy = DEFAULT_POLICY,
) -> SenderStrategy:
    """Construct a strategy by legend name, reading the summaries it needs.

    The receiver's summary is its working set's own, under
    ``summary_policy`` (a :class:`~repro.reconcile.SummaryPolicy`; the
    default is the paper's 8-bits-per-element Bloom filter) — one
    cached object however many senders consult it — and is reconciled
    on the sender side via the generic
    :class:`~repro.reconcile.base.Summary` surface: the ``/BF``
    strategies purge their domain through it (Bloom, ART, CPI, ...) and
    ``Recode/MW`` takes its correlation from the policy's estimator
    unless ``correlation_estimate`` supplies one (a caller that already
    ran sketch exchange).  ``symbols_desired`` is the count the
    receiver requested from this sender (Section 6.1) and bounds the
    Recode/BF recoding domain.
    """
    policy = summary_policy
    if name == "Random":
        return RandomStrategy(sender_set, rng)
    if name == "Recode":
        return RecodeStrategy(sender_set, rng)
    if name not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}"
        )

    def blind(cls, base: str) -> SenderStrategy:
        # Oblivious fallback when the summary provides nothing to act
        # on — a sketch-only policy under Random (estimates cannot
        # steer uniform selection) or an exceeded CPI bound.  The label
        # records the information the strategy lacked.
        strategy = cls(sender_set, rng)
        strategy.name = f"{base}/{policy.kind}-blind"
        return strategy

    def useful_subset() -> Optional[list]:
        # An exact summary whose discrepancy bound proves too small
        # (CPI) provides no information — fall back to oblivious
        # selection (a protocol session's too) rather than crash.
        try:
            return policy.useful_subset(
                policy.summary_of(receiver_set), list(sender_set)
            )
        except DiscrepancyExceeded:
            return None

    if name == "Random/BF":
        useful = useful_subset() if policy.can_filter else None
        if useful is None:
            return blind(RandomStrategy, "Random")
        return RandomSummaryStrategy(
            sender_set, useful, rng, label=f"Random/{policy.kind}"
        )
    if name == "Recode/BF" and policy.can_filter:
        useful = useful_subset()
        if useful is None:
            return blind(RecodeStrategy, "Recode")
        if policy.partial_coverage:
            symbols_desired = None  # the domain still holds held ids
        return RecodeSummaryStrategy(
            sender_set,
            useful,
            symbols_desired=symbols_desired,
            rng=rng,
            label=f"Recode/{policy.kind}",
        )
    # Recode/MW — and Recode/BF under an estimate-only summary (a
    # sketch), which cannot purge the domain: the informed fallback is
    # the correlation-shifted degree, so the same spec runs every kind,
    # each using all the information its summary actually provides.
    c = correlation_estimate
    if c is None:
        c = policy.correlation(policy.summary_of(receiver_set), list(sender_set))
    strategy = RecodeMWStrategy(sender_set, c, rng)
    strategy.name = f"Recode/{policy.kind}-est"
    return strategy
