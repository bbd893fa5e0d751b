"""The one ``Summary`` interface from sketches to exact reconciliation.

The paper's peers exchange working-set summaries of varying cost and
precision — min-wise sketches as calling cards (§4), Bloom filters and
approximate reconciliation trees as searchable summaries (§5.2-5.3),
characteristic-polynomial and whole-set transfers as exact baselines
(§5.1) — and pick the cheapest one that makes recoding useful.  This
module defines the uniform surface that makes those structures
interchangeable: every adapter builds from a set of symbol ids, reports
an honest wire size, round-trips through a JSON-able payload, and
exposes whichever reconciliation capabilities its structure supports,
declared through class-level capability flags.

Capability flags (all ``False`` on the base class):

* ``supports_membership`` — :meth:`Summary.may_contain` answers
  single-key queries ("no" is always definite; "yes" may be a false
  positive).
* ``supports_difference`` — :meth:`Summary.missing_from` can compute,
  from a *received* summary, which candidate keys the summarised set
  definitely lacks (the sender-side reconciliation primitive).
* ``supports_estimate`` — :meth:`Summary.estimate_difference`
  estimates the symmetric-difference size ``|A Δ B|`` against another
  summary of the same kind.
* ``exact`` — :meth:`Summary.missing_from` returns exactly the set
  difference (no approximation beyond the structure's stated
  collision bounds).
* ``supports_incremental`` — :meth:`Summary.absorb` folds ids in, and
  ``build_many`` / ``absorb_many`` do many sets in one kernel pass.

A summary holds no copy of the ids it was built from: it is what a
peer ships, and the peer's working set is the only copy.  An estimate
that needs the builder's own ids (a Bloom filter counts which of *its
own* ids fall outside a received filter) takes them from its caller,
who holds the set; a summary rebuilt from its payload answers every
estimate, ``missing_from`` and ``may_contain`` as the original does.
:meth:`Summary.absorb` takes ids not yet summarised, each once.
"""

import abc
from typing import Any, ClassVar, Collection, Dict, Iterable, List, Optional


class SummaryError(ValueError):
    """A summary operation its structure cannot support (or bad params)."""


class Summary(abc.ABC):
    """A working-set summary exchangeable between peers.

    Concrete adapters set ``kind`` (the registry key) and the
    capability flags, and implement the abstract surface.  ``set_size``
    — the number of distinct summarised ids — always travels with the
    summary; every honest ``wire_bytes`` includes its 4-byte header.
    """

    #: Registry key (e.g. ``"bloom"``); set by every adapter.
    kind: ClassVar[str] = ""
    supports_membership: ClassVar[bool] = False
    supports_difference: ClassVar[bool] = False
    supports_estimate: ClassVar[bool] = False
    exact: ClassVar[bool] = False
    #: True when :meth:`missing_from` is authoritative for only part of
    #: the key space (one residue partition, say) — difference *counts*
    #: then understate the truth and must not feed correlation directly,
    #: and the summary's ``covers(key)`` says which keys it speaks for.
    partial_coverage: ClassVar[bool] = False
    #: True when :meth:`absorb` folds newly added ids in, producing
    #: exactly what a from-scratch rebuild over the union would, and
    #: the class summarises many sets in one kernel pass:
    #: ``build_many(id_sets, **params)`` and ``absorb_many`` over
    #: ``(summary, new_ids)`` pairs return what per-set :meth:`build` /
    #: :meth:`absorb` calls would.  Only the min-wise card (§4's
    #: O(1)-per-symbol maintenance); every other kind is rebuilt from
    #: the set, one at a time.
    supports_incremental: ClassVar[bool] = False

    #: Number of distinct ids summarised (travels in the 4-byte header).
    set_size: int = 0

    # -- construction -----------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def build(cls, ids: Iterable[int], **params: Any) -> "Summary":
        """Summarise ``ids``; adapter-specific ``params`` size the result."""

    # -- wire surface -----------------------------------------------------

    @abc.abstractmethod
    def wire_bytes(self) -> int:
        """Honest serialised size in bytes, headers included."""

    @abc.abstractmethod
    def to_payload(self) -> Dict[str, Any]:
        """JSON-able payload, inverse of :meth:`from_payload`.

        Always includes ``"kind"`` and ``"set_size"``; bulk binary
        content travels as hex strings.
        """

    @classmethod
    @abc.abstractmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Summary":
        """Reconstruct a summary received over the wire."""

    # -- reconciliation surface (capability-flagged) ----------------------

    def may_contain(self, key: int) -> bool:
        """Single-key membership: False is definite, True may be an FP."""
        raise SummaryError(
            f"{self.kind or type(self).__name__} summaries do not support "
            "single-key membership queries"
        )

    def missing_from(self, candidates: Iterable[int]) -> List[int]:
        """Candidate keys definitely absent from the summarised set.

        The sender-side reconciliation primitive: stream your working
        set through a received summary; whatever falls out is
        guaranteed useful to the summariser.  The default walks
        :meth:`may_contain`; structures with a cheaper search (ARTs)
        or a global recovery (CPI) override it.
        """
        if not self.supports_membership:
            raise SummaryError(
                f"{self.kind or type(self).__name__} summaries cannot "
                "compute set differences; use an estimate-capable method"
            )
        return [key for key in candidates if not self.may_contain(key)]

    def merge(self, other: "Summary") -> "Summary":
        """Summary of the union of the two summarised sets.

        Only min-wise cards merge (coordinate-wise minima, §4: join
        planning's coverage card); every other kind refuses.
        """
        raise SummaryError(
            f"{self.kind or type(self).__name__} summaries do not support merging"
        )

    def absorb(self, new_ids: Iterable[int]) -> "Summary":
        """Fold newly added ids in; **bit-identical** to a full rebuild.

        ``new_ids`` are ids not yet summarised, each once — what
        :meth:`~repro.delivery.working_set.WorkingSet.added_since`
        returns.  Returns a new summary equal — payload for payload — to
        ``type(self).build(old_ids | set(new_ids), **same build params)``
        and never mutates ``self`` (cached references stay valid).
        """
        raise SummaryError(
            f"{self.kind or type(self).__name__} summaries do not support "
            "incremental updates; rebuild from the full id set"
        )

    def estimate_difference(
        self, other: "Summary", ids: Optional[Collection[int]] = None
    ) -> float:
        """Estimated symmetric-difference size ``|A Δ B|``.

        ``ids`` is ``A``, the set this summary was built from, as the
        caller holds it (a set or a working set).  Kinds that compare
        two summaries do not read it; the searchable kinds search it
        through ``other`` (:func:`searched_intersection`), which is this
        default.
        """
        if not (self.supports_estimate and self.supports_difference):
            raise SummaryError(
                f"{self.kind or type(self).__name__} summaries do not support "
                "difference estimation"
            )
        self._check_kind(other)
        ids = self._ids_for_estimate(ids)
        return clamped_symmetric_difference(
            other.intersection(ids), len(ids), other.set_size
        )

    def intersection(self, ids: Collection[int]) -> Optional[float]:
        """``|L ∩ R|`` from this summary of ``R`` and the caller's own
        distinct ids ``L``, with no summary of ``L`` built.

        The searchable kinds search ``L`` through this summary
        (:func:`searched_intersection`); a random sample looks its keys
        up in ``L``.  ``None`` when the kind can only compare two
        summaries (min-wise, mod-k).
        """
        if not self.supports_difference:
            return None
        return searched_intersection(self, ids)

    # -- shared helpers ---------------------------------------------------

    def _ids_for_estimate(self, ids: Optional[Collection[int]]) -> Collection[int]:
        if ids is None:
            raise SummaryError(
                f"{self.kind} difference estimation needs the ids this "
                "summary was built from"
            )
        return ids

    def compatible_build_params(self) -> Dict[str, Any]:
        """Build parameters a peer needs to construct a *comparable* summary.

        Family-keyed structures (min-wise permutations, mod-k sampling,
        hash sets, ART hash seeds) return the agreement parameters a
        local counterpart must share; structures whose estimators need
        only the local ids return ``{}``.
        """
        return {}

    def _check_kind(self, other: "Summary") -> None:
        if not isinstance(other, Summary) or other.kind != self.kind:
            raise SummaryError(
                f"cannot combine a {self.kind} summary with "
                f"{getattr(other, 'kind', type(other).__name__)!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} kind={self.kind!r} n={self.set_size} "
            f"wire={self.wire_bytes()}B>"
        )


def searched_intersection(theirs: Summary, ids: Collection[int]) -> float:
    """``|L ∩ R|`` estimated by searching ``L = ids`` through ``theirs``,
    a summary of ``R`` that supports difference search.

    ``|L|`` less the ids ``theirs`` says it lacks; a ``partial_coverage``
    summary's count is extrapolated from the ids it ``covers`` (and,
    covering none of them, reads as ``min(|L|, |R|)``).  The searchable
    kinds' :meth:`Summary.intersection`, behind their
    :meth:`Summary.estimate_difference` and
    :meth:`~repro.reconcile.policy.SummaryPolicy.correlation`.  ``ids``
    must be distinct.
    """
    missing = len(theirs.missing_from(ids))
    if not theirs.partial_coverage:
        return len(ids) - missing
    covered = sum(1 for key in ids if theirs.covers(key))
    if not covered:
        return float(min(len(ids), theirs.set_size))
    return len(ids) - missing * (len(ids) / covered)


def clamped_symmetric_difference(
    intersection: float, size_a: int, size_b: int
) -> float:
    """``|A| + |B| - 2|A ∩ B|`` clamped to the feasible range.

    Estimators produce noisy intersections; the symmetric difference
    can never be negative nor smaller than the size imbalance
    ``||A| - |B||``, nor larger than ``|A| + |B|``.
    """
    d = size_a + size_b - 2.0 * intersection
    return min(float(size_a + size_b), max(float(abs(size_a - size_b)), d))


def hex_bytes(data: bytes) -> str:
    """Bytes -> hex string (JSON-able payload bulk)."""
    return data.hex()


def unhex_bytes(text: Any, field: str) -> bytes:
    """Hex string -> bytes, folding bad input into :class:`SummaryError`."""
    if not isinstance(text, str):
        raise SummaryError(f"payload field {field!r} must be a hex string")
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise SummaryError(f"payload field {field!r} is not valid hex: {exc}") from exc


def payload_int(payload: Dict[str, Any], field: str, default: Optional[int] = None) -> int:
    """Strict integer payload accessor (bools and floats rejected)."""
    value = payload.get(field, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SummaryError(f"payload field {field!r} must be an integer, got {value!r}")
    return value


def payload_int_list(payload: Dict[str, Any], field: str) -> List[int]:
    """Strict list-of-ints payload accessor."""
    value = payload.get(field)
    if not isinstance(value, (list, tuple)):
        raise SummaryError(f"payload field {field!r} must be an array of integers")
    out: List[int] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise SummaryError(
                f"payload field {field!r} must contain only integers, got {item!r}"
            )
        out.append(item)
    return out


__all__ = [
    "Summary",
    "SummaryError",
    "clamped_symmetric_difference",
    "searched_intersection",
    "hex_bytes",
    "unhex_bytes",
    "payload_int",
    "payload_int_list",
]
