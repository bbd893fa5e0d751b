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
* ``supports_merge`` — :meth:`Summary.merge` combines two summaries
  into the summary of the union (three-party overlap checks, §4).
* ``supports_estimate`` — :meth:`Summary.estimate_difference`
  estimates the symmetric-difference size ``|A Δ B|`` against another
  summary of the same kind.
* ``exact`` — :meth:`Summary.missing_from` returns exactly the set
  difference (no approximation beyond the structure's stated
  collision bounds).

Some estimators need the builder's original ids (a Bloom filter can
count which of *its own* elements fall outside a received filter, but a
wire-reconstructed filter no longer knows its elements).  Summaries
built locally via :meth:`Summary.build` retain their ids; summaries
reconstructed via :meth:`Summary.from_payload` do not, and methods that
need them raise :class:`SummaryError` with a clear message.
"""

import abc
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Sequence


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
    supports_merge: ClassVar[bool] = False
    supports_estimate: ClassVar[bool] = False
    exact: ClassVar[bool] = False
    #: True when :meth:`missing_from` is authoritative for only part of
    #: the key space (one residue partition, say) — difference *counts*
    #: then understate the truth and must not feed correlation directly,
    #: and the summary's ``covers(key)`` says which keys it speaks for.
    partial_coverage: ClassVar[bool] = False
    #: True when :meth:`absorb` can fold newly added ids into a locally
    #: built summary, producing exactly what a from-scratch rebuild over
    #: the union would (min-wise minima, Bloom-family bit arrays);
    #: structures whose content depends globally on the full set (mod-k
    #: truncation, ART tries, CPI polynomials, ...) leave this False and
    #: keep the rebuild path.
    supports_incremental: ClassVar[bool] = False
    #: True when the class summarises many sets in one kernel pass:
    #: ``build_many(id_sets, **params)`` (and, when incremental,
    #: ``absorb_many`` over ``(summary, new_ids)`` pairs) return exactly
    #: what per-set :meth:`build` / :meth:`absorb` calls would.  Kinds
    #: without such a kernel leave this False and are built one set at
    #: a time.
    supports_batch: ClassVar[bool] = False

    #: Number of distinct ids summarised (travels in the 4-byte header).
    set_size: int = 0

    #: The builder's original ids; ``None`` after wire reconstruction.
    _local_ids: Optional[frozenset] = None

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

    def __contains__(self, key: int) -> bool:
        return self.may_contain(key)

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
        """Summary of the union of the two summarised sets."""
        raise SummaryError(
            f"{self.kind or type(self).__name__} summaries do not support merging"
        )

    def absorb(self, new_ids: Iterable[int]) -> "Summary":
        """Fold newly added ids in; **bit-identical** to a full rebuild.

        Returns a new summary equal — payload for payload — to
        ``type(self).build(old_ids | set(new_ids), **same build params)``.
        Never mutates ``self`` (cached references stay valid), requires
        a locally built summary (wire reconstructions no longer know
        their ids or build parameters), and may fall back to an internal
        rebuild when the structure's auto-sizing changes with the new
        cardinality — the contract is the output, not the work saved.
        Ids already summarised are ignored.
        """
        raise SummaryError(
            f"{self.kind or type(self).__name__} summaries do not support "
            "incremental updates; rebuild from the full id set"
        )

    def add(self, key: int) -> "Summary":
        """Absorb a single id — sugar over :meth:`absorb`."""
        return self.absorb((key,))

    def estimate_difference(self, other: "Summary") -> float:
        """Estimated symmetric-difference size ``|A Δ B|``."""
        raise SummaryError(
            f"{self.kind or type(self).__name__} summaries do not support "
            "difference estimation"
        )

    # -- shared helpers ---------------------------------------------------

    @property
    def is_local(self) -> bool:
        """True when this summary still knows the ids it was built from."""
        return self._local_ids is not None

    def _require_local(self, what: str) -> frozenset:
        if self._local_ids is None:
            raise SummaryError(
                f"{what} needs the summary's original ids; this {self.kind} "
                "summary was reconstructed from the wire and no longer has them"
            )
        return self._local_ids

    def compatible_build_params(self) -> Dict[str, Any]:
        """Build parameters a peer needs to construct a *comparable* summary.

        Family-keyed structures (min-wise permutations, mod-k sampling,
        hash sets, ART hash seeds) return the agreement parameters a
        local counterpart must share; structures whose estimators need
        only the local ids return ``{}``.
        """
        return {}

    def _merged_local_ids(self, other: "Summary", fallback: Optional[int] = None):
        """``(ids, size)`` for a merge result.

        The union's exact ids (and size) when both sides were built
        locally; otherwise ``(None, fallback)`` — defaulting to the
        larger operand's size, the tightest bound a wire-reconstructed
        pair can assert.
        """
        if self._local_ids is not None and other._local_ids is not None:
            ids = self._local_ids | other._local_ids
            return ids, len(ids)
        if fallback is None:
            fallback = max(self.set_size, other.set_size)
        return None, fallback

    def _check_kind(self, other: "Summary") -> None:
        if not isinstance(other, Summary) or other.kind != self.kind:
            raise SummaryError(
                f"cannot combine a {self.kind} summary with "
                f"{getattr(other, 'kind', type(other).__name__)!r}"
            )

    @classmethod
    def capabilities(cls) -> Dict[str, bool]:
        """The capability flags as a dict (docs, tests, policy checks)."""
        return {
            "membership": cls.supports_membership,
            "difference": cls.supports_difference,
            "merge": cls.supports_merge,
            "estimate": cls.supports_estimate,
            "exact": cls.exact,
            "incremental": cls.supports_incremental,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} kind={self.kind!r} n={self.set_size} "
            f"wire={self.wire_bytes()}B local={self.is_local}>"
        )


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
    "hex_bytes",
    "unhex_bytes",
    "payload_int",
    "payload_int_list",
]
