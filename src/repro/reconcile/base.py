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

A kind's wire form is its ``WIRE`` layout, an ordered tuple of
:class:`Field` entries.  One codec reads every layout:
:meth:`Summary.to_payload` renders the JSON payload,
:meth:`Summary.from_payload` decodes one (a missing field, a wrong type,
a value out of range or a wrong length is a :class:`SummaryError`; no
field has a default), and :meth:`Summary.wire_bytes` sums what the
fields cost.  A rule across fields that no layout states (a Bloom
filter's probes against its bits, ART's bit budget, a partition's
residue) lives in the kind's constructor, which build and decode share.

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
import math
from array import array
from typing import Any, ClassVar, Collection, Dict, Iterable, List, NamedTuple
from typing import Optional, Tuple, Union

from repro.hashing.batch import UNSET


class SummaryError(ValueError):
    """A summary operation its structure cannot support (or bad params)."""


#: Field types.  ``INT`` is an integer (a bool is not one); ``NUMBER``
#: a finite int or float; ``INT_LIST`` a list of integers (a set
#: attribute travels sorted); ``ROW`` a min-wise card's packed int64
#: row, ``null`` on the wire where :data:`~repro.hashing.batch.UNSET`;
#: ``BITS`` a bit string, hex on the wire.  A :class:`Nested` type is a
#: card of its own.
INT = "int"
NUMBER = "number"
INT_LIST = "int list"
ROW = "nullable-int list"
BITS = "hex bytes"


class Width(NamedTuple):
    """A list item's wire width: the bits the attribute ``attr`` of an
    earlier field holds, each item rounded up to whole bytes, or
    ``packed`` with the others."""

    attr: str
    packed: bool = False


class Nested(NamedTuple):
    """A field holding a card of its own: ``cls``, built from the fields
    of ``layout``."""

    cls: type
    layout: Tuple["Field", ...]


class Field(NamedTuple):
    """One entry of a kind's ``WIRE`` layout.

    ``name`` is the payload key (``""`` puts a :class:`Nested` card's
    fields beside the layout's own); ``attr`` is the attribute encoding
    reads and the constructor keyword decoding fills.  ``low`` and
    ``high`` bound the value, or each item of a list: ``high`` is the
    largest value, or the ``attr`` of an earlier field the value must
    stay below.  ``length`` is a list's item count or a bit string's bit
    count: a number, or an earlier field's ``attr``.  ``wire`` is what
    the field costs: bytes per value, per list item or per byte of bits
    (0 for a parameter agreed off-line), or a :class:`Width`; a nested
    card costs its own fields.
    """

    name: str
    attr: str
    type: Any
    low: Optional[int] = None
    high: Union[int, str, None] = None
    length: Union[int, str, None] = None
    wire: Union[int, Width] = 0


#: The set-size header every layout opens with: the number of distinct
#: ids summarised, 4 bytes in every honest ``wire_bytes``.
SET_SIZE = Field("set_size", "set_size", INT, low=0, wire=4)


class Summary(abc.ABC):
    """A working-set summary exchangeable between peers.

    Concrete adapters set ``kind`` (the registry key), the capability
    flags and the ``WIRE`` layout, and implement ``build``.  ``set_size``
    — the number of distinct summarised ids — always travels with the
    summary (:data:`SET_SIZE`).
    """

    #: Registry key (e.g. ``"bloom"``); set by every adapter.
    kind: ClassVar[str] = ""
    #: The wire layout, in payload order; set by every adapter.
    WIRE: ClassVar[Tuple[Field, ...]] = ()
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

    # -- wire surface (the WIRE codec) -------------------------------------

    def wire_bytes(self) -> int:
        """Honest serialised size in bytes: what the ``WIRE`` fields cost."""
        return wire_size(self.WIRE, self)

    def to_payload(self) -> Dict[str, Any]:
        """JSON-able payload, inverse of :meth:`from_payload`: ``"kind"``
        and the ``WIRE`` fields, in order."""
        payload: Dict[str, Any] = {"kind": self.kind}
        _encode(self.WIRE, self, payload)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Summary":
        """Reconstruct a summary received over the wire, refusing a
        payload its ``WIRE`` layout (or its constructor) does not admit
        with :class:`SummaryError`."""
        return cls(**_decode(cls.kind, cls.WIRE, payload))

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


def wire_size(layout: Tuple[Field, ...], source: Any) -> int:
    """Bytes ``source`` costs on the wire under ``layout``.

    A list or bit string with a declared ``length`` is priced from it, so
    a layout also prices a summary of which only the sizing attributes
    are known (:meth:`~repro.reconcile.adapters.CPISummary.
    wire_bytes_for_bound`).
    """
    total = 0
    for _name, attr, kind, _low, _high, length, wire in layout:
        if kind is INT or kind is NUMBER:
            total += wire
            continue
        if type(kind) is Nested:
            total += wire_size(kind.layout, getattr(source, attr))
            continue
        if length is None:
            count = len(getattr(source, attr))
        else:
            count = length if type(length) is int else getattr(source, length)
        if kind is BITS:
            total += (count + 7) // 8 * wire
        elif type(wire) is int:
            total += count * wire
        else:
            bits = getattr(source, wire.attr)
            if wire.packed:
                total += (count * bits + 7) // 8
            else:
                total += count * ((bits + 7) // 8)
    return total


def _encode(layout: Tuple[Field, ...], source: Any, out: Dict[str, Any]) -> None:
    """Write ``source``'s ``layout`` fields into the payload ``out``."""
    for field in layout:
        value = getattr(source, field.attr)
        kind = field.type
        if type(kind) is Nested:
            # A named card is an object of its own; an unnamed one's
            # fields sit beside the layout's.
            inner = out.setdefault(field.name, {}) if field.name else out
            _encode(kind.layout, value, inner)
        elif kind is BITS:
            out[field.name] = value.hex()
        elif kind is ROW:
            out[field.name] = [None if m == UNSET else m for m in value]
        elif kind is INT_LIST:
            is_set = isinstance(value, frozenset)
            out[field.name] = sorted(value) if is_set else list(value)
        else:
            out[field.name] = value


def _bound(value: int) -> str:
    """``value`` for a message: ``2**k`` for a wide power of two."""
    if value > 1 << 32 and not value & (value - 1):
        return f"2**{value.bit_length() - 1}"
    return str(value)


#: What a value (an item, for a list) of each scalar type must be.
_WANTS = {
    INT: "be an integer",
    NUMBER: "be a finite number",
    INT_LIST: "hold integers",
    ROW: "hold integers or null",
}


def _checked(where: str, field: Field, value: Any, values: Dict[str, Any]) -> Any:
    """``value`` (the field's, or an item of its list), refused unless
    it has the field's type and lies in its range."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float) if field.type is NUMBER else int)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        raise SummaryError(f"{where} must {_WANTS[field.type]}, got {value!r}")
    if field.low is not None and value < field.low:
        raise SummaryError(f"{where} must be at least {field.low}, got {value!r}")
    high = field.high
    if type(high) is str and value >= values[high]:
        raise SummaryError(
            f"{where} must stay below {high} = {values[high]}, got {value!r}"
        )
    if type(high) is int and value > high:
        raise SummaryError(f"{where} must be at most {_bound(high)}, got {value!r}")
    return value


def _decode(
    kind: str, layout: Tuple[Field, ...], obj: Dict[str, Any], prefix: str = ""
) -> Dict[str, Any]:
    """The constructor keywords ``obj``'s ``layout`` fields decode to.

    A field's key must be present; its value must have the field's type
    and range, and a list or bit string its declared length.  Anything
    else is a :class:`SummaryError` naming the field (``prefix`` names a
    nested card's fields ``leaf.bits``, say).
    """
    if not isinstance(obj, dict):
        what = f"field {prefix[:-1]!r}" if prefix else "payload"
        raise SummaryError(f"{kind} {what} must be a JSON object")
    values: Dict[str, Any] = {}
    for field in layout:
        t, name = field.type, prefix + field.name
        where = f"{kind} payload field {name!r}"
        if field.name and field.name not in obj:
            raise SummaryError(f"{kind} payload lacks field {name!r}")
        raw = obj[field.name] if field.name else obj
        if type(t) is Nested:
            inner = _decode(kind, t.layout, raw, name + "." if field.name else prefix)
            values[field.attr] = t.cls(**inner)
            continue
        if t is INT or t is NUMBER:
            values[field.attr] = _checked(where, field, raw, values)
            continue
        length = field.length
        want = values[length] if type(length) is str else length
        if t is BITS:
            try:
                raw = bytearray.fromhex(raw)
            except (TypeError, ValueError) as exc:
                raise SummaryError(f"{where} must be a hex string: {exc}") from exc
            want = (want + 7) // 8
        elif not isinstance(raw, (list, tuple)):
            raise SummaryError(f"{where} must be a list")
        if want is not None and len(raw) != want:
            source = next((f.name for f in layout if f.attr == length), length)
            unit = "bytes" if t is BITS else "items"
            raise SummaryError(
                f"{where} must hold {want} {unit} ({source}), got {len(raw)}"
            )
        if t is ROW:
            items = [
                UNSET if m is None else _checked(where, field, m, values) for m in raw
            ]
            raw = array("q", items)
        elif t is INT_LIST:
            raw = [_checked(where, field, m, values) for m in raw]
        values[field.attr] = raw
    return values


__all__ = [
    "BITS",
    "Field",
    "INT",
    "INT_LIST",
    "NUMBER",
    "Nested",
    "ROW",
    "SET_SIZE",
    "Summary",
    "SummaryError",
    "Width",
    "clamped_symmetric_difference",
    "searched_intersection",
    "wire_size",
]
