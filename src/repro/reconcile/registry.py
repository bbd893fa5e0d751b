"""String-keyed registry of :class:`~repro.reconcile.base.Summary` adapters.

Mirrors the scenario registry in :mod:`repro.api.registry`: adapters
register under a stable kind name with the :func:`register_summary`
decorator; callers build summaries by name (``build_summary("bloom",
ids, bits_per_element=8)``) or reconstruct them from wire payloads
(:func:`summary_from_payload` dispatches on ``payload["kind"]``).
"""

from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

from repro.reconcile.base import Summary, SummaryError

_REGISTRY: Dict[str, Type[Summary]] = {}


class UnknownSummaryError(SummaryError, KeyError):
    """Lookup of a summary kind nothing registered.

    A :class:`SummaryError`, so a payload naming an unknown kind is
    refused like any other bad payload (and a ``KeyError`` as before).
    """

    def __init__(self, kind: str, known: List[str]):
        super().__init__(kind)
        self.kind = kind
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown summary kind {self.kind!r}; registered kinds: "
            f"{', '.join(self.known) or '(none)'}"
        )


def register_summary(cls: Type[Summary]) -> Type[Summary]:
    """Class decorator registering an adapter under its ``kind``."""
    if not cls.kind:
        raise ValueError(f"{cls.__name__} must set a non-empty 'kind'")
    if cls.kind in _REGISTRY:
        raise ValueError(f"summary kind {cls.kind!r} is already registered")
    _REGISTRY[cls.kind] = cls
    return cls


def summary_class(kind: str) -> Type[Summary]:
    """The adapter class for ``kind`` (:class:`UnknownSummaryError` if absent)."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise UnknownSummaryError(kind, summary_kinds()) from None


def summary_kinds() -> List[str]:
    """Registered kind names, sorted."""
    return sorted(_REGISTRY)


def _summary_call(
    kind: str, make: Callable[..., Any], ids: Any, params: Dict[str, Any]
) -> Any:
    """``make(ids, **params)``, with bad parameters folded into
    :class:`SummaryError` so spec-driven callers fail with one type."""
    try:
        return make(ids, **params)
    except SummaryError:
        raise
    except (TypeError, ValueError) as exc:
        # Unknown parameter names (TypeError) and out-of-range values the
        # underlying structure rejects (ValueError) surface as one type.
        raise SummaryError(f"invalid parameters for {kind!r} summary: {exc}") from exc


def build_summary(kind: str, ids: Iterable[int], **params: Any) -> Summary:
    """Build a summary of ``ids`` by kind name.

    Adapter-specific ``params`` pass through to the adapter's
    ``build``; unknown parameters fold into :class:`SummaryError` so
    spec-driven callers fail with one exception type.
    """
    return _summary_call(kind, summary_class(kind).build, ids, params)


def _build_frozen(kind: str, frozen: tuple, ids: Iterable[int]) -> Summary:
    return build_summary(kind, ids, **dict(frozen))


def _build_many_frozen(
    kind: str, frozen: tuple, id_sets: List[Iterable[int]]
) -> List[Summary]:
    return _summary_call(kind, summary_class(kind).build_many, id_sets, dict(frozen))


def freeze_params(params: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """``params`` as a sorted tuple of items: permuted-but-equal
    parameters freeze alike, so they share one cache entry."""
    return tuple(sorted(params.items())) if params else ()


def summary_recipe(
    kind: str, params: Optional[Mapping[str, Any]] = None
) -> Tuple[tuple, Callable[[Iterable[int]], Summary], Optional[Callable]]:
    """``(key, build, absorb)`` for :meth:`repro.delivery.working_set.
    WorkingSet.cached`: the entry ``ws.summary(kind, **params)`` reads.

    ``absorb`` is given only for kinds declaring
    ``supports_incremental``; every other kind is rebuilt from the set.
    Immutable schemes and policies compute this once, which keeps their
    cache-hit path at one dict lookup and one stamp compare.
    """
    cls = summary_class(kind)
    frozen = freeze_params(params)
    return (
        (kind, frozen),
        partial(_build_frozen, kind, frozen),
        cls.absorb if cls.supports_incremental else None,
    )


def summary_batch_recipe(
    kind: str, params: Optional[Mapping[str, Any]] = None
) -> Optional[Tuple[tuple, Callable, Callable]]:
    """``(key, build_many, absorb_many)`` for :meth:`repro.delivery.
    working_set.WorkingSet.cached_many` — the same entry as
    :func:`summary_recipe`'s, brought current for many sets in one
    kernel pass — or ``None`` for a kind without ``supports_incremental``.
    """
    key, _build, absorb = summary_recipe(kind, params)
    if absorb is None:
        return None
    return key, partial(_build_many_frozen, *key), summary_class(kind).absorb_many


def summary_from_payload(payload: Dict[str, Any]) -> Summary:
    """Reconstruct any registered summary from its wire payload."""
    if not isinstance(payload, dict):
        raise SummaryError("summary payload must be a JSON object")
    kind = payload.get("kind")
    if not isinstance(kind, str) or not kind:
        raise SummaryError("summary payload is missing its 'kind' tag")
    return summary_class(kind).from_payload(payload)


__all__ = [
    "UnknownSummaryError",
    "register_summary",
    "summary_class",
    "summary_kinds",
    "build_summary",
    "summary_recipe",
    "summary_batch_recipe",
    "summary_from_payload",
]
