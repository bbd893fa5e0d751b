"""Decoder fuzz: a received payload is refused with the typed error.

For every registered kind, each field of a real payload (nested objects'
fields too) is replaced by each value of a fixed bad set (wrong types,
non-finite floats, out-of-range integers, lists holding a bad element
— whatever a JSON body can carry); the edited
payload goes through :func:`summary_from_payload` and, if accepted,
through the first ``wire_bytes`` /
``estimate_difference`` / ``missing_from`` / ``may_contain`` a receiver
would make.  The same holds for a payload labelled with another
registered kind.  A payload missing any field its encoder writes, nested
fields included, is refused: no field has a default.  So is every value
outside the range a kind's ``WIRE`` layout or constructor states (a
negative ``set_size``, a zero ``modulus``, a ``wholeset`` whose
``set_size`` is not its id count).  Every call has a deadline.  The only exceptions allowed
are :class:`SummaryError` and, from a CPI search,
:class:`DiscrepancyExceeded` — that path's documented retry signal.  A
bare ``ValueError``, a ``TypeError`` or a stall is a bug: one peer's
payload must never crash or hang the receiver.  Truncated and garbage
data-packet blobs go through :class:`DataMessage`'s two parsers, whose
one refusal is ``ValueError``.
"""

import random
import signal
import struct

import pytest

from repro.exact.cpi import DiscrepancyExceeded
from repro.protocol.messages import DataMessage
from repro.reconcile import (
    SummaryError,
    build_summary,
    summary_from_payload,
    summary_kinds,
)

BAD_VALUES = [
    -1, 0, None, "x", [], 10**30, 1.5, True, {},
    # What ``json.loads`` makes of a peer's NaN / Infinity / -Infinity.
    float("nan"), float("inf"), float("-inf"),
    # Integers past either end of a 64-bit field.
    -(10**30), 2**64,
    # Strings: empty (a zero-length bit or counter body) and numeric.
    "", "1",
    # A well-typed container holding a bad element.
    [None], ["x"], [-1], [1.5], [10**30], {"x": 1},
]

#: Seconds one call may take.
DEADLINE = 2.0

#: Small build parameters: the CPI search is Θ(d³) in its bound.
PARAMS = {"cpi": {"max_discrepancy": 8}, "minwise": {"entries": 16}}

IDS = list(range(0, 120, 2))
CANDIDATES = list(range(0, 120, 3))


class Stalled(Exception):
    pass


def _on_alarm(signum, frame):
    raise Stalled()


def within_deadline(call):
    """``call()``, or :class:`Stalled` once :data:`DEADLINE` passes."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _field_paths(payload):
    """Every field of ``payload`` as a key path, nested objects' too."""
    for field in sorted(payload):
        yield field
        if isinstance(payload[field], dict):
            for inner in sorted(payload[field]):
                yield f"{field}.{inner}"


def _cases():
    for kind in summary_kinds():
        payload = build_summary(kind, IDS, **PARAMS.get(kind, {})).to_payload()
        for field in _field_paths(payload):
            for value in BAD_VALUES:
                yield pytest.param(kind, field, value, id=f"{kind}-{field}-{value!r}")


def _payload(kind):
    return build_summary(kind, IDS, **PARAMS.get(kind, {})).to_payload()


def _holder(payload, field):
    """The object holding ``field`` (a key path), and its last key."""
    *outer, last = field.split(".")
    return (payload[outer[0]] if outer else payload), last


def _received(kind, field, value):
    """What the receiver decodes: the payload with ``field`` (a key path)
    set to ``value``."""
    payload = _payload(kind)
    target, last = _holder(payload, field)
    target[last] = value
    return lambda: summary_from_payload(payload)


def _refused_or_served(kind, decode):
    """``decode()`` refuses with :class:`SummaryError`, or its summary
    answers a ``kind`` receiver's first calls within the deadline."""
    local = build_summary(kind, CANDIDATES, **PARAMS.get(kind, {}))
    try:
        remote = within_deadline(decode)
    except SummaryError:
        return
    within_deadline(remote.wire_bytes)
    calls = []
    if remote.supports_estimate:
        calls.append(lambda: local.estimate_difference(remote, CANDIDATES))
    if remote.supports_difference:
        calls.append(lambda: remote.missing_from(CANDIDATES))
    if remote.supports_membership:
        calls.append(lambda: remote.may_contain(CANDIDATES[1]))
    for call in calls:
        try:
            within_deadline(call)
        except SummaryError:
            pass
        except DiscrepancyExceeded:
            assert kind == "cpi"


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("kind, field, value", list(_cases()))
def test_a_bad_field_is_refused_or_served(kind, field, value):
    _refused_or_served(kind, _received(kind, field, value))


def _missing_cases():
    for kind in summary_kinds():
        for field in _field_paths(_payload(kind)):
            yield pytest.param(kind, field, id=f"{kind}-{field}")


@pytest.mark.parametrize("kind, field", list(_missing_cases()))
def test_a_missing_field_is_refused(kind, field):
    """A field left out is a refusal — never a default, never a bare
    ``KeyError``."""
    payload = _payload(kind)
    target, last = _holder(payload, field)
    del target[last]
    with pytest.raises(SummaryError):
        summary_from_payload(payload)


def test_a_minwise_card_without_its_seed_is_refused():
    """A seed-5 card's payload without ``seed`` used to decode as seed 0
    and read resemblance 0.0 against a seed-0 card of the same set,
    where the full payload is refused as another family."""
    ids = range(200)
    card = build_summary("minwise", ids, entries=16, seed=5)
    other = build_summary("minwise", ids, entries=16, seed=0)
    with pytest.raises(SummaryError, match="family"):
        other.estimate_resemblance(summary_from_payload(card.to_payload()))
    payload = card.to_payload()
    del payload["seed"]
    with pytest.raises(SummaryError, match="seed"):
        summary_from_payload(payload)


def _range_cases():
    for kind in summary_kinds():
        yield pytest.param(kind, "set_size", -5, id=f"{kind}-set_size=-5")
    for kind, field, value in [
        ("modk", "modulus", 0),
        ("modk", "modulus", -3),
        ("bloom", "count", -1),
        ("partitioned_bloom", "member_count", -1),
        # The constructor's rules, which decode runs through as build does.
        ("partitioned_bloom", "rho", 0),
        ("partitioned_bloom", "beta", 4),
        ("art", "leaf_bits_per_element", 8),
        ("art", "bits_per_element", float("inf")),
        ("wholeset", "set_size", 0),
        ("wholeset", "set_size", len(IDS) + 1),
        ("wholeset", "set_size", len(IDS) - 1),
    ]:
        yield pytest.param(kind, field, value, id=f"{kind}-{field}={value!r}")


@pytest.mark.parametrize("kind, field, value", list(_range_cases()))
def test_a_value_outside_its_range_is_refused(kind, field, value):
    """Ranges and cross-field rules a kind states are refusals, not
    "refused or served"."""
    with pytest.raises(SummaryError):
        _received(kind, field, value)()


def _mislabelled_cases():
    for kind in summary_kinds():
        for label in summary_kinds():
            if label != kind:
                yield pytest.param(kind, label, id=f"{kind}-as-{label}")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("kind, label", list(_mislabelled_cases()))
def test_a_mislabelled_payload_is_refused_or_served(kind, label):
    """A ``kind`` body under another kind's label goes to that kind's
    decoder, which refuses it or serves a ``label`` receiver."""
    payload = _payload(kind)
    payload["kind"] = label
    _refused_or_served(label, lambda: summary_from_payload(payload))


def _blobs():
    """Truncated and garbage blobs for each of the two packet parsers."""
    noise = random.Random(7)
    for parser, packet in (
        ("unpack_encoded", DataMessage.encoded(42, b"abcd")),
        ("unpack_recoded", DataMessage.recoded([3, 9, 27], b"abcd")),
    ):
        blob = packet.pack()
        for cut in range(len(blob)):
            yield pytest.param(parser, blob[:cut], id=f"{parser}-cut{cut}")
        garbage = [bytes(noise.randrange(256) for _ in range(n)) for n in (1, 9, 40)]
        garbage += [b"\xff" * 64, struct.pack("<H", 0xFFFF) + b"\x00" * 30]
        for i, junk in enumerate(garbage):
            yield pytest.param(parser, junk, id=f"{parser}-garbage{i}")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("parser, blob", list(_blobs()))
def test_a_bad_data_blob_is_refused_or_parsed(parser, blob):
    try:
        packet = within_deadline(lambda: getattr(DataMessage, parser)(blob))
    except ValueError:
        return
    assert isinstance(within_deadline(packet.pack), bytes)
