"""Decoder fuzz: a received payload is refused with the typed error.

For every registered kind, each field of a real payload (nested objects'
fields too) and each field of the hello / summary message carrying it
is replaced by each value of a fixed bad set; the edited payload goes
through :func:`summary_from_payload` (the message through its
``summary()``) and, if accepted, through the first ``wire_bytes`` /
``estimate_difference`` / ``missing_from`` / ``may_contain`` a receiver
would make.  Every call has a deadline.  The only exceptions allowed
are :class:`SummaryError` and, from a CPI search,
:class:`DiscrepancyExceeded` — that path's documented retry signal.  A
bare ``ValueError``, a ``TypeError`` or a stall is a bug: one peer's
payload must never crash or hang the receiver.  Truncated and garbage
data-packet blobs go through :class:`DataMessage`'s two parsers, whose
one refusal is ``ValueError``.
"""

import dataclasses
import random
import signal
import struct

import pytest

from repro.exact.cpi import DiscrepancyExceeded
from repro.protocol.messages import DataMessage, HelloMessage, SummaryMessage
from repro.reconcile import (
    SummaryError,
    build_summary,
    summary_from_payload,
    summary_kinds,
)

BAD_VALUES = [-1, 0, None, "x", [], 10**30, 1.5, True, {}]

#: Seconds one call may take.
DEADLINE = 2.0

#: Small build parameters: the CPI search is Θ(d³) in its bound.
PARAMS = {"cpi": {"max_discrepancy": 8}, "minwise": {"entries": 16}}

IDS = list(range(0, 120, 2))
CANDIDATES = list(range(0, 120, 3))

#: The messages that carry a summary, by name.
MESSAGES = {m.__name__: m for m in (HelloMessage, SummaryMessage)}


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
                yield pytest.param(
                    None, kind, field, value, id=f"{kind}-{field}-{value!r}"
                )
        for name, message in MESSAGES.items():
            for field in dataclasses.fields(message):
                for value in BAD_VALUES:
                    yield pytest.param(
                        name, kind, field.name, value,
                        id=f"{name}-{kind}-{field.name}-{value!r}",
                    )


def _received(message, kind, field, value):
    """What the receiver decodes: the payload with ``field`` (a key path)
    set to ``value``, or — under a message name — that message, carrying
    the real summary, with its ``field`` set to ``value``."""
    summary = build_summary(kind, IDS, **PARAMS.get(kind, {}))
    if message is not None:
        edited = dataclasses.replace(
            MESSAGES[message].carrying(summary), **{field: value}
        )
        return edited.summary
    payload = summary.to_payload()
    *outer, last = field.split(".")
    target = payload[outer[0]] if outer else payload
    target[last] = value
    return lambda: summary_from_payload(payload)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("message, kind, field, value", list(_cases()))
def test_a_bad_field_is_refused_or_served(message, kind, field, value):
    local = build_summary(kind, CANDIDATES, **PARAMS.get(kind, {}))
    try:
        remote = within_deadline(_received(message, kind, field, value))
    except SummaryError:
        return
    within_deadline(remote.wire_bytes)
    calls = []
    if remote.supports_estimate:
        calls.append(lambda: local.estimate_difference(remote))
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
