"""Decoder fuzz: a received payload is refused with the typed error.

For every registered kind, each top-level field of a real payload is
replaced by each value of a fixed bad set; the edited payload goes
through :func:`summary_from_payload` and, if accepted, through the
first ``wire_bytes`` / ``estimate_difference`` / ``missing_from`` /
``may_contain`` a receiver would make.  Every call has a deadline.  The
only exceptions allowed are :class:`SummaryError` and, from a CPI
search, :class:`DiscrepancyExceeded` — that path's documented retry
signal.  A bare ``ValueError``, a ``TypeError`` or a stall is a bug: one
peer's payload must never crash or hang the receiver.
"""

import signal

import pytest

from repro.exact.cpi import DiscrepancyExceeded
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


def _cases():
    for kind in summary_kinds():
        payload = build_summary(kind, IDS, **PARAMS.get(kind, {})).to_payload()
        for field in sorted(payload):
            for value in BAD_VALUES:
                yield pytest.param(kind, field, value, id=f"{kind}-{field}-{value!r}")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("kind, field, value", list(_cases()))
def test_a_bad_field_is_refused_or_served(kind, field, value):
    params = PARAMS.get(kind, {})
    local = build_summary(kind, CANDIDATES, **params)
    payload = build_summary(kind, IDS, **params).to_payload()
    payload[field] = value
    try:
        remote = within_deadline(lambda: summary_from_payload(payload))
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
