"""The protocol tests drive a session the way every run does: one
:class:`~repro.sim.sessions.ScheduledSession` on its own event clock."""

import pytest

from repro.sim import ConstantRateLink, EventScheduler
from repro.sim.sessions import ScheduledSession, run_sessions


def _drive(session, max_packets=None):
    """Handshake, then stream until the receiver decodes, the sender
    drains or ``max_packets`` (default: the scheduled session's budget)
    is spent; returns the session's stats."""
    scheduler = EventScheduler()
    driver = ScheduledSession(
        scheduler, session, ConstantRateLink(100.0), max_packets=max_packets
    )
    run_sessions(scheduler, [driver.start()])
    return session.stats


@pytest.fixture(scope="session")
def drive():
    return _drive
