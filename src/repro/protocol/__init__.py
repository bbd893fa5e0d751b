"""End-to-end prototype: the full informed-delivery protocol over bytes.

Where :mod:`repro.delivery` simulates at the symbol-identity level, this
subpackage runs the complete pipeline the paper's prototype implements
(§6), one :class:`TransferSession` per sender/receiver pair:

1. content is split into source blocks and fountain-encoded;
2. the peers exchange 1KB min-wise calling cards and the sender
   estimates their correlation (a near-duplicate sender is rejected);
3. the receiver asks for the symbols it lacks and, when the estimate
   warrants it, ships its session's policy summary (by default a Bloom
   filter);
4. the sender recodes real payloads over what the summary says the
   receiver lacks;
5. the receiver peels recoded symbols and decodes the file, and the
   decoded bytes are verified against the original content.

:class:`repro.sim.sessions.ScheduledSession` drives a session on the
event clock.  Every control and data byte is accounted, so the protocol
overhead the paper argues is "at most a handful of packet payloads" is
measurable.
"""

from repro.protocol.messages import DataMessage
from repro.protocol.peer import CodeParameters, ProtocolPeer
from repro.protocol.session import SessionStats, TransferSession

__all__ = [
    "CodeParameters",
    "ProtocolPeer",
    "TransferSession",
    "SessionStats",
    "DataMessage",
]
