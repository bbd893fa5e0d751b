"""Transport subsystem: congestion control and loss recovery.

Senders in the repo were historically open-loop — links pace, nothing
pushes back.  This package closes the loop:

* :mod:`repro.transport.policies` — the :class:`TransportPolicy`
  plugin interface (on_send / on_ack / on_loss → cwnd) with
  ``open_loop`` and ``aimd`` built-ins;
* :mod:`repro.transport.rtx` — :class:`RtxManager`, adaptive-RTO
  timeout-driven loss detection;
* :mod:`repro.transport.queue` — :class:`BottleneckQueue` (fluid FIFO
  drop-tail) and :class:`BottleneckLink`, which layers a shared queue
  onto any existing :class:`~repro.sim.links.LinkModel`;
* :mod:`repro.transport.controller` — :class:`TransportController`
  (per-connection state) and :class:`TransportManager` (per-simulation
  assembly + aggregate reporting).

Select it declaratively via :class:`~repro.api.spec.TransportSpec` on
an :class:`~repro.api.spec.ExperimentSpec`, or ``--transport
POLICY[:p=v,...]`` on the CLI.
"""

from repro.transport.controller import TransportController, TransportManager
from repro.transport.policies import (
    AimdPolicy,
    OpenLoopPolicy,
    TransportError,
    TransportPolicy,
    build_policy,
    transport_policies,
    validate_policy,
)
from repro.transport.queue import BottleneckLink, BottleneckQueue
from repro.transport.rtx import RtxManager

__all__ = [
    "TransportError",
    "TransportPolicy",
    "OpenLoopPolicy",
    "AimdPolicy",
    "build_policy",
    "transport_policies",
    "validate_policy",
    "RtxManager",
    "BottleneckQueue",
    "BottleneckLink",
    "TransportController",
    "TransportManager",
]
