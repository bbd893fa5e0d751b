"""Transport subsystem: congestion control and loss recovery.

Senders in the repo were historically open-loop — links pace, nothing
pushes back.  This package closes the loop:

* :mod:`repro.transport.policies` — the :class:`TransportPolicy`
  plugin interface (on_ack / on_loss → cwnd; the base class is the
  ``open_loop`` built-in) and the ``aimd`` built-in;
* :mod:`repro.transport.rtx` — :class:`RtxManager`, adaptive-RTO
  timeout-driven loss detection;
* :mod:`repro.transport.queue` — :class:`BottleneckQueue` (fluid FIFO
  drop-tail), the shared queue a link built with ``queue=``
  (:class:`~repro.sim.links.ConstantRateLink`) sends through;
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
    TransportError,
    TransportPolicy,
    build_policy,
    transport_policies,
    validate_policy,
)
from repro.transport.queue import BottleneckQueue
from repro.transport.rtx import RtxManager

__all__ = [
    "TransportError",
    "TransportPolicy",
    "AimdPolicy",
    "build_policy",
    "transport_policies",
    "validate_policy",
    "RtxManager",
    "BottleneckQueue",
    "TransportController",
    "TransportManager",
]
