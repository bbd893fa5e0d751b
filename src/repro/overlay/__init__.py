"""Adaptive overlay network substrate (paper Sections 1-2).

The paper's delivery machinery assumes an overlay of unicast connections
that adapts to network conditions: multicast-style trees for initial
dissemination, "perpendicular" peer connections exploiting complementary
working sets (Figure 1), admission control via sketches (Section 4), and
reconfiguration when connections lose utility.

* :mod:`repro.overlay.node` — overlay end-systems: working set (which
  caches the node's calling cards, one per summary scheme), connection
  slots.
* :mod:`repro.overlay.simulator` — the one event-driven packet engine
  (built on :mod:`repro.sim`): connections deliver packets through
  pluggable link models (bandwidth-, loss- and latency-limited), nodes
  reconcile and adapt peering, metrics are collected per node.  It owns
  the overlay's edges; the physical network they map onto, when there
  is one, is a :class:`repro.topology.PathModel`.  The
  legacy tick API is preserved — a tick is a periodic event.  Strategy
  refreshes and reconfiguration epochs do work proportional to what
  changed.
* :mod:`repro.overlay.reconfiguration` — peering policies: sketch-based
  admission control and utility-driven rewiring over a
  :class:`SummaryScheme`, and :func:`run_epoch`, the one epoch loop the
  packet and the flow engine both run; :func:`default_scheme` is the
  min-wise card every node publishes when a run names no other.
* :mod:`repro.overlay.churn` — departures, rejoins and link degradation
  (rerouting around congested paths) driven against the simulator.
* :mod:`repro.overlay.catalog` — multi-object catalogs over one swarm.

The canned layouts (the paper's Figure 1, the randomised overlay) are
registered scenarios: ``repro.api.build(specs.figure1(...)).scenario``.
"""

from repro.overlay.node import OverlayNode
from repro.overlay.simulator import Connection, OverlaySimulator, SimulationReport
from repro.overlay.reconfiguration import (
    AdmissionPolicy,
    OpenAdmission,
    RandomRewiring,
    ReconfigurationPolicy,
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)
from repro.overlay.churn import ChurnProcess, run_with_churn

__all__ = [
    "ChurnProcess",
    "run_with_churn",
    "OverlayNode",
    "Connection",
    "OverlaySimulator",
    "SimulationReport",
    "AdmissionPolicy",
    "SketchAdmission",
    "OpenAdmission",
    "ReconfigurationPolicy",
    "UtilityRewiring",
    "RandomRewiring",
    "SummaryScheme",
    "default_scheme",
]
