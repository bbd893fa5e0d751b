"""repro.sim — discrete-event simulation core.

The substrate under the overlay simulator (and every later scaling
layer): a heap-scheduled event clock, pluggable per-connection link
models, a time-series stats recorder, protocol sessions paced on the
shared clock.

* :mod:`repro.sim.engine` — :class:`EventScheduler`: heap of
  timestamped callbacks, deterministic FIFO tie-breaking, periodic
  events (a legacy "tick" is just one of them).
* :mod:`repro.sim.links` — :class:`ConstantRateLink`, the one link
  class: rate, loss, latency, optional jitter and shared bottleneck
  queue; :class:`GilbertElliottLink` is the same link with bursty loss
  (optionally a shared chain for correlated loss).
* :mod:`repro.sim.stats` — :class:`StatsRecorder`: per-entity/metric
  counters and gauges bucketed on the simulated clock.
* :mod:`repro.sim.sessions` — :class:`ScheduledSession`: the Section 6
  protocol sessions paced by links on the shared clock.

The scenario catalog built on this substrate (flash crowd, source
departure, asymmetric bandwidth, correlated regional loss) lives behind
:mod:`repro.api`: ``build(specs.flash_crowd(...)).scenario`` is the
ready-to-run :class:`repro.api.SimScenario`.
"""

from repro.sim.engine import EventHandle, EventScheduler
from repro.sim.links import (
    ConstantRateLink,
    GilbertElliottLink,
    GilbertElliottProcess,
)
from repro.sim.stats import StatsRecorder

__all__ = [
    "EventHandle",
    "EventScheduler",
    "ConstantRateLink",
    "GilbertElliottLink",
    "GilbertElliottProcess",
    "StatsRecorder",
]
