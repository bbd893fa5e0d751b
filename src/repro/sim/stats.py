"""Time-series statistics capture for event-driven simulations.

A :class:`StatsRecorder` is shared by every entity in a simulation
(nodes, connections, scenario processes) and captures two kinds of
signal keyed by ``(entity, metric)``:

* **counters** (:meth:`count`) — monotone totals such as packets sent
  or lost, bucketed in time so per-bucket rates fall out of the series;
* **gauges** (:meth:`gauge`) — instantaneous levels such as a node's
  working-set size, keeping the last value seen per bucket.

Buckets quantise the (continuous) event clock into a configurable
resolution — per-tick by default — so a million packet events stay a
few thousand samples.  ``series(entity, metric)`` returns sorted
``(bucket_time, value)`` pairs; counters also expose running totals.
"""

import math
from typing import Dict, List, Set, Tuple

Key = Tuple[str, str]


class StatsRecorder:
    """Per-entity/metric time series with time-bucketed storage.

    Args:
        resolution: bucket width in simulated time units.
    """

    def __init__(self, resolution: float = 1.0):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self._counters: Dict[Key, Dict[float, float]] = {}
        self._gauges: Dict[Key, Dict[float, float]] = {}
        self._totals: Dict[Key, float] = {}

    # -- capture ------------------------------------------------------------

    def _bucket(self, time: float) -> float:
        return math.floor(time / self.resolution) * self.resolution

    def count(self, time: float, entity: str, metric: str, delta: float = 1.0) -> None:
        """Add ``delta`` to a counter at ``time``."""
        key = (entity, metric)
        buckets = self._counters.setdefault(key, {})
        b = self._bucket(time)
        buckets[b] = buckets.get(b, 0.0) + delta
        self._totals[key] = self._totals.get(key, 0.0) + delta

    def gauge(self, time: float, entity: str, metric: str, value: float) -> None:
        """Record an instantaneous level at ``time`` (last-wins per bucket)."""
        self._gauges.setdefault((entity, metric), {})[self._bucket(time)] = value

    # -- queries ------------------------------------------------------------

    def total(self, entity: str, metric: str) -> float:
        """Running total of a counter (0 if never counted)."""
        return self._totals.get((entity, metric), 0.0)

    def series(self, entity: str, metric: str) -> List[Tuple[float, float]]:
        """Sorted ``(bucket_time, value)`` samples for one signal.

        Counters report per-bucket increments; gauges report the last
        level seen in each bucket.
        """
        key = (entity, metric)
        data = self._counters.get(key) or self._gauges.get(key) or {}
        return sorted(data.items())

    def entities(self) -> Set[str]:
        """Every entity that has recorded at least one sample."""
        return {e for e, _ in self._counters} | {e for e, _ in self._gauges}

    def to_rows(self) -> List[Tuple[str, str, float, float]]:
        """Flatten everything to ``(entity, metric, time, value)`` rows."""
        rows: List[Tuple[str, str, float, float]] = []
        for (e, m), buckets in list(self._counters.items()) + list(
            self._gauges.items()
        ):
            rows.extend((e, m, t, v) for t, v in sorted(buckets.items()))
        rows.sort(key=lambda r: (r[0], r[1], r[2]))
        return rows
