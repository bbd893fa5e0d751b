"""Structured results of a spec-driven experiment run.

Every :func:`repro.api.run` returns a :class:`RunResult` with the same
shape regardless of which scenario produced it: a flat ``metrics``
mapping (the numbers a benchmark or figure would report), the richer
layer-specific objects when they exist (a swarm's
:class:`~repro.overlay.simulator.SimulationReport`, a delivery run's
:class:`~repro.delivery.transfer.TransferResult`, per-node
:class:`~repro.protocol.session.SessionStats`), the
:class:`~repro.sim.stats.StatsRecorder` time series, and the event log.

:meth:`RunResult.to_dict` is the one JSON schema
(:data:`RESULT_SCHEMA`) shared by ``RunResult.to_json``, the
``python -m repro.api`` CLI, and the ``BENCH_*.json`` files the
benchmark suite can emit — one format to archive, diff, and plot.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api.spec import ExperimentSpec
from repro.delivery.transfer import TransferResult
from repro.overlay.simulator import SimulationReport
from repro.protocol.session import SessionStats
from repro.sim.stats import StatsRecorder

#: Schema tag stamped into every serialised result.
RESULT_SCHEMA = "repro.run_result/1"


class ResultSchemaError(ValueError):
    """A serialised result does not match its declared schema."""


#: The exact key set ``RunResult.to_dict`` emits (``series`` only with
#: ``include_series=True``).  Validation is closed-world on purpose:
#: a new or renamed key is schema drift and must bump the version.
_RESULT_KEYS = {
    "schema",
    "scenario",
    "seed",
    "completed",
    "metrics",
    "events",
    "node_sessions",
    "spec",
}
_RESULT_OPTIONAL_KEYS = {"series"}


def _schema_require(condition: bool, message: str) -> None:
    if not condition:
        raise ResultSchemaError(message)


def validate_result_dict(data: Any) -> None:
    """Validate a dict against :data:`RESULT_SCHEMA` (closed-world).

    Used by campaign cell loading (``--resume``): raises
    :class:`ResultSchemaError` on any missing, unknown, or wrongly
    typed key or a non-finite metric, so schema drift fails loudly
    instead of accumulating silently in archived results.
    """
    _schema_require(isinstance(data, dict), "result must be a JSON object")
    _schema_require(
        data.get("schema") == RESULT_SCHEMA,
        f"result schema is {data.get('schema')!r}, expected {RESULT_SCHEMA!r}",
    )
    missing = _RESULT_KEYS - set(data)
    unknown = set(data) - _RESULT_KEYS - _RESULT_OPTIONAL_KEYS
    _schema_require(not missing, f"result is missing keys {sorted(missing)}")
    _schema_require(not unknown, f"result has unknown keys {sorted(unknown)} (schema drift?)")
    _schema_require(isinstance(data["scenario"], str), "result 'scenario' must be a string")
    _schema_require(
        isinstance(data["seed"], int) and not isinstance(data["seed"], bool),
        "result 'seed' must be an integer",
    )
    _schema_require(isinstance(data["completed"], bool), "result 'completed' must be a boolean")
    _schema_require(isinstance(data["metrics"], dict), "result 'metrics' must be an object")
    for key, value in data["metrics"].items():
        _schema_require(
            isinstance(key, str)
            and isinstance(value, (int, float))
            and not isinstance(value, bool),
            f"result metric {key!r} must map a string to a number",
        )
        # json.loads reads NaN and Infinity; no run reports either.
        _schema_require(
            isinstance(value, int) or math.isfinite(value),
            f"result metric {key!r} must be finite, got {value!r}",
        )
    _schema_require(
        isinstance(data["events"], list)
        and all(isinstance(e, str) for e in data["events"]),
        "result 'events' must be an array of strings",
    )
    _schema_require(
        isinstance(data["node_sessions"], dict), "result 'node_sessions' must be an object"
    )
    _schema_require(
        isinstance(data["spec"], dict) and isinstance(data["spec"].get("scenario"), str),
        "result 'spec' must be an object naming its scenario",
    )
    if "series" in data:
        _schema_require(
            isinstance(data["series"], list)
            and all(isinstance(row, list) and len(row) == 4 for row in data["series"]),
            "result 'series' must be an array of 4-column rows",
        )


@dataclass
class RunResult:
    """The structured outcome of one :func:`repro.api.run`."""

    spec: ExperimentSpec
    completed: bool
    #: Flat numeric summary — the scenario's reportable numbers
    #: (overhead, speedup, ticks, packets...); keys are stable per
    #: scenario and shared with the serialised schema.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Swarm runs: the overlay simulator's aggregate report.
    report: Optional[SimulationReport] = None
    #: Delivery runs: the transfer loop's outcome.
    transfer: Optional[TransferResult] = None
    #: Protocol runs: byte-accounted session stats per receiving node.
    node_sessions: Dict[str, SessionStats] = field(default_factory=dict)
    #: Time series captured during the run (None when disabled).
    stats: Optional[StatsRecorder] = None
    #: Human-readable scenario event log (waves, departures, ...).
    events: List[str] = field(default_factory=list)
    #: Scenario-specific artefacts that have no schema home (join
    #: plans, shared loss processes); not serialised.
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def scenario(self) -> str:
        return self.spec.scenario

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def overhead(self) -> Optional[float]:
        """Reception overhead: packets spent per needed symbol.

        Delivery runs report the Figure 5 metric directly; swarm runs
        report delivered packets per useful packet (1.0 = every
        delivered packet advanced a receiver).
        """
        if "overhead" in self.metrics:
            return self.metrics["overhead"]
        if self.report is not None:
            delivered = self.report.packets_sent - self.report.packets_lost
            if self.report.packets_useful:
                return delivered / self.report.packets_useful
        return None

    # -- serialisation ------------------------------------------------------

    def to_dict(self, include_series: bool = False) -> Dict[str, Any]:
        """The shared result schema (:data:`RESULT_SCHEMA`).

        ``include_series`` adds the full ``(entity, metric, time,
        value)`` time-series rows, which can be large.
        """
        out: Dict[str, Any] = {
            "schema": RESULT_SCHEMA,
            "scenario": self.scenario,
            "seed": self.seed,
            "completed": self.completed,
            "metrics": dict(sorted(self.metrics.items())),
            "events": list(self.events),
            "node_sessions": {
                node: stats.to_dict() for node, stats in sorted(self.node_sessions.items())
            },
            "spec": self.spec.to_dict(),
        }
        if include_series and self.stats is not None:
            out["series"] = [list(row) for row in self.stats.to_rows()]
        return out

    def to_json(self, indent: Optional[int] = 2, include_series: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_series=include_series), indent=indent, sort_keys=True
        )


__all__ = ["RESULT_SCHEMA", "ResultSchemaError", "RunResult", "validate_result_dict"]
