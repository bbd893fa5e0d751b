"""In-memory spans recorded from the benchmark's own files.

A span is ``name / start / end / parent / workload``: the caller opens
one around each call into a layer (:meth:`Tracer.span`), or wraps a
function so that every call records one (:meth:`Tracer.wrap`).  Spans
stay in a list until the traced run ends and are written out as one
JSON document; nothing here touches the program under test.

Self time follows the choosing-metrics guide: a span's duration minus
the part of that interval its direct children cover.  The traced runs
are single-threaded, so children never overlap and the covered part is
the plain sum of their durations.
"""

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans for one traced repetition of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        #: Span times are reported relative to this instant.
        self._origin = time.perf_counter()
        #: ``[name, start, end, parent_index]`` rows; the index is the id.
        self._rows: List[list] = []
        self._open: List[int] = []

    def _begin(self, name: str) -> int:
        index = len(self._rows)
        parent = self._open[-1] if self._open else None
        self._rows.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._rows[index][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self._begin(name)
        try:
            yield index
        finally:
            self._end(index)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(index)

        return traced

    def rename(self, index: int, name: str) -> None:
        """Relabel a closed span (ticks are classified after they ran)."""
        self._rows[index][0] = name

    def duration(self, index: int) -> float:
        row = self._rows[index]
        return row[2] - row[1]

    def spans(self) -> List[Dict[str, Any]]:
        """The closed spans as JSON-able dicts, in start order.

        ``start`` / ``end`` are seconds since the tracer was created.
        """
        origin = self._origin
        return [
            {
                "id": index,
                "name": name,
                "start": round(start - origin, 7),
                "end": round(end - origin, 7),
                "parent": parent,
                "workload": self.workload,
            }
            for index, (name, start, end, parent) in enumerate(self._rows)
            if end is not None
        ]


def span_cost(calls: int = 2000) -> float:
    """Seconds one wrapped call spends on span bookkeeping, measured now."""
    tracer = Tracer("calibration")
    noop = tracer.wrap("noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - t0) / calls


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: duration minus its direct children's."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        parent = s["parent"]
        if parent is not None and parent in out:
            out[parent] -= s["end"] - s["start"]
    return out


def totals_by_name(
    spans: List[Dict[str, Any]], self_time: bool = False
) -> Dict[str, Dict[str, float]]:
    """``{name: {"count": n, "seconds": total}}`` over a span list."""
    own: Optional[Dict[int, float]] = self_times(spans) if self_time else None
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        seconds = own[s["id"]] if own is not None else s["end"] - s["start"]
        entry = out.setdefault(s["name"], {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += seconds
    return out
