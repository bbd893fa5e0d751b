"""Span bookkeeping and the self-time arithmetic."""

from bench.tracing import Tracer, self_times, totals_by_name


def _span(index, name, start, end, parent):
    return {"id": index, "name": name, "start": start, "end": end,
            "parent": parent, "workload": "hand-built"}


def test_self_time_is_duration_minus_direct_children():
    #  run 0..10
    #    tick 1..4         (self 3 - 2 = 1)
    #      rewire 2..4     (self 2)
    #    tick 5..9         (self 4 - 1 - 1 = 2)
    #      rewire 5..6
    #      refresh 8..9
    spans = [
        _span(0, "run", 0.0, 10.0, None),
        _span(1, "tick", 1.0, 4.0, 0),
        _span(2, "rewire", 2.0, 4.0, 1),
        _span(3, "tick", 5.0, 9.0, 0),
        _span(4, "rewire", 5.0, 6.0, 3),
        _span(5, "refresh", 8.0, 9.0, 3),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 1.0}
    # Self times partition the root's duration.
    assert sum(own.values()) == 10.0
    totals = totals_by_name(spans, self_time=True)
    assert totals["tick"] == {"count": 2, "seconds": 3.0}
    assert totals["rewire"] == {"count": 2, "seconds": 3.0}
    assert totals_by_name(spans)["tick"]["seconds"] == 7.0


def test_tracer_records_nesting_and_wrapped_calls():
    tracer = Tracer("w")
    double = tracer.wrap("double", lambda x: 2 * x)
    with tracer.span("outer") as outer:
        assert double(21) == 42
        with tracer.span("inner") as inner:
            pass
    tracer.rename(inner, "inner.renamed")
    spans = tracer.spans()
    assert [s["name"] for s in spans] == ["outer", "double", "inner.renamed"]
    assert [s["parent"] for s in spans] == [None, outer, outer]
    assert all(s["workload"] == "w" and s["end"] >= s["start"] for s in spans)
    assert tracer.duration(outer) >= tracer.duration(inner)


def test_wrapped_call_closes_its_span_when_it_raises():
    tracer = Tracer("w")

    def boom():
        raise RuntimeError("x")

    try:
        tracer.wrap("boom", boom)()
    except RuntimeError:
        pass
    with tracer.span("after"):
        pass
    spans = tracer.spans()
    assert [s["name"] for s in spans] == ["boom", "after"]
    assert spans[1]["parent"] is None
