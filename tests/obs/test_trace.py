"""Unit tests for spans, events, and the tracer."""

import pytest

from repro.obs.trace import NULL_SPAN, Span, Tracer


class _ListSink:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)


class TestSpan:
    def test_attributes_and_events(self):
        span = Span("attack.identify")
        span.set_attribute("target", "l1-caches")
        span.set_attributes(domain="VDD_CORE", pad="TP15")
        span.add_event("power.note", detail="probing")
        record = span.to_record()
        assert record["type"] == "span"
        assert record["attributes"]["pad"] == "TP15"
        assert record["events"] == [{"name": "power.note", "detail": "probing"}]

    def test_null_span_absorbs_everything(self):
        NULL_SPAN.set_attribute("k", "v")
        NULL_SPAN.set_attributes(a=1)
        NULL_SPAN.add_event("ignored")


class TestTracer:
    def test_spans_nest_and_finish_in_close_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert tracer.current is None

    def test_span_keeps_its_direct_children_as_phases(self):
        tracer = Tracer()
        with tracer.span("attack.x") as root:
            with tracer.span("attack.a"):
                with tracer.span("detail"):
                    pass
            with tracer.span("attack.b"):
                pass
        a, b = root.children
        assert [c.name for c in a.children] == ["detail"]
        assert root.phases("attack.") == [
            {"name": "a", "wall_s": a.wall_s},
            {"name": "b", "wall_s": b.wall_s},
        ]
        assert "children" not in root.to_record()

    def test_events_attach_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("attack.power-cycle"):
            tracer.event("power.input_disconnected", subject="rpi4")
        (span,) = tracer.spans_named("attack.power-cycle")
        assert span.events[0]["name"] == "power.input_disconnected"

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans_named("doomed")
        assert span.status == "error"

    def test_sink_receives_span_and_event_records(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        with tracer.span("step"):
            tracer.event("tick")
        types = [r["type"] for r in sink.records]
        assert types == ["event", "span"]  # events stream before span close
        assert sink.records[0]["span"] == "step"

    def test_orphan_event_has_no_span(self):
        sink = _ListSink()
        tracer = Tracer(sink=sink)
        tracer.event("lonely")
        assert sink.records[0]["span"] is None
