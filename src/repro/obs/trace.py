"""Attack-step tracing: spans and events.

A :class:`Span` covers one step of a pipeline (e.g. the four §6.1 Volt
Boot steps); an *event* is a point-in-time record (e.g. a power-rail
transition).  Events emitted while a span is open are attached to that
span, so a trace reader can see exactly which power-timeline activity
happened inside, say, ``attack.power-cycle``.

Spans carry both wall-clock duration (profiling) and, where the caller
provides it, simulated time (physics).  A span keeps the spans that
closed inside it, so a pipeline builds its manifest phases from its
root span's children instead of timing each step a second time.  Records stream to a JSONL sink
as they close, so a crashed run still leaves a usable trace prefix.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol

from .timing import wall_clock


class TraceSink(Protocol):
    """Where finished span/event records go (see ``export.JsonlWriter``)."""

    def write(self, record: dict[str, Any]) -> None: ...


@dataclass
class Span:
    """One traced step: a named interval with attributes, child events,
    and the child spans that closed inside it."""

    name: str
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)
    status: str = "ok"
    wall_s: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach or overwrite one attribute."""
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def add_event(self, name: str, **attributes: Any) -> None:
        """Attach a point-in-time child event to this span."""
        self.events.append({"name": name, **attributes})

    def phases(self, prefix: str) -> list[dict[str, Any]]:
        """The closed children as manifest phases, in closing order.

        Each phase is the child's name with ``prefix`` removed and the
        child's wall time, so a pipeline's step spans are its only clock.
        """
        return [
            {"name": child.name.removeprefix(prefix), "wall_s": child.wall_s}
            for child in self.children
        ]

    def to_record(self) -> dict[str, Any]:
        """The JSONL representation of the finished span."""
        return {
            "type": "span",
            "name": self.name,
            "status": self.status,
            "wall_s": self.wall_s,
            "attributes": dict(self.attributes),
            "events": list(self.events),
        }


class _NullSpan:
    """Do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def add_event(self, name: str, **attributes: Any) -> None:
        pass


#: Shared null span — zero allocation on the disabled path.
NULL_SPAN = _NullSpan()


class Tracer:
    """Span lifecycle manager writing finished records to a sink.

    The tracer keeps a stack of open spans; :meth:`event` records attach
    to the innermost open span (and stream to the sink immediately,
    stamped with the span they belong to).
    """

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink = sink
        self._stack: list[Span] = []
        self.finished: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a span for the enclosed block."""
        span = Span(name=name, attributes=dict(attributes))
        self._stack.append(span)
        start = wall_clock()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.wall_s = wall_clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1].children.append(span)
            self.finished.append(span)
            if self.sink is not None:
                self.sink.write(span.to_record())

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event, attached to the open span."""
        parent = self.current
        if parent is not None:
            parent.add_event(name, **attributes)
        if self.sink is not None:
            self.sink.write(
                {
                    "type": "event",
                    "name": name,
                    "span": parent.name if parent else None,
                    "attributes": dict(attributes),
                }
            )

    def adopt_record(self, record: dict[str, Any]) -> Span:
        """Fold a finished span record from another tracer into this one.

        ``repro.exec`` workers trace their shards in the child process
        and ship the finished records back; adopting them here makes
        per-shard spans visible to the parent's sink and to
        :meth:`spans_named`, so a sharded run leaves one merged trace.
        """
        span = Span(
            name=record["name"],
            attributes=dict(record.get("attributes", {})),
            events=list(record.get("events", [])),
            status=record.get("status", "ok"),
            wall_s=float(record.get("wall_s", 0.0)),
        )
        self.finished.append(span)
        if self.sink is not None:
            self.sink.write(span.to_record())
        return span

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given name (test/report helper)."""
        return [s for s in self.finished if s.name == name]
