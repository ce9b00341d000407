"""Structured observability: tracing, metrics, and run manifests.

The package exposes one process-global :data:`OBS` registry.  It starts
*disabled*: every instrumentation hook in the simulator checks
``OBS.enabled`` first (or goes through the no-op-when-disabled helpers
below), so an uninstrumented run does no extra allocation, no wall-clock
reads, and — critically — never touches any RNG.  Enabling
observability must not change a run's physics; the determinism
regression test holds that line.

Typical use::

    from repro import obs

    with obs.capture(trace_path="trace.jsonl") as o:
        attack.execute()
        manifest = o.last_manifest

Instrumented code inside the simulator uses the cheap guarded calls::

    from ..obs import OBS

    if OBS.enabled:
        OBS.counter_inc("cache.evictions", 1, cache=self.name)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from . import names
from .export import (
    SCHEMA_VERSION,
    JsonlWriter,
    SchemaError,
    dumps,
    read_jsonl,
    validate_manifest,
    write_json,
)
from .manifest import RunManifest, manifest_fingerprint
from .metrics import MetricsRegistry
from .trace import NULL_SPAN, Span, Tracer

if TYPE_CHECKING:
    from ..power.events import PowerEvent

__all__ = [
    "OBS",
    "Observability",
    "names",
    "RunManifest",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "JsonlWriter",
    "SchemaError",
    "SCHEMA_VERSION",
    "capture",
    "dumps",
    "read_jsonl",
    "manifest_fingerprint",
    "validate_manifest",
    "write_json",
]


class _NullSpanContext:
    """Reusable zero-cost context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> Any:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Observability:
    """The process-global observability state.

    The singleton :data:`OBS` is never rebound — ``configure()`` and
    ``reset()`` mutate it in place, so modules that imported it early
    always see the live state.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.manifests: list[RunManifest] = []
        self._writer: JsonlWriter | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def configure(self, trace_path: str | None = None) -> "Observability":
        """Enable collection, optionally streaming a JSONL trace.

        Reconfiguring an enabled registry resets it first (closing any
        open trace file).
        """
        if self.enabled or self._writer is not None:
            self.reset()
        self._writer = JsonlWriter(trace_path) if trace_path else None
        self.tracer = Tracer(sink=self._writer)
        self.metrics = MetricsRegistry()
        self.manifests = []
        self.enabled = True
        return self

    def reset(self) -> None:
        """Disable collection and drop all collected state."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.manifests = []

    def quarantine_fork(self) -> None:
        """Drop state inherited across a ``fork`` without flushing it.

        A forked ``repro.exec`` worker inherits the parent's enabled
        registry — including an open trace sink whose buffered bytes
        belong to the parent.  ``reset()`` would flush-and-close that
        inherited file (duplicating records in the shared file); this
        instead abandons the writer unflushed and starts from a clean,
        disabled registry.  Workers then ``configure()`` their own
        collection and ship dumps back for the parent to merge.
        """
        self._writer = None
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.manifests = []

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """A traced span, or a shared null span when disabled."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return self.tracer.span(name, **attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time trace event (no-op when disabled)."""
        if self.enabled:
            self.tracer.event(name, **attributes)

    def power_event(self, event: "PowerEvent") -> None:
        """Fold one power-timeline event into the trace and metrics.

        Called by :meth:`~repro.power.events.PowerEventLog.record`; the
        caller guards on ``enabled`` so the unobserved path stays free.
        """
        self.tracer.event(
            f"power.{event.kind.value}",
            subject=event.subject,
            detail=event.detail,
            sim_time_s=event.time_s,
        )
        self.metrics.counter("power.events", kind=event.kind.value).inc()

    # ------------------------------------------------------------------
    # Metrics (guarded convenience wrappers)
    # ------------------------------------------------------------------

    def counter_inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Increment a counter (no-op when disabled)."""
        if self.enabled:
            self.metrics.counter(name, **labels).inc(amount)

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge (no-op when disabled)."""
        if self.enabled:
            self.metrics.gauge(name, **labels).set(value)

    def histogram_record(self, name: str, value: float, **labels: Any) -> None:
        """Record a histogram observation (no-op when disabled)."""
        if self.enabled:
            self.metrics.histogram(name, **labels).record(value)

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------

    def record_manifest(self, manifest: RunManifest) -> RunManifest:
        """Collect a finished run manifest (no-op when disabled)."""
        if self.enabled:
            self.manifests.append(manifest)
        return manifest

    @property
    def last_manifest(self) -> RunManifest | None:
        """The most recently recorded manifest, if any."""
        return self.manifests[-1] if self.manifests else None


#: The process-global registry.  Disabled (null-sink) by default.
OBS = Observability()


@contextmanager
def capture(trace_path: str | None = None) -> Iterator[Observability]:
    """Enable observability for a block, resetting afterwards."""
    OBS.configure(trace_path=trace_path)
    try:
        yield OBS
    finally:
        OBS.reset()
