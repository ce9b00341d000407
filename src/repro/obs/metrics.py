"""Counters, gauges, and histograms for the simulation's physics.

The registry is deliberately simple: metrics are named, optionally
labelled (``counter("cache.evictions", cache="l1d.c0")``), and hold
plain Python numbers.  Nothing here touches any RNG or the simulated
clock, so instrumentation can never perturb a run's physics — the
property the determinism regression test locks in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..errors import ObservabilityError

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fold_exact(partials: list[float], value: float) -> None:
    """Add ``value`` to a Shewchuk expansion ``partials`` without error.

    The partials are non-overlapping floats whose exact sum is the
    running total, so ``math.fsum(partials)`` is the correctly rounded
    sum of every value folded in, whatever the order or grouping.  A
    non-finite value collapses the expansion to one non-finite entry,
    as plain summation would.
    """
    if not math.isfinite(value) or (partials and not math.isfinite(partials[0])):
        partials[:] = [sum(partials, value)]
        return
    kept = 0
    for partial in partials:
        if abs(value) < abs(partial):
            value, partial = partial, value
        high = value + partial
        low = partial - (high - value)
        if low:
            partials[kept] = low
            kept += 1
        value = high
    partials[kept:] = [value]


def _render_key(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ObservabilityError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A last-value-wins measurement."""

    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        """Record the latest observed value."""
        self.value = float(value)
        self.updates += 1


@dataclass
class Histogram:
    """Running summary statistics of a stream of observations.

    The sum is kept exactly, as Shewchuk partials, so a histogram
    recorded in one piece and one pooled from per-shard :meth:`dump`
    pieces report bit-identical means.
    """

    count: int = 0
    partials: list[float] = field(default_factory=list)
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def record(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        _fold_exact(self.partials, value)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def total(self) -> float:
        """Correctly rounded sum of the observations."""
        return math.fsum(self.partials)

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """Snapshot dict (count/mean/min/max)."""
        if not self.count:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
        }


class MetricsRegistry:
    """Get-or-create store of named, labelled metrics."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        return self._counters.setdefault((name, _label_key(labels)), Counter())

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        return self._gauges.setdefault((name, _label_key(labels)), Gauge())

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        return self._histograms.setdefault(
            (name, _label_key(labels)), Histogram()
        )

    def counter_total(self, name: str) -> int:
        """Sum of one counter name across every label combination."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        """Flattened ``{rendered-name: value}`` view of every metric.

        Counters map to ints, gauges to floats, histograms to summary
        dicts.  ``prefix`` filters by metric-name prefix.
        """
        out: dict[str, Any] = {}
        for (name, key), counter in sorted(self._counters.items()):
            if name.startswith(prefix):
                out[_render_key(name, key)] = counter.value
        for (name, key), gauge in sorted(self._gauges.items()):
            if name.startswith(prefix):
                out[_render_key(name, key)] = gauge.value
        for (name, key), hist in sorted(self._histograms.items()):
            if name.startswith(prefix):
                out[_render_key(name, key)] = hist.summary()
        return out

    def dump(self) -> dict[str, Any]:
        """Lossless, picklable view of the registry's raw state.

        Unlike :meth:`snapshot` (a flattened human/JSON view), a dump
        preserves label structure and exact histogram sums, so a registry
        collected in a worker process can be folded into the parent's
        with :meth:`merge` — the mechanism ``repro.exec`` uses to merge
        per-shard metrics into one run manifest.
        """
        return {
            "counters": [
                (name, key, c.value)
                for (name, key), c in sorted(self._counters.items())
            ],
            "gauges": [
                (name, key, g.value, g.updates)
                for (name, key), g in sorted(self._gauges.items())
            ],
            "histograms": [
                (name, key, h.count, list(h.partials), h.minimum, h.maximum)
                for (name, key), h in sorted(self._histograms.items())
                if h.count
            ],
        }

    def merge(self, dump: dict[str, Any]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters add, histograms pool their summaries (exactly: the
        result does not depend on how observations were grouped into
        dumps), and gauges take the dumped value (last-writer-wins,
        matching ``Gauge.set``).
        """
        for name, key, value in dump.get("counters", ()):
            self._counters.setdefault((name, tuple(key)), Counter()).inc(value)
        for name, key, value, updates in dump.get("gauges", ()):
            gauge = self._gauges.setdefault((name, tuple(key)), Gauge())
            gauge.value = float(value)
            gauge.updates += int(updates)
        for name, key, count, partials, minimum, maximum in dump.get(
            "histograms", ()
        ):
            hist = self._histograms.setdefault((name, tuple(key)), Histogram())
            hist.count += int(count)
            for partial in partials:
                _fold_exact(hist.partials, float(partial))
            hist.minimum = min(hist.minimum, float(minimum))
            hist.maximum = max(hist.maximum, float(maximum))

    def reset(self) -> None:
        """Drop every metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
