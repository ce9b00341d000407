"""Unit tests for the metrics registry."""

import math

import pytest

from repro.errors import ObservabilityError, ReproError
from repro.obs.metrics import MetricsRegistry


class TestCounter:
    def test_increments_accumulate(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.counter("hits").value == 5

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            registry.counter("hits").inc(-1)

    def test_negative_increment_is_a_repro_error(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.counter("hits").inc(-1)

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("evictions", cache="l1d.c0").inc(3)
        registry.counter("evictions", cache="l1d.c1").inc(7)
        assert registry.counter("evictions", cache="l1d.c0").value == 3
        assert registry.counter_total("evictions") == 10

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.counter("x", a="1", b="2").inc()
        registry.counter("x", b="2", a="1").inc()
        assert registry.counter("x", a="1", b="2").value == 2


class TestGauge:
    def test_last_value_wins(self):
        registry = MetricsRegistry()
        registry.gauge("voltage").set(1.1)
        registry.gauge("voltage").set(0.0)
        gauge = registry.gauge("voltage")
        assert gauge.value == 0.0
        assert gauge.updates == 2


class TestHistogram:
    def test_summary_statistics(self):
        registry = MetricsRegistry()
        hist = registry.histogram("retained")
        for value in (0.5, 1.0, 0.75):
            hist.record(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["min"] == 0.5
        assert summary["max"] == 1.0
        assert summary["mean"] == pytest.approx(0.75)

    def test_empty_summary_is_zeroed(self):
        hist = MetricsRegistry().histogram("empty")
        assert hist.summary() == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}

    #: Plain float summation of these depends on grouping:
    #: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
    VALUES = (0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 0.7)

    def test_total_is_the_correctly_rounded_sum(self):
        hist = MetricsRegistry().histogram("x")
        for value in self.VALUES:
            hist.record(value)
        assert hist.total == math.fsum(self.VALUES)

    @pytest.mark.parametrize("split", range(len(VALUES) + 1))
    def test_merged_pieces_match_one_piece(self, split):
        whole = MetricsRegistry()
        for value in self.VALUES:
            whole.histogram("x").record(value)
        pooled = MetricsRegistry()
        for piece in (self.VALUES[split:], self.VALUES[:split]):
            shard = MetricsRegistry()
            for value in piece:
                shard.histogram("x").record(value)
            pooled.merge(shard.dump())
        assert pooled.snapshot() == whole.snapshot()
        assert pooled.histogram("x").mean == math.fsum(self.VALUES) / 7

    def test_non_finite_values_absorb_like_plain_sums(self):
        hist = MetricsRegistry().histogram("x")
        for value in (1.0, math.inf, 2.0):
            hist.record(value)
        assert hist.total == math.inf
        hist.record(-math.inf)
        assert math.isnan(hist.total)


class TestSnapshot:
    def test_rendered_names_carry_labels(self):
        registry = MetricsRegistry()
        registry.counter("power.events", kind="boot").inc(2)
        registry.gauge("sram.tau_s").set(42.0)
        snap = registry.snapshot()
        assert snap["power.events{kind=boot}"] == 2
        assert snap["sram.tau_s"] == 42.0

    def test_prefix_filters(self):
        registry = MetricsRegistry()
        registry.counter("cache.evictions").inc()
        registry.counter("power.events").inc()
        snap = registry.snapshot("cache.")
        assert list(snap) == ["cache.evictions"]

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.reset()
        assert registry.snapshot() == {}
