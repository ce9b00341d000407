"""Profiling hooks: rate gauges, fingerprint immunity."""

import pytest

from repro import obs
from repro.circuits.sram import SramArray
from repro.obs import RunManifest, manifest_fingerprint
from repro.obs.timing import observe_rate
from repro.rng import generator


class TestHookPrimitives:
    def test_observe_rate_records_gauge_and_histogram(self, observed):
        observe_rate("exec.units", 50.0, 2.0)
        snapshot = observed.metrics.snapshot()
        assert snapshot["perf.exec.units.per_s"] == pytest.approx(25.0)
        (key,) = [k for k in snapshot if k.startswith("perf.phase_wall_s")]
        assert "phase=exec.units" in key

    def test_zero_wall_records_nothing(self, observed):
        observe_rate("exec.units", 50.0, 0.0)
        assert not observed.metrics.snapshot()

    def test_disabled_observability_records_nothing(self):
        assert not obs.OBS.enabled
        observe_rate("exec.units", 1.0, 1.0)
        assert not obs.OBS.metrics.snapshot()


class TestThreadedHotPaths:
    def test_sram_decay_path_emits_cells_per_second(self, observed):
        array = SramArray(
            4096, rng=generator(3, "perf", "test"), name="hook-test"
        )
        array.power_up()
        array.power_down()
        array.elapse_unpowered(1e-5)
        array.restore_power()
        snapshot = observed.metrics.snapshot()
        (key,) = [k for k in snapshot if k.startswith("perf.sram.decay")]
        assert snapshot[key] > 0.0

    def test_exec_engine_emits_units_per_second(self, observed):
        from repro.exec import ShardPlan, WorkUnit, execute
        from repro.perf.workloads import _exec_spin

        plan = ShardPlan(
            [WorkUnit(index=i, fn=_exec_spin, args=(i,), label=f"u{i}")
             for i in range(4)]
        )
        execute(plan, jobs=1)
        snapshot = observed.metrics.snapshot()
        assert snapshot["perf.exec.units.per_s"] > 0.0

    def test_glitch_point_emits_attempts_per_second(self, observed):
        from repro.glitch.campaign import CampaignSpec, run_point
        from repro.units import nanoseconds

        spec = CampaignSpec(
            offsets_s=(0.0,), widths_s=(nanoseconds(40),),
            depths_v=(0.4,), repeats=1, random_points=0,
        )
        attempts = run_point(
            5, "unprotected", "grid", "grid0",
            0.0, nanoseconds(40), 0.4, 1, spec,
        )
        assert len(attempts) == 1
        snapshot = observed.metrics.snapshot()
        (key,) = [
            k for k in snapshot if k.startswith("perf.glitch.attempts")
        ]
        assert "leg=unprotected" in key
        assert snapshot[key] > 0.0


class TestFingerprintImmunity:
    def test_perf_metrics_never_reach_the_fingerprint(self):
        base = RunManifest(
            kind="experiment", name="x", seed=1,
            metrics={"sram.cells_decayed": 10},
        ).to_dict()
        noisy = RunManifest(
            kind="experiment", name="x", seed=1,
            metrics={
                "sram.cells_decayed": 10,
                "perf.exec.units.per_s": 123.0,
                "perf.phase_wall_s{phase=run}": {"count": 1, "mean": 0.5,
                                                 "min": 0.5, "max": 0.5},
                "exec.shard_wall_s": {"count": 2, "mean": 1.0,
                                      "min": 0.5, "max": 1.5},
            },
        ).to_dict()
        assert manifest_fingerprint(base) == manifest_fingerprint(noisy)
