"""Tests for the parallel execution engine: dispatch, retry, fallback,
and observability merging.

Worker functions are module-level so the pool can pickle them by
reference.  Failure injection uses marker files on disk: a unit that
fails only while its marker is absent fails on the pool attempt and
succeeds on the in-process re-attempt, exercising the bounded retry
path deterministically.
"""

from contextlib import ExitStack
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ExecError, ShardError
from repro.exec import (
    ShardPlan,
    SupervisionPolicy,
    WorkUnit,
    execute,
    shard_unit,
)
from repro.exec import runtime, supervise


@shard_unit
def _square(x):
    return x * x


@shard_unit
def _fail_once(marker: str, value: int):
    """Raise on the first call (marker absent), succeed afterwards."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("injected first-attempt failure")
    return value


@shard_unit
def _always_fail(value: int):
    raise RuntimeError("injected permanent failure")


def _squares(n):
    return ShardPlan.enumerate(
        _square, [(i,) for i in range(n)], labels=[f"sq[{i}]" for i in range(n)]
    )


@pytest.fixture
def observed():
    obs.OBS.configure()
    yield obs.OBS
    obs.OBS.reset()


class TestSerialPath:
    def test_jobs_one_runs_in_process(self):
        assert execute(_squares(5), jobs=1) == [0, 1, 4, 9, 16]

    def test_empty_plan(self):
        assert execute(ShardPlan([]), jobs=4) == []

    def test_single_unit_skips_the_pool(self):
        assert execute(_squares(1), jobs=8) == [0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ExecError):
            execute(_squares(2), jobs=0)
        with pytest.raises(ExecError):
            execute(_squares(2), jobs=2, retries=-1)


class TestParallelPath:
    def test_results_merge_in_unit_order(self):
        assert execute(_squares(13), jobs=4) == [i * i for i in range(13)]

    def test_parallel_equals_serial(self):
        assert execute(_squares(13), jobs=4) == execute(_squares(13), jobs=1)


class TestRetry:
    def test_failed_shard_is_retried_serially(self, tmp_path, observed):
        marker = str(tmp_path / "fail-once")
        # Two units so the plan actually shards (one unit short-circuits
        # to in-process dispatch).
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (str(tmp_path / "other"), 7)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        assert execute(plan, jobs=2, retries=1) == [42, 7]
        assert observed.metrics.snapshot()["exec.retries"] == 1

    def test_retries_exhausted_raises_shard_error(self):
        plan = ShardPlan.enumerate(
            _always_fail, [(1,), (2,)], labels=["bad[1]", "bad[2]"]
        )
        with pytest.raises(ShardError) as excinfo:
            execute(plan, jobs=2, retries=1)
        assert excinfo.value.attempts == 2
        assert "bad[" in excinfo.value.label
        assert "RuntimeError" in excinfo.value.cause

    def test_zero_retries_fails_after_pool_attempt(self, tmp_path):
        marker = str(tmp_path / "fail-once")
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (marker, 42)]
        )
        with pytest.raises(ShardError) as excinfo:
            execute(plan, jobs=2, retries=0)
        assert excinfo.value.attempts == 1

    def test_shard_error_is_in_the_repro_taxonomy(self):
        from repro.errors import ReproError

        assert issubclass(ShardError, ExecError)
        assert issubclass(ExecError, ReproError)


class TestSerialRetryParity:
    """``jobs=1`` honours the same retry contract (and emits the same
    metrics) as the pool path — manifests stay jobs-invariant even for
    flaky plans."""

    def test_serial_failure_is_retried_with_metrics(self, tmp_path, observed):
        marker = str(tmp_path / "fail-once")
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (str(tmp_path / "other"), 7)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        assert execute(plan, jobs=1, retries=1) == [42, 7]
        assert observed.metrics.snapshot()["exec.retries"] == 1

    def test_serial_exhaustion_raises_shard_error(self):
        plan = ShardPlan.enumerate(
            _always_fail, [(1,)], labels=["bad[1]"]
        )
        with pytest.raises(ShardError) as excinfo:
            execute(plan, jobs=1, retries=1)
        assert excinfo.value.attempts == 2
        assert excinfo.value.label == "bad[1]"
        assert "RuntimeError" in excinfo.value.cause

    def test_serial_and_pool_paths_emit_equal_retry_counts(
        self, tmp_path, monkeypatch, observed
    ):
        """Every dispatch path counts the same retries, failures and
        quarantines for the same plan: in-process, pooled, checkpointed
        on the pool, and the pool-unavailable fallback."""

        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        def run(path, quarantine):
            workdir = tmp_path / f"{path}-{quarantine}"
            workdir.mkdir()
            (workdir / "other").write_text("pre-satisfied")
            units = [
                WorkUnit(0, _fail_once, (str(workdir / "fail-once"), 42)),
                WorkUnit(1, _fail_once, (str(workdir / "other"), 7)),
            ]
            if quarantine:
                units.append(WorkUnit(2, _always_fail, (3,), label="bad[3]"))
            observed.configure()
            runtime.clear_incidents()
            with ExitStack() as stack:
                if quarantine:
                    stack.enter_context(
                        runtime.supervised(SupervisionPolicy(quarantine=True))
                    )
                if path == "checkpointed":
                    stack.enter_context(
                        runtime.checkpointing(str(workdir / "ckpt"))
                    )
                if path == "fallback":
                    stack.enter_context(monkeypatch.context()).setattr(
                        supervise, "_start_worker", _no_pool
                    )
                results = execute(
                    ShardPlan(units),
                    jobs=1 if path == "serial" else 2,
                    retries=1,
                )
            counts = {
                key: value
                for key, value in observed.metrics.snapshot().items()
                if key.startswith(
                    ("exec.retries", "exec.failures", "exec.quarantined")
                )
            }
            return results, counts, runtime.incidents()

        paths = ("serial", "pooled", "checkpointed", "fallback")
        try:
            flaky = {path: run(path, quarantine=False) for path in paths}
            poisoned = {path: run(path, quarantine=True) for path in paths}
        finally:
            runtime.clear_incidents()
        assert flaky["serial"] == (
            [42, 7],
            {"exec.retries": 1, "exec.failures{failure_class=poison}": 1},
            (),
        )
        assert all(outcome == flaky["serial"] for outcome in flaky.values())
        results, counts, incidents = poisoned["serial"]
        assert results == [42, 7, None]
        assert counts == {
            "exec.retries": 2,
            "exec.failures{failure_class=poison}": 3,
            "exec.quarantined_units": 1,
        }
        assert [incident.detail["label"] for incident in incidents] == [
            "bad[3]"
        ]
        assert all(
            outcome == poisoned["serial"] for outcome in poisoned.values()
        )

    def test_fallback_retries_a_flaky_unit(
        self, tmp_path, monkeypatch, observed
    ):
        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(supervise, "_start_worker", _no_pool)
        marker = str(tmp_path / "fail-once")
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (str(tmp_path / "other"), 7)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        assert execute(plan, jobs=4, retries=1) == [42, 7]
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.fallbacks"] == 1
        assert snapshot["exec.retries"] == 1


class TestQuarantine:
    def test_pooled_shard_quarantines_only_its_failing_unit(
        self, observed
    ):
        # 16 units over 2 jobs run as 8 shards of 2, so shard 0 holds a
        # healthy and a poisoned unit.  Once the shard's budget is spent
        # it splits, so only the poisoned unit is lost.
        units = [
            WorkUnit(i, _square, (i,), label=f"sq[{i}]") for i in range(16)
        ]
        units[1] = WorkUnit(1, _always_fail, (1,), label="bad[1]")
        assert ShardPlan(units).chunk_size(jobs=2) == 2
        runtime.clear_incidents()
        try:
            with runtime.supervised(SupervisionPolicy(quarantine=True)):
                results = execute(ShardPlan(units), jobs=2, retries=1)
            incidents = runtime.incidents()
        finally:
            runtime.clear_incidents()
        assert results == [None if i == 1 else i * i for i in range(16)]
        assert [incident.detail["label"] for incident in incidents] == [
            "bad[1]"
        ]
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.quarantined_units"] == 1
        assert snapshot["exec.shards"] == 8
        assert len(observed.tracer.spans_named("exec.shard")) == 8


class TestSerialFallback:
    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch, observed):
        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(supervise, "_start_worker", _no_pool)
        assert execute(_squares(6), jobs=4) == [i * i for i in range(6)]
        assert observed.metrics.snapshot()["exec.fallbacks"] == 1

    def test_fallback_ignores_retry_budget(self, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(supervise, "_start_worker", _no_pool)
        # Even with retries=0 the downgrade completes the run.
        assert execute(_squares(6), jobs=4, retries=0) == [
            i * i for i in range(6)
        ]


class TestObservabilityMerge:
    def test_shard_spans_are_adopted(self, observed):
        # 20 units over 2 jobs run as contiguous shards of 3, in order.
        execute(_squares(20), jobs=2)
        names = [span.name for span in observed.tracer.finished]
        assert names.count("exec.shard") == 7
        assert "exec.run" in names
        shards = sorted(
            observed.tracer.spans_named("exec.shard"),
            key=lambda span: span.attributes["shard"],
        )
        assert [span.attributes["labels"] for span in shards] == [
            [f"sq[{i}]" for i in range(start, min(start + 3, 20))]
            for start in range(0, 20, 3)
        ]

    def test_engine_metrics_are_recorded(self, observed):
        execute(_squares(8), jobs=2)
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.units"] == 8
        assert snapshot["exec.shards"] == 8
        assert snapshot["exec.jobs"] == 2.0
        assert snapshot["exec.shard_wall_s"]["count"] == 8

    def test_disabled_obs_stays_silent(self):
        execute(_squares(8), jobs=2)
        assert obs.OBS.metrics.snapshot() == {}
        assert obs.OBS.tracer.finished == []
