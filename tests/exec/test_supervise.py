"""The supervised worker pool: crashes, hangs, pool loss.

Workers are real forked processes; the tests exercise the supervisor's
health machinery with genuinely dying/stalling children, so the sleeps
here are wall-clock by necessity (they never touch results or metrics).
"""

import os
import signal
import time
from dataclasses import dataclass

import pytest

from repro.errors import (
    CheckpointError,
    ExecError,
    PoolUnavailable,
    WorkerCrash,
    WorkerHang,
    failure_class,
)
from repro.exec import SupervisionPolicy, runtime, supervise

#: A tight policy so hang/death detection lands in test time.
_FAST = SupervisionPolicy(hang_timeout_s=0.5)


@dataclass(frozen=True)
class _Task:
    """Minimal stand-in for the engine's shard task."""

    shard_index: int
    mode: str = "ok"

    def describe(self) -> str:
        return f"task[{self.shard_index}]"


def _worker(task: _Task, heartbeat=None) -> tuple[int, int]:
    tick = heartbeat or (lambda: None)
    if task.mode == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    if task.mode == "hang":
        tick()
        time.sleep(60.0)  # no further heartbeat progress
    if task.mode == "slow-but-alive":
        for _ in range(20):
            tick()
            time.sleep(0.05)
    if task.mode == "raise":
        raise ValueError("unit exploded")
    tick()
    # Like the engine's shard outcome, the payload names its shard.
    return task.shard_index, task.shard_index * 10


def _run(tasks, jobs=4, policy=_FAST):
    """Run the pool; returns ``({shard: outcome}, failures)``."""
    landed = []
    failures = supervise.run_supervised(
        tasks, jobs=jobs, policy=policy,
        worker_fn=_worker, on_outcome=landed.append,
    )
    return dict(landed), failures


class TestPolicy:
    @pytest.mark.parametrize(
        "misuse",
        [
            pytest.param(
                lambda: SupervisionPolicy(hang_timeout_s=0.0), id="0.0"
            ),
            pytest.param(
                lambda: SupervisionPolicy(hang_timeout_s=-1.0), id="-1.0"
            ),
            pytest.param(
                lambda: runtime.CheckpointPolicy(""), id="no-directory"
            ),
            pytest.param(runtime.claim_journal_path, id="no-policy"),
        ],
    )
    def test_non_positive_hang_timeout_is_an_exec_error(self, misuse):
        """Policy misuse is an :class:`ExecError`, never the
        :class:`CheckpointError` kept for journal failures: a
        non-positive hang timeout, a checkpoint policy with no
        directory, or a journal claimed with no policy installed."""
        with pytest.raises(ExecError) as raised:
            misuse()
        assert not isinstance(raised.value, CheckpointError)


class TestHealthyPool:
    def test_all_outcomes_collected(self):
        outcomes, failures = _run([_Task(i) for i in range(5)], jobs=2)
        assert outcomes == {i: i * 10 for i in range(5)}
        assert failures == []

    def test_worker_exception_ships_back(self):
        outcomes, failures = _run([_Task(0), _Task(1, "raise")])
        assert outcomes == {0: 0}
        [(task, cause)] = failures
        assert task.shard_index == 1
        assert isinstance(cause, ValueError)


class TestCrashes:
    def test_one_dead_worker_does_not_break_the_pool(self):
        tasks = [_Task(0), _Task(1, "crash"), _Task(2)]
        outcomes, failures = _run(tasks)
        assert outcomes == {0: 0, 2: 20}
        [(task, cause)] = failures
        assert task.shard_index == 1
        assert isinstance(cause, WorkerCrash)
        assert cause.exitcode == -signal.SIGKILL
        assert failure_class(cause) == "crash"

    def test_failures_sorted_by_shard_index(self):
        tasks = [_Task(i, "crash") for i in (3, 0, 2)]
        _, failures = _run(tasks, jobs=3)
        assert [task.shard_index for task, _ in failures] == [0, 2, 3]
        assert all(isinstance(cause, WorkerCrash) for _, cause in failures)


class TestHangs:
    def test_hung_worker_is_killed_and_reported(self):
        outcomes, failures = _run([_Task(0), _Task(1, "hang")])
        assert outcomes == {0: 0}
        [(task, cause)] = failures
        assert task.shard_index == 1
        assert isinstance(cause, WorkerHang)
        assert failure_class(cause) == "hang"

    def test_heartbeat_progress_is_not_a_hang(self):
        # The shard ticks for ~1 s, over three times hang_timeout_s,
        # but never goes 0.3 s without a tick.
        outcomes, failures = _run(
            [_Task(0, "slow-but-alive")], jobs=1,
            policy=SupervisionPolicy(hang_timeout_s=0.3),
        )
        assert outcomes == {0: 0}
        assert failures == []


class TestPoolLoss:
    def test_nothing_spawned_raises_pool_unavailable(self, monkeypatch):
        def _no_fork(*args, **kwargs):
            raise OSError("fork refused")

        monkeypatch.setattr(supervise, "_start_worker", _no_fork)
        with pytest.raises(PoolUnavailable):
            _run([_Task(0), _Task(1)])

    def test_mid_run_spawn_loss_fails_the_remainder(self, monkeypatch):
        real = supervise._start_worker
        spawned = []

        def _one_then_fail(ctx, worker_fn, task, queue):
            if spawned:
                raise OSError("fork refused")
            spawned.append(task.shard_index)
            return real(ctx, worker_fn, task, queue)

        monkeypatch.setattr(supervise, "_start_worker", _one_then_fail)
        outcomes, failures = _run([_Task(0), _Task(1), _Task(2)], jobs=1)
        assert outcomes == {0: 0}
        assert [task.shard_index for task, _ in failures] == [1, 2]
        assert all(
            isinstance(cause, PoolUnavailable)
            and failure_class(cause) == "pool-loss"
            for _, cause in failures
        )
