"""Supervised worker-process pool with per-shard heartbeats.

The engine's original ``ProcessPoolExecutor`` dispatch had a fatal
coupling: one worker dying (``kill -9``, OOM) broke the *whole* pool,
and a worker stuck in an infinite loop was indistinguishable from a
slow one.  This module replaces it with one ``fork``-context
``multiprocessing.Process`` per shard, supervised by the parent:

* each worker increments a shared **heartbeat** value after every
  completed unit, so the supervisor can tell "busy" from "hung";
* a worker that makes no heartbeat progress within the policy's
  ``hang_timeout_s`` is SIGKILLed and its shard handed back as a
  :class:`~repro.errors.WorkerHang` failure for an in-process re-attempt;
* a worker that dies without shipping its outcome (after a short
  grace period for results racing the death) becomes a
  :class:`~repro.errors.WorkerCrash` failure — the *other* workers
  keep running, which a shared executor cannot promise.

Outcomes travel back over a ``multiprocessing`` queue and are handed
to the caller's ``on_outcome`` callback as they land.  Failures are
returned sorted by shard index, so the engine's in-process re-attempts
replay in deterministic plan order regardless of completion order.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from queue import Empty
from typing import Any, Callable

from ..errors import ExecError, PoolUnavailable, WorkerCrash, WorkerHang
from ..obs.timing import wall_clock
from ..units import milliseconds
from .runtime import SupervisionPolicy

#: How long the supervisor's result/health loop waits for an outcome
#: before it polices its workers again.
POLL_INTERVAL_S = milliseconds(20)

#: How long a dead worker's queued outcome may lag its death before
#: the supervisor declares a crash (multiples of the poll interval).
_DEATH_GRACE_POLLS = 8


def _worker_main(
    worker_fn: Callable[..., Any], task: Any, queue: Any, beat: Any
) -> None:
    """Worker-process entry: run the shard, ship ``(index, payload)``.

    Exceptions ship as ``("err", error)`` payloads; an outcome that
    cannot be pickled onto the queue degrades to a shippable error so
    the parent never waits on a shard that already finished.
    """

    def tick() -> None:
        beat.value += 1

    try:
        payload: tuple[str, Any] = ("ok", worker_fn(task, heartbeat=tick))
    except Exception as error:
        payload = ("err", error)
    try:
        queue.put((task.shard_index, payload))
    except Exception as error:
        queue.put(
            (
                task.shard_index,
                ("err", ExecError(f"shard outcome not shippable: {error!r}")),
            )
        )


def _start_worker(
    ctx: Any, worker_fn: Callable[..., Any], task: Any, queue: Any
) -> tuple[Any, Any]:
    """Spawn one shard worker; returns ``(process, heartbeat)``.

    Module-level so tests can monkeypatch the spawn seam.
    """
    beat = ctx.Value("Q", 0, lock=False)
    process = ctx.Process(
        target=_worker_main, args=(worker_fn, task, queue, beat), daemon=True
    )
    process.start()
    return process, beat


@dataclass
class _Worker:
    """Parent-side view of one live shard worker."""

    task: Any
    process: Any
    beat: Any
    last_beat: int = 0
    last_progress_t: float = 0.0
    died_t: float | None = None


@dataclass
class _Supervisor:
    """One ``run_supervised`` call's state machine."""

    jobs: int
    policy: SupervisionPolicy
    worker_fn: Callable[..., Any]
    on_outcome: Callable[[Any], None]
    landed: set[int] = field(default_factory=set)
    failures: dict[int, tuple[Any, BaseException]] = field(
        default_factory=dict
    )
    live: dict[int, _Worker] = field(default_factory=dict)

    def run(self, tasks: list[Any]) -> list[tuple[Any, BaseException]]:
        ctx = mp.get_context("fork")
        queue = ctx.Queue()
        pending = list(tasks)
        try:
            while pending or self.live:
                pending = self._spawn(ctx, queue, pending)
                self._drain(queue, block=bool(self.live))
                self._police()
            self._drain(queue, block=False)
        finally:
            for worker in self.live.values():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            queue.close()
        # A shard whose result raced its kill keeps the result.
        return [
            (task, cause)
            for index, (task, cause) in sorted(self.failures.items())
            if index not in self.landed
        ]

    # -- spawning --------------------------------------------------------

    def _spawn(self, ctx: Any, queue: Any, pending: list[Any]) -> list[Any]:
        while pending and len(self.live) < self.jobs:
            task = pending[0]
            try:
                process, beat = _start_worker(
                    ctx, self.worker_fn, task, queue
                )
            except (OSError, RuntimeError, ImportError) as error:
                if not (self.live or self.landed or self.failures):
                    # Nothing ever started: the engine falls back to
                    # in-process dispatch without charging retry budgets.
                    raise PoolUnavailable(
                        f"cannot spawn shard workers: {error!r}"
                    ) from error
                # Mid-run spawn loss: fail the remainder (classified
                # as pool-loss); the engine re-attempts them in-process.
                cause = PoolUnavailable(
                    f"cannot spawn shard workers: {error!r}"
                )
                cause.__cause__ = error
                for task in pending:
                    self.failures[task.shard_index] = (task, cause)
                return []
            pending.pop(0)
            self.live[task.shard_index] = _Worker(
                task=task,
                process=process,
                beat=beat,
                last_progress_t=wall_clock(),
            )
        return pending

    # -- results ---------------------------------------------------------

    def _drain(self, queue: Any, block: bool) -> None:
        """Collect every queued outcome; optionally block one poll."""
        if block:
            try:
                item = queue.get(timeout=POLL_INTERVAL_S)
            except Empty:
                return
            self._handle(*item)
        while True:
            try:
                item = queue.get_nowait()
            except Empty:
                return
            self._handle(*item)

    def _handle(self, shard_index: int, payload: tuple[str, Any]) -> None:
        worker = self.live.pop(shard_index, None)
        if worker is not None:
            worker.process.join(timeout=5.0)
        kind, value = payload
        if kind == "ok":
            self.landed.add(shard_index)
            # A late result beats an earlier kill/crash verdict.
            self.failures.pop(shard_index, None)
            self.on_outcome(value)
        else:
            task = worker.task if worker is not None else (
                self.failures[shard_index][0]
            )
            self.failures[shard_index] = (task, value)

    # -- health ----------------------------------------------------------

    def _police(self) -> None:
        """Check every live worker for a hang or death."""
        now = wall_clock()
        hang_timeout = self.policy.hang_timeout_s
        grace = _DEATH_GRACE_POLLS * POLL_INTERVAL_S
        for index in sorted(self.live):
            worker = self.live[index]
            beat = int(worker.beat.value)
            if beat != worker.last_beat:
                worker.last_beat = beat
                worker.last_progress_t = now
            if not worker.process.is_alive():
                if worker.died_t is None:
                    worker.died_t = now  # grace: its result may be queued
                elif now - worker.died_t >= grace:
                    self._fail(
                        index,
                        WorkerCrash(
                            worker.task.describe(),
                            worker.process.exitcode,
                        ),
                    )
                continue
            if now - worker.last_progress_t > hang_timeout:
                self._kill(
                    index, WorkerHang(worker.task.describe(), hang_timeout)
                )

    def _kill(self, shard_index: int, cause: BaseException) -> None:
        worker = self.live[shard_index]
        worker.process.kill()
        worker.process.join(timeout=5.0)
        self._fail(shard_index, cause)

    def _fail(self, shard_index: int, cause: BaseException) -> None:
        worker = self.live.pop(shard_index)
        self.failures[shard_index] = (worker.task, cause)


def run_supervised(
    tasks: list[Any],
    jobs: int,
    policy: SupervisionPolicy,
    worker_fn: Callable[..., Any],
    on_outcome: Callable[[Any], None],
) -> list[tuple[Any, BaseException]]:
    """Run every task on supervised workers; returns the failures.

    ``worker_fn(task, heartbeat=...)`` runs in a forked child and must
    return a picklable outcome; ``on_outcome`` fires in the parent as
    each outcome lands (the engine banks and journals there — an
    exception it raises kills the remaining workers and propagates).
    Failures come back as ``(task, cause)`` pairs sorted by shard
    index, for the tasks whose outcome never landed.  Raises
    :class:`~repro.errors.PoolUnavailable` only when no worker could
    ever be spawned.
    """
    supervisor = _Supervisor(
        jobs=max(1, jobs),
        policy=policy,
        worker_fn=worker_fn,
        on_outcome=on_outcome,
    )
    return supervisor.run(tasks)
