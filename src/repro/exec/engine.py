"""Deterministic dispatch of a :class:`~repro.exec.plan.ShardPlan`.

:func:`execute` runs a plan's work units and returns their results
**in unit order**, so ``jobs=N`` is byte-identical to ``jobs=1`` for
every experiment (the jobs-equivalence tests assert this).  Every call
takes the same path:

1. **bank** — completed units land as
   :class:`~repro.exec.journal.UnitRecord`\\ s in one in-memory bank.
   When a checkpoint policy is installed (:mod:`repro.exec.runtime`)
   the bank is also journalled to an append-only file, and a resume
   starts from the units that file already holds;
2. **dispatch** — the missing units run through one worker function,
   :func:`_shard_worker`.  They run in-process, one unit per shard,
   when ``jobs == 1``, when at most one unit is missing, or when no
   worker can be spawned at all (an ``exec.fallback`` event records the
   downgrade).  Otherwise chunked shards run on supervised worker
   processes (:mod:`repro.exec.supervise`), which kill a shard that
   exceeds ``timeout_s`` or stops its heartbeat, and contain a crashed
   worker to its own shard;
3. **settle** — every in-process shard, and every shard the pool lost,
   goes through one bounded retry/quarantine loop in the parent.  Each
   failure is classified (:func:`repro.errors.failure_class`) and
   counted under ``exec.failures{failure_class=...}``, and each
   re-attempt under ``exec.retries``; nothing sleeps between attempts.
   After ``retries`` re-attempts the shard raises
   :class:`~repro.errors.ShardError` or, under a quarantine-enabled
   supervision policy, its units are quarantined so the campaign
   completes with a structured partial result;
4. **merge** — results, captured metrics, spans and span-less events
   fold into the parent in unit order, followed by one ``exec.shard``
   span and one ``exec.shard_wall_s`` observation per shard, so every
   dispatch produces the same schema-versioned run manifest.

A unit captures its own observability (:func:`repro.exec.runtime.
captured`) only when the parent is observed or a journal is attached,
so an unobserved run pays for no instrumentation.  Pool workers
quarantine the observability state they inherit across the fork
(:meth:`~repro.obs.Observability.quarantine_fork`), so a parent's open
trace file is never written from a child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import (
    CampaignInterrupted,
    ExecError,
    JournalWriteError,
    PoolUnavailable,
    ShardError,
    SimulatedFailure,
    WorkerCrash,
    WorkerHang,
    failure_class,
)
from ..obs import OBS
from ..obs.timing import wall_clock
from . import runtime, supervise
from .journal import CheckpointJournal, UnitRecord, plan_fingerprint
from .plan import ShardPlan, WorkUnit
from .runtime import SupervisionPolicy


@dataclass
class _ShardTask:
    """What ships to a worker: one shard of units plus capture intent."""

    shard_index: int
    units: tuple[WorkUnit, ...]
    capture: bool

    def describe(self) -> str:
        """Label for errors/events; a one-unit shard takes its unit's."""
        if len(self.units) == 1:
            return self.units[0].describe()
        inner = ", ".join(unit.describe() for unit in self.units)
        return f"shard[{self.shard_index}]({inner})"


@dataclass
class _ShardOutcome:
    """What a worker ships back: one record per unit plus wall time."""

    shard_index: int
    records: list[UnitRecord]
    wall_s: float


def _shard_worker(
    task: _ShardTask, heartbeat: Callable[[], None] | None = None
) -> _ShardOutcome:
    """Run one shard's units in order: the engine's one worker function.

    With ``task.capture`` each unit runs against its own metrics
    registry and tracer (:func:`repro.exec.runtime.captured`), so its
    record carries everything the parent needs to merge — or journal —
    it on its own.  In-process callers leave ``heartbeat`` unset; the
    supervised pool passes its per-unit progress tick, and a pool
    worker first drops the observability state it inherited across the
    fork.  Module-level so the pool can pickle it by reference.
    """
    if heartbeat is not None:
        OBS.quarantine_fork()
    shard_start = wall_clock()
    records = []
    for unit in task.units:
        if task.capture:
            with runtime.captured() as observed:
                result = runtime.run_unit(unit)
            record = UnitRecord(
                index=unit.index,
                result=result,
                metrics=observed.metrics,
                spans=observed.spans,
                events=observed.events,
            )
        else:
            record = UnitRecord(unit.index, runtime.run_unit(unit))
        records.append(record)
        if heartbeat is not None:
            heartbeat()
    return _ShardOutcome(task.shard_index, records, wall_clock() - shard_start)


def execute(
    plan: ShardPlan,
    jobs: int = 1,
    *,
    timeout_s: float | None = None,
    retries: int = 1,
    chunk_size: int | None = None,
) -> list[Any]:
    """Run every unit of ``plan``; returns results in unit order.

    ``jobs=1`` runs every unit in-process; ``jobs>1`` dispatches
    chunked shards to supervised worker processes.  Both return the
    same bytes.  ``timeout_s`` bounds each shard's time on the pool
    (in-process attempts are not timed — the parent cannot interrupt
    itself); ``retries`` bounds re-attempts per shard before
    :class:`~repro.errors.ShardError` is raised — or, when the
    installed :class:`~repro.exec.runtime.SupervisionPolicy` enables
    ``quarantine``, before the failing units are quarantined (result
    ``None`` plus an incident in the runtime ledger) and the campaign
    completes partially.

    When a checkpoint policy is installed, every completed unit is
    journalled and, on resume, only the units the journal is missing
    run — with a final metrics state identical to an uninterrupted
    run.  A journal write failure (ENOSPC, I/O error) degrades the
    journal to the in-memory bank and lands in the incident ledger.
    An interrupt (SIGINT, or a chaos :class:`~repro.errors.
    SimulatedFailure`) closes the journal and raises
    :class:`~repro.errors.CampaignInterrupted`, which points at
    ``--resume``; without a journal it propagates unchanged.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ExecError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ExecError(f"retries must be >= 0, got {retries}")
    if not len(plan):
        return []
    observed = OBS.enabled
    supervision = runtime.supervision_policy()
    with OBS.span("exec.run", jobs=jobs, units=len(plan)):
        if observed:
            OBS.counter_inc("exec.units", len(plan))
            OBS.gauge_set("exec.jobs", jobs)
        bank = _Bank.open(plan)
        capture = observed or bank.journal is not None
        remaining = [u for u in plan.units if u.index not in bank.records]
        try:
            failed = None
            if jobs > 1 and len(remaining) > 1:
                size = plan.chunk_size(jobs, chunk_size)
                chunks = [
                    tuple(remaining[at : at + size])
                    for at in range(0, len(remaining), size)
                ]
                tasks = [
                    _ShardTask(i, chunk, capture)
                    for i, chunk in enumerate(chunks)
                ]
                try:
                    failed = supervise.run_supervised(
                        tasks,
                        jobs=min(jobs, len(tasks)),
                        timeout_s=timeout_s,
                        policy=supervision,
                        worker_fn=_shard_worker,
                        on_outcome=lambda outcome: bank.land(
                            tasks[outcome.shard_index],
                            outcome.records,
                            outcome.wall_s,
                        ),
                    )
                except PoolUnavailable as error:
                    # No pool at all: everything runs in-process.
                    # The downgrade is not a shard failure, so it
                    # charges no retry budget.
                    _note_fallback(error)
            if failed is None:
                for position, unit in enumerate(remaining):
                    task = _ShardTask(position, (unit,), capture)
                    _settle(bank, task, retries, supervision)
            else:
                _note_failures(failed, timeout_s)
                for task, cause in failed:
                    _settle(bank, task, retries, supervision, 1, cause)
        except (KeyboardInterrupt, SimulatedFailure) as error:
            if bank.journal is None:
                raise
            raise CampaignInterrupted(
                bank.journal.path, len(bank.records), len(plan)
            ) from error
        finally:
            bank.close()
        return bank.merge(plan)


def _settle(
    bank: "_Bank",
    task: _ShardTask,
    retries: int,
    supervision: SupervisionPolicy,
    failures: int = 0,
    cause: BaseException | None = None,
) -> None:
    """Run ``task`` in-process until it lands in ``bank``.

    The engine's one retry/quarantine loop, for in-process shards and
    for shards the pool lost alike.  ``failures`` counts the attempts
    the shard already lost on the pool and ``cause`` is the last one's
    error.  After ``retries`` re-attempts the shard raises
    :class:`~repro.errors.ShardError`; under a quarantine policy a
    one-unit shard is quarantined instead, and a larger one is split
    so each of its units settles under a budget of its own.
    """
    start = wall_clock()
    while failures <= retries:
        if failures:
            _note_retry(task.describe(), failures)
        try:
            outcome = _shard_worker(task)
        except Exception as error:
            failures, cause = failures + 1, error
            _note_failures([(task, error)], None)
            continue
        bank.land(task, outcome.records, wall_clock() - start)
        return
    if not supervision.quarantine:
        raise ShardError(task.describe(), failures, repr(cause)) from cause
    if len(task.units) == 1:
        records = [_quarantine_record(task.units[0], cause)]
    else:
        for unit in task.units:
            single = _ShardTask(task.shard_index, (unit,), task.capture)
            _settle(bank, single, retries, supervision)
        records = []
    # Landing after the split replaces its one-unit entries, so the
    # shard is observed once, whole.
    bank.land(task, records, wall_clock() - start)


# ----------------------------------------------------------------------
# The bank (journalled when a checkpoint policy is installed)
# ----------------------------------------------------------------------


@dataclass
class _Bank:
    """One ``execute`` call's completed units and dispatched shards.

    ``journal`` is attached only when a checkpoint policy is installed;
    ``shards`` maps each shard index to its task and wall time.
    """

    records: dict[int, UnitRecord]
    journal: CheckpointJournal | None = None
    shards: dict[int, tuple[_ShardTask, float]] = field(default_factory=dict)

    @classmethod
    def open(cls, plan: ShardPlan) -> "_Bank":
        """An empty bank, or one holding the units a resume banked."""
        policy = runtime.checkpoint_policy()
        if policy is None:
            return cls(records={})
        journal = CheckpointJournal(
            runtime.claim_journal_path(), plan_fingerprint(plan), len(plan)
        )
        done = journal.load_resume() if policy.resume else {}
        journal.start(fresh=not done)
        if done and OBS.enabled:
            OBS.counter_inc("exec.resumed_units", len(done))
            OBS.event(
                "exec.resume",
                journal=journal.path,
                resumed=len(done),
                total=len(plan),
            )
        return cls(records=done, journal=journal)

    def land(
        self, task: _ShardTask, records: list[UnitRecord], wall_s: float
    ) -> None:
        """Bank a finished shard: its unit records and its wall time."""
        for record in records:
            self.complete(record)
        self.shards[task.shard_index] = (task, wall_s)

    def complete(self, record: UnitRecord) -> None:
        """Bank one unit, journalling it when a journal is attached.

        A journal write failure (ENOSPC, I/O error) degrades the
        journal to this in-memory bank: the campaign keeps going (only
        crash-resume durability is lost) and the degradation lands in
        the runtime incident ledger, so the CLI can exit with its
        documented degraded code.
        """
        journal = self.journal
        if journal is not None:
            try:
                journal.append(record)
            except JournalWriteError as error:
                journal.degrade(error)
                runtime.note_incident(
                    runtime.Incident(
                        kind="journal-degraded",
                        failure_class=error.failure_class,
                        detail={
                            "journal": journal.path,
                            "failure_class": error.failure_class,
                            "error": str(error),
                        },
                    )
                )
                if OBS.enabled:
                    OBS.counter_inc(
                        "exec.journal_failures",
                        failure_class=error.failure_class,
                    )
                    OBS.event(
                        "exec.journal-degraded",
                        journal=journal.path,
                        failure_class=error.failure_class,
                    )
        self.records[record.index] = record

    def close(self) -> None:
        """Close the journal, if one is attached (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    def merge(self, plan: ShardPlan) -> list[Any]:
        """Fold the bank into the parent in unit order; returns results.

        Gauges are last-writer-wins, so merging in unit order resolves
        them exactly as one uninterrupted in-process run would.
        Quarantined units are ledgered from the *records* (not when
        they failed), so a resume that banked a quarantine record
        re-reports it.
        """
        records = self.records
        missing = [u.describe() for u in plan.units if u.index not in records]
        if missing:
            raise ExecError(
                f"execution missed {len(missing)} unit(s): "
                + ", ".join(missing)
            )
        if OBS.enabled:
            for index in sorted(records):
                record = records[index]
                if record.metrics is not None:
                    OBS.metrics.merge(record.metrics)
                for span in record.spans:
                    OBS.tracer.adopt_record(span)
                for event in record.events:
                    OBS.event(event["name"], **event["attributes"])
            OBS.counter_inc("exec.shards", len(self.shards))
            for shard_index in sorted(self.shards):
                task, wall_s = self.shards[shard_index]
                OBS.histogram_record("exec.shard_wall_s", wall_s)
                OBS.tracer.adopt_record(
                    {
                        "name": "exec.shard",
                        "wall_s": wall_s,
                        "attributes": {
                            "shard": shard_index,
                            "units": len(task.units),
                            "labels": [u.describe() for u in task.units],
                        },
                    }
                )
            if self.journal is not None:
                OBS.counter_inc(
                    "exec.checkpointed_units", self.journal.units_written
                )
                OBS.gauge_set(
                    "exec.journal_bytes", self.journal.bytes_written
                )
        for index in sorted(records):
            if records[index].failure is not None:
                _note_quarantine(records[index].failure)
        return [records[index].result for index in range(len(plan))]


# ----------------------------------------------------------------------
# Failure accounting (the typed taxonomy's metrics surface)
# ----------------------------------------------------------------------


def _note_failures(
    failures: "Sequence[tuple[Any, BaseException]]",
    timeout_s: float | None,
) -> None:
    """Classify and count every failure the engine is about to survive.

    Each failure increments ``exec.failures`` labelled with its
    :func:`repro.errors.failure_class`; timeouts, hangs, and crashes
    also get a trace event naming the shard.
    """
    if not OBS.enabled:
        return
    for task, cause in failures:
        OBS.counter_inc("exec.failures", failure_class=failure_class(cause))
        if isinstance(cause, TimeoutError):
            OBS.event(
                "exec.timeout", shard=task.describe(), timeout_s=timeout_s
            )
        elif isinstance(cause, WorkerHang):
            OBS.event("exec.hang", shard=task.describe())
        elif isinstance(cause, WorkerCrash):
            OBS.event(
                "exec.crash",
                shard=task.describe(),
                exitcode=cause.exitcode,
            )


def _note_retry(label: str, failures_so_far: int) -> None:
    """Record one re-attempt round (counter + event)."""
    if not OBS.enabled:
        return
    OBS.counter_inc("exec.retries")
    OBS.event("exec.retry", shard=label, attempt=failures_so_far + 1)


def _quarantine_record(unit: WorkUnit, cause: BaseException) -> UnitRecord:
    """The structured partial-result record for one poisoned unit.

    Deliberately free of attempt counts and timings so the record —
    and the manifest partial section built from it — is identical
    whether the unit was quarantined in-process, after a pool attempt,
    or on a resumed run.
    """
    cls = failure_class(cause)
    return UnitRecord(
        index=unit.index,
        result=None,
        failure={
            "unit": unit.index,
            "label": unit.describe(),
            "failure_class": cls,
            "error": repr(cause),
        },
    )


def _note_quarantine(failure: dict[str, Any]) -> None:
    """Ledger one quarantined unit (incident + counter + event)."""
    runtime.note_incident(
        runtime.Incident(
            kind="quarantined-unit",
            failure_class=failure["failure_class"],
            detail=dict(failure),
        )
    )
    if OBS.enabled:
        OBS.counter_inc("exec.quarantined_units")
        OBS.event(
            "exec.quarantine",
            unit=failure["label"],
            failure_class=failure["failure_class"],
        )


def _note_fallback(error: BaseException) -> None:
    """Record the pool-unavailable downgrade in the trace/metrics."""
    if OBS.enabled:
        OBS.counter_inc("exec.fallbacks")
        OBS.event("exec.fallback", reason=repr(error))
