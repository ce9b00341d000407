"""Deterministic parallel dispatch of a :class:`~repro.exec.plan.ShardPlan`.

:func:`execute` shards a plan's work units over a supervised pool of
worker processes (:mod:`repro.exec.supervise`) and merges the results
back **in unit order**, so ``jobs=N`` is byte-identical to ``jobs=1``
for every experiment (the jobs-equivalence tests assert this).  The
engine adds:

* **per-shard timeout** — a shard that exceeds ``timeout_s`` is
  SIGKILLed on the pool and re-attempted;
* **heartbeat hang detection** — a worker that completes no unit
  within the supervision policy's ``hang_timeout_s`` is killed and
  re-attempted, instead of stalling the campaign forever;
* **crash containment** — one worker dying (``kill -9``, OOM) costs
  only its own shard; the survivors keep running;
* **bounded retry** — a failed, timed-out, hung, or crashed shard is
  re-run serially in the parent (where a deterministic unit cannot
  fail differently twice for transient reasons); each round records a
  *simulated* exponential backoff (``exec.backoff_s`` — nothing
  sleeps), and after ``retries`` re-attempts the shard raises
  :class:`~repro.errors.ShardError` — or, under a quarantine-enabled
  supervision policy, degrades to per-unit quarantine records so the
  campaign completes with a structured partial result;
* **typed failure taxonomy** — every survived failure is classified
  (:func:`repro.errors.failure_class`) and counted under
  ``exec.failures{failure_class=...}``;
* **graceful serial fallback** — if no worker can be spawned at all,
  the plan runs serially in-process and the run still completes (an
  ``exec.fallback`` trace event records the downgrade);
* **per-shard observability** — each worker traces an ``exec.shard``
  span and collects its own metrics registry; the parent adopts the
  span records and merges the metric dumps, so a sharded run still
  produces one schema-versioned run manifest.

Workers quarantine the observability state they inherit across the
process fork (:meth:`~repro.obs.Observability.quarantine_fork`), so a
parent's open trace file is never written from a child.
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
from ..obs.timing import observe_rate, wall_clock
from . import runtime, supervise
from .journal import CheckpointJournal, UnitRecord, plan_fingerprint
from .plan import ShardPlan, WorkUnit
from .runtime import SupervisionPolicy


@dataclass
class _ShardTask:
    """What ships to a worker: one shard of units plus capture intent.

    ``per_unit`` switches the worker to checkpoint-grade capture: one
    metrics dump and span batch *per unit* (instead of per shard), so
    the parent can journal each unit independently.
    """

    shard_index: int
    units: tuple[WorkUnit, ...]
    capture: bool
    per_unit: bool = False

    def describe(self) -> str:
        """Label for errors/events: the shard and its unit labels."""
        inner = ", ".join(unit.describe() for unit in self.units)
        return f"shard[{self.shard_index}]({inner})"


@dataclass
class _ShardOutcome:
    """What a worker ships back: indexed results plus observability."""

    shard_index: int
    results: list[tuple[int, Any]]
    wall_s: float
    metrics: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = field(default_factory=list)
    unit_records: list[UnitRecord] | None = None


def _capture_unit(unit: WorkUnit, capture: bool) -> UnitRecord:
    """Run one unit with its own metrics registry and tracer.

    Used by every checkpoint-mode path — the serial loop, the pool
    workers, and serial re-attempts — so a unit's captured
    observability is identical however it was dispatched
    (:func:`repro.exec.runtime.captured`).
    """
    start = wall_clock()
    if not capture:
        return UnitRecord(index=unit.index, result=runtime.run_unit(unit),
                          wall_s=wall_clock() - start)
    with runtime.captured() as observed:
        result = runtime.run_unit(unit)
    return UnitRecord(
        index=unit.index,
        result=result,
        metrics=observed.metrics,
        spans=observed.spans,
        wall_s=wall_clock() - start,
    )


def _shard_worker(
    task: _ShardTask, heartbeat: Callable[[], None] | None = None
) -> _ShardOutcome:
    """Run one shard in a worker process (also used for serial retry).

    Module-level so the pool can pickle it by reference.  ``heartbeat``
    is the supervisor's per-unit progress tick — called after every
    completed unit so the parent can tell a busy worker from a hung
    one; serial callers leave it unset.
    """
    OBS.quarantine_fork()
    tick = heartbeat if heartbeat is not None else (lambda: None)
    if task.per_unit:
        start = wall_clock()
        records = []
        for unit in task.units:
            records.append(_capture_unit(unit, task.capture))
            tick()
        outcome = _ShardOutcome(
            shard_index=task.shard_index,
            results=[(record.index, record.result) for record in records],
            wall_s=wall_clock() - start,
            unit_records=records,
        )
        OBS.quarantine_fork()
        return outcome
    if task.capture:
        OBS.configure()
    start = wall_clock()
    results: list[tuple[int, Any]] = []
    with OBS.span(
        "exec.shard", shard=task.shard_index, units=len(task.units)
    ) as span:
        span.set_attribute(
            "labels", [unit.describe() for unit in task.units]
        )
        for unit in task.units:
            results.append((unit.index, runtime.run_unit(unit)))
            tick()
    outcome = _ShardOutcome(
        shard_index=task.shard_index,
        results=results,
        wall_s=wall_clock() - start,
        metrics=OBS.metrics.dump() if task.capture else None,
        spans=[s.to_record() for s in OBS.tracer.finished]
        if task.capture
        else [],
    )
    OBS.quarantine_fork()
    return outcome


def execute(
    plan: ShardPlan,
    jobs: int = 1,
    *,
    timeout_s: float | None = None,
    retries: int = 1,
    chunk_size: int | None = None,
) -> list[Any]:
    """Run every unit of ``plan``; returns results in unit order.

    ``jobs=1`` runs serially in-process with no pool at all;
    ``jobs>1`` dispatches chunked shards to supervised worker
    processes.  Both paths return the same bytes.  ``timeout_s``
    bounds each shard's time on the pool (serial re-attempts are not
    timed — the parent cannot interrupt itself); ``retries`` bounds
    re-attempts per shard before :class:`~repro.errors.ShardError` is
    raised — or, when the installed
    :class:`~repro.exec.runtime.SupervisionPolicy` enables
    ``quarantine``, before the failing units are quarantined (result
    ``None`` plus an incident in the runtime ledger) and the campaign
    completes partially.

    When a checkpoint policy is installed
    (:mod:`repro.exec.runtime`), the call journals every completed
    unit to an append-only file and, on resume, runs only the units
    the journal is missing — with a final metrics state identical to
    an uninterrupted run.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ExecError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ExecError(f"retries must be >= 0, got {retries}")
    if not len(plan):
        return []
    capture = OBS.enabled
    policy = runtime.checkpoint_policy()
    supervision = runtime.supervision_policy()
    with OBS.span("exec.run", jobs=jobs, units=len(plan)):
        if capture:
            OBS.counter_inc("exec.units", len(plan))
            OBS.gauge_set("exec.jobs", jobs)
        # Profiling hook: the engine's end-to-end dispatch throughput
        # (units/s).  Lands under the "perf." prefix, which manifest
        # fingerprints strip, so jobs-equivalence is untouched.  The
        # disabled path reads no clock at all.
        start = wall_clock() if capture else 0.0
        try:
            if policy is not None:
                return _run_checkpointed(
                    plan,
                    jobs,
                    timeout_s=timeout_s,
                    retries=retries,
                    chunk_size=chunk_size,
                    journal_path=runtime.claim_journal_path(),
                    resume=policy.resume,
                    capture=capture,
                    supervision=supervision,
                )
            if jobs == 1 or len(plan) == 1:
                return _run_serial(
                    plan.units, retries=retries, supervision=supervision
                )
            shards = plan.shards(jobs, chunk_size)
            tasks = [
                _ShardTask(shard_index=i, units=shard, capture=capture)
                for i, shard in enumerate(shards)
            ]
            if capture:
                OBS.counter_inc("exec.shards", len(tasks))
            try:
                outcomes, failures = supervise.run_supervised(
                    tasks,
                    jobs=min(jobs, len(tasks)),
                    timeout_s=timeout_s,
                    policy=supervision,
                    worker_fn=_shard_worker,
                )
            except PoolUnavailable as error:
                # No pool at all: run everything serially in-process.
                # The downgrade itself is not a shard failure, so it
                # does not count against the retry budget.
                _note_fallback(error)
                return _run_serial(
                    plan.units, retries=retries, supervision=supervision
                )
            _note_failures(failures, timeout_s)
            for task, cause in failures:
                outcomes[task.shard_index] = _reattempt(
                    task, retries, cause, supervision
                )
            _merge_observability(outcomes, capture)
            return _merge_results(plan, outcomes)
        finally:
            if capture:
                observe_rate("exec.units", len(plan), wall_clock() - start)


# ----------------------------------------------------------------------
# Checkpointed path (a runtime checkpoint policy is installed)
# ----------------------------------------------------------------------


def _run_checkpointed(
    plan: ShardPlan,
    jobs: int,
    *,
    timeout_s: float | None,
    retries: int,
    chunk_size: int | None,
    journal_path: str,
    resume: bool,
    capture: bool,
    supervision: SupervisionPolicy,
) -> list[Any]:
    """Execute with an append-only unit journal and optional resume.

    Every path (serial, pool, serial re-attempt) captures metrics and
    spans *per unit* via :func:`_capture_unit` and merges them back in
    unit-index order — so an interrupted-then-resumed campaign folds
    resumed and freshly-run units into exactly the metrics state an
    uninterrupted run produces, whatever ``jobs`` was either time.

    A journal *write* failure (ENOSPC, I/O error) does not abort the
    campaign: the journal degrades to an in-memory bank, the run
    completes, and the degradation lands in the runtime incident
    ledger so the CLI can exit with its documented degraded code.  A
    :class:`~repro.errors.SimulatedFailure` (chaos hard-crash) is
    treated exactly like SIGINT: the journal is closed and
    :class:`~repro.errors.CampaignInterrupted` points at ``--resume``.
    """
    journal = CheckpointJournal(journal_path, plan_fingerprint(plan), len(plan))
    done = journal.load_resume() if resume else {}
    # Units always journal their captured metrics/spans — even when the
    # parent runs unobserved — so a later *observed* resume can still
    # merge the banked units into a complete manifest.
    capture_units = True
    journal.start(fresh=not resume or not done)
    if capture and done:
        OBS.counter_inc("exec.resumed_units", len(done))
        OBS.event(
            "exec.resume",
            journal=journal_path,
            resumed=len(done),
            total=len(plan),
        )
    records: dict[int, UnitRecord] = dict(done)
    remaining = [unit for unit in plan.units if unit.index not in records]

    def complete(record: UnitRecord) -> None:
        try:
            journal.append(record)
        except JournalWriteError as error:
            journal.degrade(error)
            runtime.note_incident(
                runtime.Incident(
                    kind="journal-degraded",
                    failure_class=error.failure_class,
                    detail={
                        "journal": journal_path,
                        "failure_class": error.failure_class,
                        "error": str(error),
                    },
                )
            )
            if capture:
                OBS.counter_inc(
                    "exec.journal_failures",
                    failure_class=error.failure_class,
                )
                OBS.event(
                    "exec.journal-degraded",
                    journal=journal_path,
                    failure_class=error.failure_class,
                )
        records[record.index] = record

    try:
        if jobs == 1 or len(remaining) <= 1:
            for unit in remaining:
                complete(
                    _attempt_unit(unit, capture_units, retries, supervision)
                )
        elif remaining:
            _dispatch_checkpointed(
                remaining, plan, jobs, timeout_s, retries, chunk_size,
                capture_units, complete, supervision,
            )
    except (KeyboardInterrupt, SimulatedFailure) as error:
        journal.close()
        raise CampaignInterrupted(
            journal_path, len(records), len(plan)
        ) from error
    finally:
        journal.close()
    if capture:
        OBS.counter_inc("exec.checkpointed_units", journal.units_written)
        OBS.gauge_set("exec.journal_bytes", journal.bytes_written)
    missing = [u.describe() for u in plan.units if u.index not in records]
    if missing:
        raise ExecError(
            f"journal outcomes missing {len(missing)} unit(s): "
            + ", ".join(missing)
        )
    if capture:
        for index in sorted(records):
            record = records[index]
            OBS.histogram_record("exec.shard_wall_s", record.wall_s)
            if record.metrics is not None:
                OBS.metrics.merge(record.metrics)
            for span_record in record.spans:
                OBS.tracer.adopt_record(span_record)
    # Quarantined units surface from the *records* (not at quarantine
    # time) so a resume that banked a quarantine record re-reports it.
    for index in sorted(records):
        if records[index].failure is not None:
            _note_quarantine(records[index].failure)
    return [records[index].result for index in range(len(plan))]


def _attempt_unit(
    unit: WorkUnit,
    capture: bool,
    retries: int,
    supervision: SupervisionPolicy,
) -> UnitRecord:
    """Checkpoint-mode serial unit execution with bounded retries.

    Mirrors the pool path's contract: every failure is classified,
    each re-attempt round records its simulated backoff, and retry
    exhaustion either raises :class:`~repro.errors.ShardError` or —
    under a quarantine policy — returns a quarantine record so the
    campaign completes partially.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return _capture_unit(unit, capture)
        except Exception as error:
            _note_failures([(unit, error)], None)
            if attempts > retries:
                if supervision.quarantine:
                    return _quarantine_record(unit, error)
                raise ShardError(
                    unit.describe(), attempts, repr(error)
                ) from error
            _note_retry(unit.describe(), attempts, supervision)


def _dispatch_checkpointed(
    remaining: Sequence[WorkUnit],
    plan: ShardPlan,
    jobs: int,
    timeout_s: float | None,
    retries: int,
    chunk_size: int | None,
    capture: bool,
    complete: "Callable[[UnitRecord], None]",
    supervision: SupervisionPolicy,
) -> None:
    """Pool-dispatch the remaining units with per-unit journalling.

    Each shard's unit records are journalled the moment its outcome
    lands, so progress survives a crash at any point of the campaign.
    Failed shards fall back to captured serial re-attempts, like the
    non-checkpointed engine.
    """
    size = plan.chunk_size(jobs, chunk_size)
    shards = [
        tuple(remaining[start : start + size])
        for start in range(0, len(remaining), size)
    ]
    tasks = [
        _ShardTask(shard_index=i, units=shard, capture=capture, per_unit=True)
        for i, shard in enumerate(shards)
    ]
    if OBS.enabled:
        OBS.counter_inc("exec.shards", len(tasks))

    def on_outcome(outcome: _ShardOutcome) -> None:
        for record in outcome.unit_records or []:
            complete(record)

    try:
        _, failures = supervise.run_supervised(
            tasks,
            jobs=min(jobs, len(tasks)),
            timeout_s=timeout_s,
            policy=supervision,
            worker_fn=_shard_worker,
            on_outcome=on_outcome,
        )
    except PoolUnavailable as error:
        _note_fallback(error)
        for shard in shards:
            for unit in shard:
                complete(_attempt_unit(unit, capture, retries, supervision))
        return
    _note_failures(failures, timeout_s)
    for task, cause in failures:
        for record in _reattempt_captured(task, retries, cause, supervision):
            complete(record)


def _reattempt_captured(
    task: _ShardTask,
    retries: int,
    cause: BaseException,
    supervision: SupervisionPolicy,
) -> list[UnitRecord]:
    """Checkpoint-mode serial re-attempt: per-unit captured records."""
    attempts = 1  # the pool attempt
    while attempts <= retries:
        _note_retry(task.describe(), attempts, supervision)
        attempts += 1
        try:
            return [_capture_unit(unit, task.capture) for unit in task.units]
        except Exception as error:
            cause = error
            _note_failures([(task, error)], None)
    if supervision.quarantine:
        records = []
        for unit in task.units:
            try:
                records.append(_capture_unit(unit, task.capture))
            except Exception as error:
                _note_failures([(unit, error)], None)
                records.append(_quarantine_record(unit, error))
        return records
    raise ShardError(task.describe(), attempts, repr(cause)) from cause


# ----------------------------------------------------------------------
# Serial path (jobs=1 and the pool-unavailable fallback)
# ----------------------------------------------------------------------


def _run_serial(
    units: Sequence[WorkUnit],
    retries: int = 0,
    supervision: SupervisionPolicy | None = None,
) -> list[Any]:
    """Run units in order in the current process.

    Metrics and spans land directly in the parent registry, so no
    merge step is needed.  Failures follow the pool contract: each
    failing unit is classified and re-attempted up to ``retries``
    times with the same ``exec.retries`` counter and ``exec.retry``
    events the pool path emits, then raises
    :class:`~repro.errors.ShardError` — or quarantines the unit under
    a quarantine policy — so a ``jobs=1`` run and a ``jobs=N`` run
    produce the same results for the same flaky plan.
    """
    if supervision is None:
        supervision = runtime.supervision_policy()
    results: dict[int, Any] = {}
    for unit in units:
        attempts = 0
        while True:
            attempts += 1
            try:
                results[unit.index] = runtime.run_unit(unit)
                break
            except Exception as error:
                _note_failures([(unit, error)], None)
                if attempts > retries:
                    if supervision.quarantine:
                        results[unit.index] = None
                        _note_quarantine(
                            _quarantine_record(unit, error).failure
                        )
                        break
                    raise ShardError(
                        unit.describe(), attempts, repr(error)
                    ) from error
                _note_retry(unit.describe(), attempts, supervision)
    return [results[index] for index in range(len(units))]


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
    additionally keep their dedicated counters and trace events so
    existing dashboards stay meaningful.
    """
    if not OBS.enabled:
        return
    for task, cause in failures:
        OBS.counter_inc("exec.failures", failure_class=failure_class(cause))
        if isinstance(cause, TimeoutError):
            OBS.counter_inc("exec.timeouts")
            OBS.event(
                "exec.timeout", shard=task.describe(), timeout_s=timeout_s
            )
        elif isinstance(cause, WorkerHang):
            OBS.counter_inc("exec.hangs")
            OBS.event("exec.hang", shard=task.describe())
        elif isinstance(cause, WorkerCrash):
            OBS.counter_inc("exec.crashes")
            OBS.event(
                "exec.crash",
                shard=task.describe(),
                exitcode=cause.exitcode,
            )


def _note_retry(
    label: str, failures_so_far: int, supervision: SupervisionPolicy
) -> None:
    """Record one re-attempt round and its *simulated* backoff.

    The backoff value comes from the resilience layer's bounded
    exponential schedule — it is recorded (``exec.backoff_s``), never
    slept, so retry pacing is byte-reproducible and free.
    """
    if not OBS.enabled:
        return
    backoff = supervision.backoff.backoff_s(failures_so_far)
    OBS.counter_inc("exec.retries")
    OBS.histogram_record("exec.backoff_s", backoff)
    OBS.event(
        "exec.retry",
        shard=label,
        attempt=failures_so_far + 1,
        backoff_s=backoff,
    )


def _quarantine_record(unit: WorkUnit, cause: BaseException) -> UnitRecord:
    """The structured partial-result record for one poisoned unit.

    Deliberately free of attempt counts and timings so the record —
    and the manifest partial section built from it — is identical
    whether the unit was quarantined serially, on the pool, or on a
    resumed run.
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


def _reattempt(
    task: _ShardTask,
    retries: int,
    cause: BaseException,
    supervision: SupervisionPolicy,
) -> _ShardOutcome:
    """Re-run a failed shard serially, up to ``retries`` more times."""
    attempts = 1  # the pool attempt
    while attempts <= retries:
        _note_retry(task.describe(), attempts, supervision)
        attempts += 1
        try:
            # Serial re-attempt in the parent: metrics/spans land
            # directly in the live registry, so strip capture.
            start = wall_clock()
            results = [
                (unit.index, runtime.run_unit(unit)) for unit in task.units
            ]
            return _ShardOutcome(
                shard_index=task.shard_index,
                results=results,
                wall_s=wall_clock() - start,
            )
        except Exception as error:
            cause = error
            _note_failures([(task, error)], None)
    if supervision.quarantine:
        start = wall_clock()
        results = []
        for unit in task.units:
            try:
                results.append((unit.index, runtime.run_unit(unit)))
            except Exception as error:
                _note_failures([(unit, error)], None)
                results.append((unit.index, None))
                _note_quarantine(_quarantine_record(unit, error).failure)
        return _ShardOutcome(
            shard_index=task.shard_index,
            results=results,
            wall_s=wall_clock() - start,
        )
    raise ShardError(task.describe(), attempts, repr(cause)) from cause


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------


def _merge_observability(
    outcomes: dict[int, _ShardOutcome], capture: bool
) -> None:
    """Fold worker-side metrics and spans into the parent registry.

    Outcomes merge in shard order (= unit order), so last-write-wins
    gauges resolve exactly as a serial run would.
    """
    if not capture:
        return
    for shard_index in sorted(outcomes):
        outcome = outcomes[shard_index]
        OBS.histogram_record("exec.shard_wall_s", outcome.wall_s)
        if outcome.metrics is not None:
            OBS.metrics.merge(outcome.metrics)
        for record in outcome.spans:
            OBS.tracer.adopt_record(record)


def _merge_results(
    plan: ShardPlan, outcomes: dict[int, _ShardOutcome]
) -> list[Any]:
    """Reassemble per-unit results into plan order."""
    by_unit: dict[int, Any] = {}
    for outcome in outcomes.values():
        for unit_index, value in outcome.results:
            by_unit[unit_index] = value
    missing = [u.describe() for u in plan.units if u.index not in by_unit]
    if missing:
        raise ExecError(
            f"shard outcomes missing {len(missing)} unit(s): "
            + ", ".join(missing)
        )
    return [by_unit[index] for index in range(len(plan))]
