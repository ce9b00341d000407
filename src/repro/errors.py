"""Exception hierarchy for the Volt Boot reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
The taxonomy mirrors the layers of the system: circuit/electrical faults,
power-network faults, SoC/architectural access violations, CPU execution
faults, and attack-orchestration failures.
"""

from __future__ import annotations

import errno as _errno


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CircuitError(ReproError):
    """Electrical-layer failure (invalid voltage, probe misuse, ...)."""


class PowerError(ReproError):
    """Power-network failure (unknown rail, illegal gating transition)."""


class ProbeError(CircuitError):
    """A voltage probe was attached or operated incorrectly."""


class AccessViolation(ReproError):
    """An architectural access was rejected (privilege, TrustZone, ...)."""


class SecureAccessViolation(AccessViolation):
    """A non-secure agent touched TrustZone-protected state."""


class PrivilegeViolation(AccessViolation):
    """An operation demanded a higher exception level than the caller's."""


class MemoryMapError(ReproError):
    """An address fell outside every mapped region, or regions collided."""


class CpuFault(ReproError):
    """The simulated CPU hit an unrecoverable execution fault."""


class AssemblerError(CpuFault):
    """The mini-assembler rejected a source program."""


class BootError(ReproError):
    """The simulated boot flow could not complete (auth failure, no media)."""


class AuthenticatedBootError(BootError):
    """Alternate-media boot was refused by an authenticated-boot fuse."""


class AttackError(ReproError):
    """An attack step could not be carried out on the target board."""


class CalibrationError(ReproError):
    """A physics model was configured with non-physical parameters."""


class ObservabilityError(ReproError):
    """The observability plumbing was misused (e.g. a counter decrement)."""


class ExecError(ReproError):
    """The parallel execution engine was misused or misconfigured."""


class ShardError(ExecError):
    """A shard of work units kept failing after its bounded retries.

    Carries the shard's label and the attempt count so a campaign
    driver can report exactly which grid points were lost.
    """

    def __init__(self, label: str, attempts: int, cause: str) -> None:
        super().__init__(
            f"shard {label!r} failed after {attempts} attempt(s): {cause}"
        )
        self.label = label
        self.attempts = attempts
        self.cause = cause


class AnalysisError(ReproError):
    """An analysis helper was fed data it cannot process (empty or
    ragged grids, images too small for the requested geometry, ...)."""


class ResilienceError(ReproError):
    """The resilient attack driver or its voters were misused.

    Raised for *programming* errors only (empty read sets, mismatched
    read lengths, invalid policies); attack-level failures degrade into
    a partial :class:`~repro.resilience.driver.RecoveryReport` instead.
    """


class CheckpointError(ExecError):
    """A shard journal could not be opened, parsed, or matched.

    Covers corrupted headers, plan fingerprints that do not match the
    journal being resumed, and attempts to start a fresh run on top of
    an existing journal without ``--resume``.
    """


#: The supervised runtime's failure taxonomy (docs/robustness.md).
#: Every failure the engine survives — or degrades under — maps to
#: exactly one of these classes, and the ``exec.failures`` counter is
#: labelled with it, so chaos runs can assert that an injected fault
#: was classified, not merely survived.
FAILURE_CLASSES = (
    "poison",          # a work unit raised deterministically
    "timeout",         # a shard exceeded its per-shard timeout budget
    "hang",            # a worker stopped making heartbeat progress
    "crash",           # a worker died without shipping an outcome
    "pool-loss",       # worker processes could not be (re)spawned
    "journal-enospc",  # journal append failed with ENOSPC
    "journal-io",      # journal append failed on write/flush/fsync
    "journal-torn",    # a journal record was torn mid-write
    "interrupt",       # the campaign was interrupted (SIGINT / chaos)
)


class WorkerHang(ExecError):
    """A supervised shard worker stopped making heartbeat progress.

    The supervisor SIGKILLs the worker and hands the shard back for an
    in-process re-attempt; this exception is the recorded *cause*.  The
    message is deliberately free of wall-clock readings so it can be
    journalled and compared byte-for-byte across runs.
    """

    def __init__(self, shard: str, hang_timeout_s: float) -> None:
        super().__init__(
            f"shard {shard!r} made no heartbeat progress within its "
            f"{hang_timeout_s:g}s hang timeout and was killed"
        )
        self.shard = shard
        self.hang_timeout_s = hang_timeout_s


class WorkerCrash(ExecError):
    """A supervised shard worker died without shipping an outcome.

    Covers ``kill -9``, OOM kills, and hard interpreter crashes; the
    supervisor detects the dead process, drains any result that raced
    the death, and hands the shard back for an in-process re-attempt.
    """

    def __init__(self, shard: str, exitcode: int | None) -> None:
        super().__init__(
            f"shard {shard!r} worker died with exit code {exitcode} "
            f"before shipping its outcome"
        )
        self.shard = shard
        self.exitcode = exitcode


class PoolUnavailable(ExecError):
    """No worker process could be spawned at all.

    Raised by the supervised pool when the *first* spawn fails — the
    engine downgrades the whole plan to the serial in-process path
    (``exec.fallbacks``) without charging anyone's retry budget.
    """


class JournalWriteError(CheckpointError):
    """A journal append failed at the OS layer.

    Classified by errno into the failure taxonomy: ``journal-enospc``
    for disk exhaustion, ``journal-io`` for everything else (fsync
    errors, I/O errors).  The engine degrades the journal to an
    in-memory bank and completes the run; the degradation is surfaced
    through the CLI's ``EXIT_DEGRADED`` exit-code contract.
    """

    def __init__(self, path: str, cause: OSError) -> None:
        self.failure_class = (
            "journal-enospc"
            if cause.errno == _errno.ENOSPC
            else "journal-io"
        )
        super().__init__(
            f"{path}: journal write failed ({self.failure_class}): {cause}"
        )
        self.path = path
        self.errno = cause.errno


class SimulatedFailure(BaseException):
    """A chaos-injected *hard* failure (simulated crash or power loss).

    Deliberately derived from :class:`BaseException`, not
    :class:`ReproError`: the engine's bounded-retry handlers catch
    ``Exception``, and a simulated ``kill -9`` must sail straight
    through them exactly as a real one would — only the engine's
    interrupt handler (which banks the journal) may intercept it.
    """


class ChaosError(ReproError):
    """The chaos harness was misconfigured or its invariant check
    could not be carried out (bad fault spec, unknown target, a
    faulted campaign that never converged)."""


def failure_class(error: BaseException) -> str:
    """Map an exception to its :data:`FAILURE_CLASSES` entry.

    The single classification point: the engine labels its
    ``exec.failures`` counter with this, quarantine records carry it,
    and the chaos matrix asserts on it.
    """
    if isinstance(error, WorkerHang):
        return "hang"
    if isinstance(error, WorkerCrash):
        return "crash"
    if isinstance(error, PoolUnavailable):
        return "pool-loss"
    if isinstance(error, JournalWriteError):
        return error.failure_class
    if isinstance(error, TimeoutError):
        return "timeout"
    if isinstance(error, (KeyboardInterrupt, CampaignInterrupted)):
        return "interrupt"
    if isinstance(error, SimulatedFailure):
        simulated = getattr(error, "failure_class", None)
        return simulated if simulated in FAILURE_CLASSES else "crash"
    return "poison"


class CampaignInterrupted(ExecError):
    """A checkpointed run was interrupted before all shards completed.

    Raised on SIGINT (KeyboardInterrupt) by the execution engine after
    the shard journal has been flushed, so the CLI can exit with the
    documented ``EXIT_INTERRUPTED`` code and point at ``--resume``.
    Carries the journal path and progress so the message can say
    exactly how much work is banked.
    """

    def __init__(self, journal_path: str, done: int, total: int) -> None:
        super().__init__(
            f"interrupted with {done}/{total} unit(s) checkpointed "
            f"at {journal_path}"
        )
        self.journal_path = journal_path
        self.done = done
        self.total = total


class GlitchError(ReproError):
    """The fault-injection subsystem was misconfigured or misused."""


class BrownOutReset(GlitchError):
    """A brown-out detector tripped and reset the target mid-attempt.

    Raised by the injector as soon as execution time crosses the
    detector's trip point, so campaign drivers can classify the attempt
    as ``reset`` (the countermeasure won) rather than a crash.
    """

    def __init__(self, trip_time_s: float) -> None:
        super().__init__(
            f"brown-out detector reset the core at t={trip_time_s:.3e}s"
        )
        self.trip_time_s = trip_time_s


class PerfError(ReproError):
    """Performance tooling failure (a missing, empty or malformed exec
    checkpoint journal handed to ``repro progress``, ...)."""


class LintError(ReproError):
    """``repro-lint`` could not run (unreadable input, bad rule id, ...)."""


class LintConfigError(LintError):
    """The ``[tool.repro-lint]`` configuration is malformed."""
