"""The seeded fault injector and its simulated-failure exceptions.

A :class:`ChaosInjector` plugs into the two runtime hooks the exec
layer exposes (:func:`repro.exec.runtime.run_unit` and the checkpoint
journal's write path) — the engine never imports this package.  Fault
*state* is marker files under a work directory, not process memory:

* a fault's firing budget is one marker file per allowed firing,
  claimed atomically with ``open(path, "x")`` — so a fault fires
  exactly ``times`` times even though the injector object is copied
  into every forked worker **and** re-created by a resumed process;
* the injector records the constructing (parent) process id, so a
  ``kill`` fault can distinguish a forked worker (really SIGKILL
  itself, exercising the supervisor's crash detection) from the
  serial parent (raise :class:`ChaosKill`, exercising the engine's
  interrupt/resume contract).

Hard-crash simulations (:class:`ChaosKill`, :class:`ChaosHang`,
:class:`ChaosTornWrite`) derive from
:class:`~repro.errors.SimulatedFailure` (a ``BaseException``) so they
sail through the engine's ``except Exception`` retry handlers exactly
like a real ``kill -9``; :class:`ChaosPoison` is an ordinary
:class:`~repro.errors.ReproError` so the bounded-retry/quarantine
machinery handles it like any deterministic unit failure.
"""

from __future__ import annotations

import errno as _errno
import os
import signal
import threading
from typing import Any

from ..errors import ChaosError, ReproError, SimulatedFailure
from ..obs import OBS
from .spec import FaultSpec

#: How long a "hang" fault stalls a worker.  Far beyond any sane
#: ``hang_timeout_s`` — the supervisor's SIGKILL always wins.
HANG_STALL_S = 3600.0


class ChaosKill(SimulatedFailure):
    """Simulated ``kill -9`` landing in serial (parent) context."""

    failure_class = "crash"


class ChaosHang(SimulatedFailure):
    """Simulated hang landing in serial (parent) context.

    A real parent cannot supervise itself out of a hang, so serially
    the fault degrades to an immediate simulated crash-with-class —
    the checkpointed engine banks the journal and the run resumes.
    """

    failure_class = "hang"


class ChaosTornWrite(SimulatedFailure):
    """A journal record was torn mid-write (simulated power loss)."""

    failure_class = "journal-torn"


class ChaosPoison(ReproError):
    """A deterministically failing work unit (ordinary exception)."""


class FaultingFile:
    """File proxy whose fsync path raises ``OSError`` (EIO).

    Wraps the journal's append handle so the write and flush succeed
    but ``fileno()`` — called only by the journal's ``os.fsync`` step
    — raises, modelling a disk that accepts data and then fails to
    make it durable.
    """

    def __init__(self, handle: Any) -> None:
        self._handle = handle

    def write(self, data: bytes) -> int:
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        raise OSError(_errno.EIO, "chaos: simulated fsync failure")

    def truncate(self, size: int) -> int:
        return self._handle.truncate(size)

    def seek(self, offset: int, whence: int = 0) -> int:
        return self._handle.seek(offset, whence)

    def close(self) -> None:
        self._handle.close()


class ChaosInjector:
    """Fires :class:`~repro.chaos.spec.FaultSpec`\\ s at the
    runtime hook points, with marker-file one-shot state.

    Duck-typed to the :mod:`repro.exec.runtime` injector protocol:
    ``on_unit(unit)`` before every work-unit execution and
    ``on_journal_write(journal, line)`` before every journal line.
    An injector with no faults is a cheap no-op —
    ``tools/supervision_overhead.py`` holds it on the dispatch path.
    """

    def __init__(self, faults: tuple[FaultSpec, ...], state_dir: str) -> None:
        self.faults = tuple(faults)
        self.state_dir = state_dir
        self.parent_pid = os.getpid()
        if self.faults:
            os.makedirs(state_dir, exist_ok=True)

    # -- hook points -----------------------------------------------------

    def on_unit(self, unit: Any) -> None:
        """Runtime hook: fires unit-targeted faults for this index."""
        for fault in self.faults:
            if fault.target != "unit" or fault.index != unit.index:
                continue
            if self._claim(fault):
                self._fire_unit(fault, unit)

    def on_journal_write(self, journal: Any, line: bytes) -> None:
        """Journal hook: fires record-targeted faults for this append.

        The record ordinal is the journal's count of already-written
        unit records; the header write (nothing written yet) never
        matches, so ``record=0`` is the first *unit* record.
        """
        if journal.bytes_written == 0:
            return
        for fault in self.faults:
            if fault.target != "record" or fault.index != journal.units_written:
                continue
            if self._claim(fault):
                self._fire_record(fault, journal, line)

    # -- firing ----------------------------------------------------------

    def _fire_unit(self, fault: FaultSpec, unit: Any) -> None:
        self._note(fault)
        if fault.kind == "slow":
            threading.Event().wait(fault.param or 0.05)
            return
        if fault.kind == "poison":
            raise ChaosPoison(
                f"chaos: poisoned unit {unit.index} ({unit.describe()})"
            )
        in_worker = os.getpid() != self.parent_pid
        if fault.kind == "kill":
            if in_worker:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ChaosKill(f"chaos: killed at unit {unit.index}")
        if fault.kind == "hang":
            if in_worker:
                # Stall without heartbeat progress until the
                # supervisor's hang detector SIGKILLs this process.
                threading.Event().wait(HANG_STALL_S)
                os.kill(os.getpid(), signal.SIGKILL)
            raise ChaosHang(f"chaos: hung at unit {unit.index}")
        raise ChaosError(f"unit fault {fault.kind!r} has no firing rule")

    def _fire_record(self, fault: FaultSpec, journal: Any, line: bytes) -> None:
        self._note(fault)
        if fault.kind == "enospc":
            raise OSError(_errno.ENOSPC, "chaos: no space left on device")
        if fault.kind == "fsync":
            # Swap in the proxy; the journal's write/flush succeed and
            # its fsync step raises.
            journal._handle = FaultingFile(journal._handle)
            return
        if fault.kind == "torn":
            # Simulated power loss mid-append: a prefix of the record
            # reaches the disk, then the "process" dies.  The resume
            # path must discard exactly this torn tail.
            journal._handle.write(line[: max(1, len(line) // 2)])
            journal._handle.flush()
            raise ChaosTornWrite(
                f"chaos: journal record {journal.units_written} torn "
                f"mid-write"
            )
        raise ChaosError(f"record fault {fault.kind!r} has no firing rule")

    # -- marker-file one-shot state --------------------------------------

    def _claim(self, fault: FaultSpec) -> bool:
        """Atomically claim one of the fault's ``times`` firings.

        ``open(path, "x")`` either creates the marker (the claim) or
        fails because a previous firing — possibly in another process,
        possibly before a crash/resume boundary — already owns it.
        """
        for occurrence in range(fault.times):
            marker = os.path.join(
                self.state_dir,
                f"{fault.kind}-{fault.target}{fault.index}-{occurrence}",
            )
            try:
                with open(marker, "x"):
                    return True
            except FileExistsError:
                continue
        return False

    def _note(self, fault: FaultSpec) -> None:
        if OBS.enabled:
            OBS.counter_inc("exec.chaos_faults")
            OBS.event("exec.chaos-fault", fault=fault.describe())
