"""One faulted chaos run and its byte-identity invariant check.

:func:`run_chaos` runs the ``chaos-probe`` campaign
(:mod:`repro.chaos.targets`) twice: once clean (the *reference* leg,
serial and fault-free) and once with a
:class:`~repro.chaos.inject.ChaosInjector` installed under a
checkpointing + supervision policy.  The faulted leg is allowed to be
interrupted (simulated crashes bank the journal and raise
:class:`~repro.errors.CampaignInterrupted`) and is resumed — in the
same process but across a fresh observability epoch, with the
injector's marker files carrying the fault state — until it
completes.  The result records:

* whether the final run-manifest fingerprint is **byte-identical** to
  the reference leg's;
* every :data:`repro.errors.FAILURE_CLASSES` entry observed along the
  way (from ``exec.failures{...}`` / ``exec.journal_failures{...}``
  counter labels, runtime incidents, and interruption causes) — so
  callers can assert a fault was *classified*, not merely survived.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import CampaignInterrupted, ChaosError, failure_class
from ..exec import runtime
from ..obs import OBS
from ..units import milliseconds
from . import targets
from .inject import ChaosInjector
from .spec import FaultSpec

#: Bound on resume attempts before the run is declared non-convergent.
MAX_RESUMES = 8


@dataclass(frozen=True)
class ChaosRunResult:
    """Outcome of one faulted run (plus its reference comparison)."""

    reference_fingerprint: str
    final_fingerprint: str
    interruptions: int
    failure_classes: tuple[str, ...]
    incident_kinds: tuple[str, ...]

    @property
    def identical(self) -> bool:
        """Whether the faulted run ended byte-identical to the reference."""
        return self.final_fingerprint == self.reference_fingerprint


def _observed_run(seed: int, jobs: int) -> tuple[str, dict]:
    """Run one probe leg under a fresh observability epoch.

    Returns the manifest fingerprint and the final metrics snapshot.
    The caller owns policy/injector installation.  When the leg is
    interrupted, the partial metrics snapshot — which carries the
    failure classes observed before the simulated crash — is attached
    to the propagating exception as ``metrics_snapshot``.
    """
    OBS.reset()
    OBS.configure()
    try:
        try:
            targets.run(seed=seed, jobs=jobs)
        except CampaignInterrupted as error:
            error.metrics_snapshot = OBS.metrics.snapshot()
            raise
        return OBS.last_manifest.fingerprint(), OBS.metrics.snapshot()
    finally:
        OBS.reset()


def _classes_from_snapshot(snapshot: dict) -> set[str]:
    """Extract failure classes from labelled counter keys.

    The metrics registry renders labelled keys as
    ``name{failure_class=<class>}`` — the chaos harness's contract
    with the engine's typed-taxonomy accounting.
    """
    classes = set()
    for key in snapshot:
        if key.startswith(
            ("exec.failures{", "exec.journal_failures{")
        ) and "failure_class=" in key:
            value = key.split("failure_class=", 1)[1]
            classes.add(value.rstrip("}").split(",", 1)[0])
    return classes


def reference_fingerprint(seed: int) -> str:
    """The uninterrupted, fault-free, serial probe fingerprint."""
    fingerprint, _ = _observed_run(seed, 1)
    return fingerprint


def run_chaos(
    faults: tuple[FaultSpec, ...],
    seed: int,
    jobs: int,
    workdir: str,
    hang_timeout_s: float = 5.0,
    reference: str | None = None,
) -> ChaosRunResult:
    """Run the probe campaign under injected ``faults``; check invariants.

    ``workdir`` holds the leg's checkpoint journals and the injector's
    marker files; callers choose it deterministically (no ``mkdtemp``
    entropy).  Raises :class:`~repro.errors.ChaosError` if the faulted
    campaign does not converge within :data:`MAX_RESUMES` resumes.
    """
    if reference is None:
        reference = reference_fingerprint(seed)
    injector = ChaosInjector(faults, os.path.join(workdir, "faults"))
    policy = runtime.SupervisionPolicy(
        hang_timeout_s=hang_timeout_s, poll_interval_s=milliseconds(20)
    )
    checkpoint_dir = os.path.join(workdir, "ckpt")
    interruptions = 0
    classes: set[str] = set()
    incident_kinds: set[str] = set()
    final = None
    for attempt in range(MAX_RESUMES + 1):
        try:
            with runtime.checkpointing(checkpoint_dir, resume=attempt > 0):
                with runtime.supervised(policy), runtime.injected(injector):
                    final, snapshot = _observed_run(seed, jobs)
            classes |= _classes_from_snapshot(snapshot)
            break
        except CampaignInterrupted as error:
            interruptions += 1
            classes |= _classes_from_snapshot(
                getattr(error, "metrics_snapshot", {})
            )
            if error.__cause__ is not None:
                classes.add(failure_class(error.__cause__))
        finally:
            for incident in runtime.incidents():
                incident_kinds.add(incident.kind)
                classes.add(incident.failure_class)
    if final is None:
        described = ", ".join(fault.describe() for fault in faults)
        raise ChaosError(
            f"chaos run with faults {described!r} did not converge "
            f"within {MAX_RESUMES} resume(s)"
        )
    return ChaosRunResult(
        reference_fingerprint=reference,
        final_fingerprint=final,
        interruptions=interruptions,
        failure_classes=tuple(sorted(classes)),
        incident_kinds=tuple(sorted(incident_kinds)),
    )
