"""Deterministic chaos-injection harness for the supervised runtime.

The robustness counterpart of :mod:`repro.exec`: seeded fault
injectors (worker kill, hang, journal I/O failures, torn writes, slow
shards) wired into the engine's runtime hooks
(:func:`repro.exec.runtime.run_unit` and the checkpoint journal's
write path), plus a runner that checks the engine's **chaos
invariants**:

1. every injected fault lands in the typed failure taxonomy
   (:data:`repro.errors.FAILURE_CLASSES`), and
2. the faulted campaign either completes with a run-manifest
   fingerprint byte-identical to the uninterrupted reference run, or
   is interrupted and ``--resume``\\ s to one.

Faults are *one-shot by default* and their state lives in marker
files under a seeded work directory — never in process memory — so a
fault fires exactly once across process forks **and** across the
kill/resume process boundary, making every chaos run byte-reproducible
for a given ``(faults, seed)`` pair.

Entry point: :func:`run_chaos` for one faulted run of the
``chaos-probe`` campaign (:mod:`repro.chaos.targets`).  The tier-1
suite runs it over every fault class × ``--jobs`` {1, 4}
(``tests/chaos/test_matrix.py``) and kills a real ``repro experiment``
process with ``kill -9`` before resuming it
(``tests/chaos/test_kill_resume.py``).  See ``docs/robustness.md``.
"""

from __future__ import annotations

from ..errors import ChaosError
from .inject import (
    ChaosHang,
    ChaosInjector,
    ChaosKill,
    ChaosPoison,
    ChaosTornWrite,
    FaultingFile,
)
from .runner import ChaosRunResult, reference_fingerprint, run_chaos
from .spec import FAULT_KINDS, FaultSpec

__all__ = [
    "ChaosError",
    "ChaosHang",
    "ChaosInjector",
    "ChaosKill",
    "ChaosPoison",
    "ChaosRunResult",
    "ChaosTornWrite",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultingFile",
    "reference_fingerprint",
    "run_chaos",
]
