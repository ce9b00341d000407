"""Deterministic chaos-injection harness for the supervised runtime.

The robustness counterpart of :mod:`repro.exec`: seeded fault
injectors (worker kill, hang, journal I/O failures, torn writes, slow
shards) wired into the engine's runtime hooks
(:func:`repro.exec.runtime.run_unit` and the checkpoint journal's
write path), plus runners that assert the engine's **chaos
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
for a given ``(experiment, faults, seed)`` triple.

Entry points: ``repro chaos <experiment> --faults <spec>`` for one
faulted run, ``repro chaos --matrix`` for the full fault-class ×
``--jobs`` grid, and ``repro chaos --smoke`` for the subprocess
``kill -9``/resume end-to-end check.  See ``docs/robustness.md``.
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
from .matrix import DEFAULT_MATRIX, MatrixReport, render_matrix, run_matrix
from .runner import ChaosRunResult, reference_fingerprint, run_chaos
from .smoke import SmokeResult, render_smoke, run_smoke
from .spec import FAULT_KINDS, FaultSpec, parse_faults

__all__ = [
    "ChaosError",
    "ChaosHang",
    "ChaosInjector",
    "ChaosKill",
    "ChaosPoison",
    "ChaosRunResult",
    "ChaosTornWrite",
    "DEFAULT_MATRIX",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultingFile",
    "MatrixReport",
    "SmokeResult",
    "parse_faults",
    "reference_fingerprint",
    "render_matrix",
    "render_smoke",
    "run_chaos",
    "run_matrix",
    "run_smoke",
]
