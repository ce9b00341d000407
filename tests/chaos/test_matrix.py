"""The chaos matrix: every fault class × ``--jobs``, with assertions.

For each fault class the supervised runtime claims to survive — kill,
hang, fsync failure, ENOSPC, torn journal tail, poison unit — the
probe campaign runs with that fault injected at ``--jobs`` 1 and 4,
and each cell asserts the two chaos invariants:

1. the run completes with a manifest fingerprint **byte-identical**
   to the uninterrupted reference (directly, or after ``--resume``);
2. the injected fault shows up in the typed failure taxonomy as its
   expected :data:`repro.errors.FAILURE_CLASSES` entry.

Serial (``jobs=1``) and pooled (``jobs=4``) cells exercise different
machinery — a ``kill`` serially is an engine-level simulated crash
with journal banking and resume, while on the pool it is a real
``SIGKILL`` recovered *in-run* by the supervisor — so the grid is not
redundant.
"""

import pytest

from repro import obs
from repro.chaos import FaultSpec, reference_fingerprint, run_chaos
from repro.exec import runtime

SEED = 2022

#: (name, fault, expected failure class) — one row per fault class.
#: Targets sit mid-plan so every fault lands after some progress is
#: banked and before the end.
DEFAULT_MATRIX = (
    ("kill", FaultSpec("kill", 3), "crash"),
    ("hang", FaultSpec("hang", 4), "hang"),
    ("fsync", FaultSpec("fsync", 2), "journal-io"),
    ("enospc", FaultSpec("enospc", 2), "journal-enospc"),
    ("torn", FaultSpec("torn", 1), "journal-torn"),
    ("poison", FaultSpec("poison", 5), "poison"),
)


@pytest.fixture(scope="module")
def reference():
    """The fault-free serial fingerprint (jobs-independent by the
    engine's equivalence guarantee), computed once for every cell."""
    return reference_fingerprint(SEED)


@pytest.fixture(autouse=True)
def _clean_slate():
    runtime.clear_incidents()
    yield
    runtime.clear_incidents()
    obs.OBS.reset()


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize(
    "fault, expected",
    [row[1:] for row in DEFAULT_MATRIX],
    ids=[row[0] for row in DEFAULT_MATRIX],
)
def test_cell(fault, expected, jobs, reference, tmp_path):
    result = run_chaos(
        (fault,),
        seed=SEED,
        jobs=jobs,
        workdir=str(tmp_path),
        hang_timeout_s=2.0,
        reference=reference,
    )
    assert result.final_fingerprint == reference
    assert expected in result.failure_classes, result.failure_classes
