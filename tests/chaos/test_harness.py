"""The chaos runner, quarantine semantics, and the exit-code contract.

Every run here targets the ``chaos-probe`` experiment — 12 trivial
units, ``retries=2`` — so whole faulted campaigns finish in tens of
milliseconds and the byte-identity invariant is asserted end to end.
The fault-class × ``--jobs`` matrix is ``test_matrix.py``.
"""

import json

import pytest

from repro import cli, obs
from repro.chaos import (
    ChaosInjector,
    FaultSpec,
    reference_fingerprint,
    run_chaos,
    targets,
)
from repro.errors import ShardError
from repro.exec import SupervisionPolicy, runtime, supervised

SEED = 2022


@pytest.fixture(autouse=True)
def _clean_slate():
    runtime.clear_incidents()
    yield
    runtime.clear_incidents()
    obs.OBS.reset()


class TestRunner:
    def test_reference_fingerprint_is_stable(self):
        assert reference_fingerprint(SEED) == reference_fingerprint(SEED)

    def test_serial_kill_resumes_to_byte_identical(self, tmp_path):
        result = run_chaos(
            (FaultSpec("kill", 3),), seed=SEED, jobs=1,
            workdir=str(tmp_path),
        )
        assert result.identical
        assert result.interruptions == 1
        assert "crash" in result.failure_classes

    def test_journal_failure_degrades_in_run(self, tmp_path):
        result = run_chaos(
            (FaultSpec("enospc", 1),), seed=SEED, jobs=1,
            workdir=str(tmp_path),
        )
        # No interruption: the engine banks in memory and completes.
        assert result.interruptions == 0
        assert result.identical
        assert "journal-enospc" in result.failure_classes
        assert "journal-degraded" in result.incident_kinds

    def test_slow_fault_changes_nothing_fingerprinted(self, tmp_path):
        result = run_chaos(
            (FaultSpec("slow", 2, param=0.01),), seed=SEED, jobs=1,
            workdir=str(tmp_path),
        )
        assert result.identical
        assert result.interruptions == 0


class TestQuarantine:
    def test_exhausted_poison_quarantines_under_policy(self, tmp_path):
        # poison x3 exhausts retries=2 (three attempts); with the
        # quarantine policy the campaign completes around the unit.
        injector = ChaosInjector(
            (FaultSpec("poison", 5, times=3),), str(tmp_path / "state")
        )
        with supervised(SupervisionPolicy(quarantine=True)):
            with runtime.injected(injector):
                results = targets.run(seed=SEED)
        assert results[5] is None
        assert all(results[i] is not None for i in range(12) if i != 5)
        [incident] = runtime.incidents()
        assert incident.kind == "quarantined-unit"
        assert incident.failure_class == "poison"
        assert incident.detail["unit"] == 5

    def test_without_policy_exhaustion_is_fatal(self, tmp_path):
        injector = ChaosInjector(
            (FaultSpec("poison", 5, times=3),), str(tmp_path / "state")
        )
        with runtime.injected(injector):
            with pytest.raises(ShardError, match="probe\\[5\\]"):
                targets.run(seed=SEED)


class TestCli:
    def test_quarantined_experiment_exits_degraded(self, tmp_path, capsys):
        injector = ChaosInjector(
            (FaultSpec("poison", 5, times=3),), str(tmp_path / "state")
        )
        with runtime.injected(injector):
            rc = cli.main(
                ["experiment", "chaos-probe", "--quarantine", "--json"]
            )
        assert rc == cli.EXIT_DEGRADED == 4
        captured = capsys.readouterr()
        assert "quarantined-unit [poison]" in captured.err
        doc = json.loads(captured.out)
        [entry] = doc["manifest"]["partial"]["quarantined"]
        assert entry["unit"] == 5
        assert entry["failure_class"] == "poison"

    def test_journal_degradation_exits_degraded(self, tmp_path, capsys):
        injector = ChaosInjector(
            (FaultSpec("enospc", 1),), str(tmp_path / "state")
        )
        with runtime.injected(injector):
            rc = cli.main(
                [
                    "experiment", "chaos-probe",
                    "--checkpoint", str(tmp_path / "ckpt"),
                ]
            )
        assert rc == cli.EXIT_DEGRADED
        err = capsys.readouterr().err
        assert "journal-degraded [journal-enospc]" in err

    def test_clean_experiment_still_exits_zero(self, capsys):
        rc = cli.main(["experiment", "chaos-probe"])
        assert rc == cli.EXIT_OK
