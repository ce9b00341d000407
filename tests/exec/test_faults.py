"""Fault tests: a campaign survives every fault class the engine claims to.

Each cell runs the 12-unit ``fault-probe`` campaign (``fault_probe.py``)
through ``repro experiment`` with one fault armed, and asserts that the
run ends with the fault-free manifest fingerprint and records the fault
under its :data:`repro.errors.FAILURE_CLASSES` entry.  Unit faults fire
inside the unit; journal faults come from a patched ``os.fsync`` or
journal line writer.  Serial runs cannot survive a real crash or hang of
their own process; the serial crash is the ``kill -9`` test below.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli
from repro.exec import (
    CheckpointJournal,
    SupervisionPolicy,
    checkpointing,
    runtime,
)
from repro.obs import manifest_fingerprint
from repro.obs.timing import wall_clock

from . import fault_probe

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The fault-free probe fingerprint at seed 2022, for every ``--jobs``.
PROBE_FP = (
    "1f7b8ce011936ee4bd4a0f90afdeb0b63dd4b10d54a2fdd8e2b6e61adaac5461"
)


@pytest.fixture(autouse=True)
def _probe(register_experiment):
    register_experiment("fault-probe", fault_probe)
    with runtime.supervised(SupervisionPolicy(hang_timeout_s=2.0)):
        yield
    runtime.clear_incidents()


def _run(capsys, *flags):
    """``repro experiment fault-probe --json --metrics FLAGS``."""
    rc = cli.main(["experiment", "fault-probe", "--json", "--metrics", *flags])
    out, err = capsys.readouterr()
    return rc, json.loads(out) if out else None, err


def _fail_fsync(monkeypatch, code):
    """Fail the third fsync (the second unit line) once with ``code``."""
    real, calls = os.fsync, []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 3:
            raise OSError(code, os.strerror(code))
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)


@pytest.mark.parametrize("jobs", [1, 4])
def test_fault_free_run(jobs, capsys):
    rc, doc, _ = _run(capsys, "--jobs", str(jobs))
    assert rc == cli.EXIT_OK
    assert manifest_fingerprint(doc["manifest"]) == PROBE_FP
    assert not [key for key in doc["metrics"] if "failure_class" in key]


def test_clean_experiment_still_exits_zero(capsys):
    assert cli.main(["experiment", "fault-probe"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


CELLS = [
    ("crash", 4),
    ("hang", 4),
    ("poison", 1),
    ("poison", 4),
    ("journal-enospc", 1),
    ("journal-enospc", 4),
    ("journal-io", 1),
    ("journal-io", 4),
]


@pytest.mark.parametrize(
    "kind, jobs", CELLS, ids=[f"{kind}-{jobs}" for kind, jobs in CELLS]
)
def test_cell(kind, jobs, tmp_path, monkeypatch, capsys):
    if kind.startswith("journal-"):
        code = errno.ENOSPC if kind == "journal-enospc" else errno.EIO
        _fail_fsync(monkeypatch, code)
    else:
        fault = (kind, 5, str(tmp_path / "fired"))
        monkeypatch.setattr(fault_probe, "FAULT", fault)
    rc, doc, err = _run(
        capsys, "--jobs", str(jobs), "--checkpoint", str(tmp_path / "ckpt")
    )
    assert manifest_fingerprint(doc["manifest"]) == PROBE_FP
    if kind.startswith("journal-"):
        # The journal degrades to memory; the run completes degraded.
        key = f"exec.journal_failures{{failure_class={kind}}}"
        assert rc == cli.EXIT_DEGRADED
        assert f"journal-degraded [{kind}]" in err
    else:
        key = f"exec.failures{{failure_class={kind}}}"
        assert rc == cli.EXIT_OK
    assert doc["metrics"][key] == 1


def test_journal_degradation_exits_degraded(tmp_path, monkeypatch, capsys):
    _fail_fsync(monkeypatch, errno.ENOSPC)
    ckpt = str(tmp_path / "ckpt")
    rc = cli.main(["experiment", "fault-probe", "--checkpoint", ckpt])
    assert rc == cli.EXIT_DEGRADED
    assert "journal-degraded [journal-enospc]" in capsys.readouterr().err


def test_journal_failure_degrades_in_run(tmp_path, monkeypatch):
    reference = fault_probe.run()
    _fail_fsync(monkeypatch, errno.ENOSPC)
    with checkpointing(str(tmp_path / "ckpt")):
        # No interruption: the engine banks in memory and completes.
        assert fault_probe.run() == reference
    [incident] = runtime.incidents()
    assert incident.kind == "journal-degraded"
    assert incident.failure_class == "journal-enospc"


@pytest.mark.parametrize("jobs", [1, 4])
def test_torn_line_is_dropped_on_resume(jobs, tmp_path, monkeypatch, capsys):
    # Power loss mid-append: half of the third unit line reaches the
    # disk, then the process is interrupted.
    write_line = CheckpointJournal._write_line

    def tear_third_unit_line(journal, doc):
        if journal.units_written < 2:
            return write_line(journal, doc)
        line = json.dumps(doc).encode()
        journal._handle.write(line[: len(line) // 2])
        journal._handle.flush()
        raise KeyboardInterrupt

    ckpt = tmp_path / "ckpt"
    flags = ("--jobs", str(jobs), "--checkpoint", str(ckpt))
    with monkeypatch.context() as patch:
        patch.setattr(CheckpointJournal, "_write_line", tear_third_unit_line)
        rc, _, err = _run(capsys, *flags)
    assert rc == cli.EXIT_INTERRUPTED
    assert "2/12 unit(s) checkpointed" in err
    assert not (ckpt / "journal-000.jsonl").read_bytes().endswith(b"\n")

    rc, doc, _ = _run(capsys, *flags, "--resume")
    assert rc == cli.EXIT_OK
    assert doc["metrics"]["exec.resumed_units"] == 2
    assert manifest_fingerprint(doc["manifest"]) == PROBE_FP


_CHILD = """
import sys
from repro import cli
from tests.exec import fault_probe

fault_probe.FAULT = ("slow", None, None)
cli.EXPERIMENTS = (*cli.EXPERIMENTS, "fault-probe")
sys.modules["repro.experiments.fault_probe"] = fault_probe
sys.exit(cli.main(["experiment", "fault-probe", "--checkpoint", sys.argv[1]]))
"""


def test_killed_cli_campaign_resumes_to_reference(tmp_path, capsys):
    # kill -9 a real `repro experiment` process (no handler, no
    # cleanup) once its journal holds a unit, then --resume it.
    ckpt = tmp_path / "ckpt"
    journal = ckpt / "journal-000.jsonl"
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt)],
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.DEVNULL,
    )
    try:
        deadline = wall_clock() + 60.0
        # The header line plus at least one whole unit line.
        while not (journal.exists() and journal.read_bytes().count(b"\n") > 1):
            assert child.poll() is None, "child finished before the kill"
            assert wall_clock() < deadline, "child never journalled a unit"
            time.sleep(0.02)
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
    assert child.returncode == -signal.SIGKILL
    banked = journal.read_bytes().count(b"\n") - 1
    assert 0 < banked < fault_probe.N_UNITS

    rc, doc, _ = _run(capsys, "--checkpoint", str(ckpt), "--resume")
    assert rc == cli.EXIT_OK
    assert doc["metrics"]["exec.resumed_units"] == banked
    assert manifest_fingerprint(doc["manifest"]) == PROBE_FP


def test_quarantined_experiment_exits_degraded(monkeypatch, capsys):
    # Unit 5 fails every attempt, exhausting retries=2.
    monkeypatch.setattr(fault_probe, "FAULT", ("poison", 5, None))
    rc, doc, err = _run(capsys, "--quarantine")
    assert rc == cli.EXIT_DEGRADED == 4
    assert "quarantined-unit [poison]" in err
    [entry] = doc["manifest"]["partial"]["quarantined"]
    assert entry["unit"] == 5
    assert entry["failure_class"] == "poison"
    assert doc["manifest"]["headline"]["completed"] == 11


def test_exhaustion_without_quarantine_fails(monkeypatch, capsys):
    monkeypatch.setattr(fault_probe, "FAULT", ("poison", 5, None))
    rc, _, err = _run(capsys)
    assert rc == cli.EXIT_FAILURE
    assert "probe[5]" in err


def test_exhausted_poison_quarantines_under_policy(monkeypatch):
    # The engine API behind `--quarantine`: the campaign completes
    # around the exhausted unit and the incident ledger names it.
    monkeypatch.setattr(fault_probe, "FAULT", ("poison", 5, None))
    with runtime.supervised(SupervisionPolicy(quarantine=True)):
        results = fault_probe.run()
    assert results[5] is None
    assert all(
        results[i] is not None
        for i in range(fault_probe.N_UNITS)
        if i != 5
    )
    [incident] = runtime.incidents()
    assert incident.kind == "quarantined-unit"
    assert incident.failure_class == "poison"
    assert incident.detail["unit"] == 5
