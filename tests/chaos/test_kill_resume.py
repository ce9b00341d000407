"""``kill -9`` a real ``repro experiment`` process, then ``--resume`` it.

The crash-safety guarantee end to end through the CLI process
boundary, which the in-process matrix cannot reach:

1. a child process installs ``slow`` faults on every ``chaos-probe``
   unit (wall-clock stalls only; they leave the fingerprint alone, see
   ``test_slow_fault_changes_nothing_fingerprinted``) and runs
   ``repro experiment chaos-probe --checkpoint DIR``;
2. the test SIGKILLs it once its journal holds a completed unit — no
   signal handler, no atexit, no cleanup;
3. ``--resume --json --metrics`` must reuse some but not all of the
   journalled units and end with the manifest fingerprint of an
   uninterrupted ``--json`` run.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import cli, obs
from repro.chaos import targets
from repro.exec import runtime
from repro.obs import manifest_fingerprint
from repro.obs.timing import wall_clock

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Stall per unit in the child: the probe's 12 units take ~3 s there,
#: a wide window for the kill to land mid-campaign.
SLOW_S = 0.25

_CHILD = f"""
import sys
from repro import cli
from repro.chaos import ChaosInjector, FaultSpec
from repro.exec import runtime

ckpt, state = sys.argv[1:3]
faults = tuple(
    FaultSpec("slow", index, param={SLOW_S})
    for index in range({targets.N_UNITS})
)
with runtime.injected(ChaosInjector(faults, state)):
    sys.exit(cli.main(["experiment", "chaos-probe", "--checkpoint", ckpt]))
"""


@pytest.fixture(autouse=True)
def _clean_slate():
    runtime.clear_incidents()
    yield
    runtime.clear_incidents()
    obs.OBS.reset()


def _json_run(capsys, *flags):
    assert cli.main(["experiment", "chaos-probe", *flags]) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_killed_cli_campaign_resumes_to_reference(tmp_path, capsys):
    reference = _json_run(capsys, "--json")

    ckpt = tmp_path / "ckpt"
    journal = ckpt / "journal-000.jsonl"
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(ckpt), str(tmp_path / "faults")],
        cwd=tmp_path,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        stdout=subprocess.DEVNULL,
    )
    try:
        deadline = wall_clock() + 60.0
        while wall_clock() < deadline:
            assert child.poll() is None, "child finished before the kill"
            # The header line plus at least one whole unit line.
            if journal.exists() and journal.read_bytes().count(b"\n") >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail("child never journalled a unit")
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
    assert child.returncode == -signal.SIGKILL

    resumed = _json_run(
        capsys, "--checkpoint", str(ckpt), "--resume", "--json", "--metrics"
    )
    resumed_units = resumed["metrics"].get("exec.resumed_units", 0)
    assert 0 < resumed_units < targets.N_UNITS
    assert manifest_fingerprint(resumed["manifest"]) == (
        manifest_fingerprint(reference["manifest"])
    )
