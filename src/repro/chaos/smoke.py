"""Chaos smoke: kill a real CLI campaign, resume it, compare runs.

The crash-safety guarantee exercised end to end through the actual
``python -m repro`` process boundary — the one layer the in-process
chaos matrix cannot reach:

1. run a reference campaign uninterrupted (``--json``) and record its
   run-manifest fingerprint;
2. start the same campaign with ``--checkpoint``, and ``kill -9`` the
   process the moment its journal holds at least one completed work
   unit — no signal handler, no atexit, no cleanup;
3. rerun with ``--resume`` and assert that (a) at least one journalled
   unit was actually reused and (b) the final manifest fingerprint is
   **identical** to the uninterrupted reference.

The work directory is the *seeded* convention
``<base>/smoke-<experiment>-seed<seed>`` — no ``mkdtemp`` wall-clock
entropy — so two smoke runs with the same arguments touch the same
paths and a crashed harness leaves evidence in a predictable place.
Run it as ``python -m repro chaos noisy-rig --smoke`` (the CI
``chaos-smoke`` job).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..errors import ChaosError
from ..obs import manifest_fingerprint
from ..obs.timing import wall_clock
from ..units import milliseconds

#: Poll cadence while waiting for the victim to journal a unit.
_POLL_S = milliseconds(20)


@dataclass(frozen=True)
class SmokeResult:
    """Outcome of one kill/resume smoke round."""

    experiment: str
    seed: int
    jobs: int
    banked_units: int
    resumed_units: int
    reference_fingerprint: str
    resumed_fingerprint: str

    @property
    def problems(self) -> tuple[str, ...]:
        out = []
        if not self.resumed_units:
            out.append("resume re-ran everything (exec.resumed_units == 0)")
        if self.resumed_fingerprint != self.reference_fingerprint:
            out.append(
                f"resumed manifest {self.resumed_fingerprint[:16]}... "
                f"differs from uninterrupted reference "
                f"{self.reference_fingerprint[:16]}..."
            )
        return tuple(out)

    @property
    def passed(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly view for the CLI's ``--json`` mode."""
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "jobs": self.jobs,
            "banked_units": self.banked_units,
            "resumed_units": self.resumed_units,
            "reference_fingerprint": self.reference_fingerprint,
            "resumed_fingerprint": self.resumed_fingerprint,
            "passed": self.passed,
            "problems": list(self.problems),
        }


def smoke_workdir(base: str, experiment: str, seed: int) -> Path:
    """The seeded (entropy-free) work directory for one smoke round."""
    return Path(base) / f"smoke-{experiment}-seed{seed}"


def _cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def _env() -> dict[str, str]:
    """Subprocess environment with this ``repro`` package importable."""
    src = str(Path(__file__).resolve().parent.parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_json(args: list[str]) -> dict:
    """Run the CLI, parse its ``--json`` document, return it."""
    proc = subprocess.run(
        _cli(args), env=_env(), capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise ChaosError(
            f"smoke harness: `repro {' '.join(args)}` exited "
            f"{proc.returncode}: {proc.stderr.strip()[:500]}"
        )
    doc = json.loads(proc.stdout)
    if doc.get("manifest") is None:
        raise ChaosError("smoke harness: CLI emitted no run manifest")
    return doc


def _kill_mid_campaign(
    args: list[str], journal: Path, timeout_s: float
) -> int:
    """Start the campaign; SIGKILL once the journal has >= 1 unit line.

    Returns the number of units banked before the kill.
    """
    victim = subprocess.Popen(
        _cli(args), env=_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = wall_clock() + timeout_s
        banked_enough = False
        while wall_clock() < deadline:
            if victim.poll() is not None:
                raise ChaosError(
                    "smoke harness: victim finished before the kill "
                    "landed — campaign too fast for this smoke"
                )
            # header line + at least one whole unit line
            if journal.exists() and journal.read_bytes().count(b"\n") >= 2:
                banked_enough = True
                break
            threading.Event().wait(_POLL_S)
        if not banked_enough:
            raise ChaosError(
                "smoke harness: victim never journalled a unit within "
                f"{timeout_s:g}s"
            )
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=60)
    finally:
        if victim.poll() is None:
            victim.kill()
    return journal.read_bytes().count(b"\n") - 1


def run_smoke(
    experiment: str = "noisy-rig",
    seed: int = 2022,
    jobs: int = 1,
    timeout_s: float = 300.0,
    workdir_base: str = "chaos-runs",
    keep: bool = False,
) -> SmokeResult:
    """One full kill/resume round through the real CLI.

    Raises :class:`~repro.errors.ChaosError` on harness failures (the
    victim never journalled, the CLI misbehaved); invariant violations
    land in the returned result's ``problems`` instead.
    """
    workdir = smoke_workdir(workdir_base, experiment, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    ckpt = workdir / "ckpt"
    journal = ckpt / "journal-000.jsonl"
    base = [
        "experiment", experiment,
        "--seed", str(seed), "--jobs", str(jobs),
    ]
    try:
        reference = _run_json([*base, "--json"])
        banked = _kill_mid_campaign(
            [*base, "--checkpoint", str(ckpt)], journal, timeout_s
        )
        resumed = _run_json(
            [*base, "--checkpoint", str(ckpt), "--resume", "--json",
             "--metrics"]
        )
        return SmokeResult(
            experiment=experiment,
            seed=seed,
            jobs=jobs,
            banked_units=banked,
            resumed_units=int(
                resumed.get("metrics", {}).get("exec.resumed_units", 0)
            ),
            reference_fingerprint=manifest_fingerprint(
                reference["manifest"]
            ),
            resumed_fingerprint=manifest_fingerprint(resumed["manifest"]),
        )
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)


def render_smoke(result: SmokeResult) -> str:
    """One-paragraph human rendering of a smoke round."""
    if result.passed:
        return (
            f"chaos smoke OK: {result.experiment} seed={result.seed} "
            f"jobs={result.jobs} — killed -9 with "
            f"{result.banked_units} unit(s) banked, resumed "
            f"{result.resumed_units} of them; manifest fingerprint "
            f"{result.reference_fingerprint[:16]}... matches the "
            f"uninterrupted reference"
        )
    lines = [
        f"chaos smoke FAIL: {result.experiment} seed={result.seed} "
        f"jobs={result.jobs}"
    ]
    lines += [f"  - {problem}" for problem in result.problems]
    return "\n".join(lines)
