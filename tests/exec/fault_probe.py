"""The 12-unit probe campaign the fault tests run, and the faults it fires.

``tests/exec/test_faults.py`` registers this module as the
``fault-probe`` experiment.  The pytest parent and the ``python -c``
child it kills both import it under one module path
(``tests.exec.fault_probe``), so the checkpoint journal's plan
fingerprint matches across the two processes.

Each unit draws from its plan-spawned stream and records a counter, a
gauge and a histogram, so the manifest fingerprint covers results,
headline and merged metrics alike.  Units run with ``retries=2``.

:data:`FAULT` arms one fault.  Forked pool workers inherit it, and the
test sets and restores it with ``monkeypatch``.  A fault with a marker
path fires only while it can create that file, so it fires once per
marker file across workers, re-attempts and resumed processes.
"""

import os
import signal
import time

import numpy as np

from repro.core.report import AttackReport
from repro.exec import ShardPlan, execute, shard_unit
from repro.experiments.common import manifested
from repro.obs import OBS
from repro.rng import DEFAULT_SEED, generator

N_UNITS = 12

#: Stall per unit for the ``slow`` fault: the child of the ``kill -9``
#: test takes ~3 s over the 12 units, a wide window for the kill.
SLOW_S = 0.25

#: ``(kind, unit index or None for every unit, marker path or None)``.
#: ``kind`` is ``crash`` (SIGKILL the process), ``hang`` (stall with no
#: heartbeat), ``poison`` (raise) or ``slow`` (stall :data:`SLOW_S`).
FAULT = None


def _fires(index: int) -> "str | None":
    if FAULT is None:
        return None
    kind, unit, marker = FAULT
    if unit is not None and unit != index:
        return None
    if marker is not None:
        try:
            with open(marker, "x"):
                pass
        except FileExistsError:
            return None
    return kind


@shard_unit
def probe_unit(index: int, rng: np.random.Generator) -> float:
    kind = _fires(index)
    if kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "hang":
        time.sleep(3600.0)  # the supervisor's hang detector kills us
    elif kind == "poison":
        raise ValueError(f"poisoned unit {index}")
    elif kind == "slow":
        time.sleep(SLOW_S)
    samples = rng.normal(0.0, 1.0, size=256)
    value = round(float(np.abs(samples).sum()), 9)
    OBS.counter_inc("rig.bits_read", index + 1)
    OBS.gauge_set("rig.setpoint_error_v", value)
    OBS.histogram_record("resilience.backoff_s", float(samples.max()))
    return value


def _headline(results: "list[float | None]") -> dict:
    present = [value for value in results if value is not None]
    return {"completed": len(present), "total": round(sum(present), 6)}


@manifested("fault-probe", headline=_headline)
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> "list[float | None]":
    """Run the probe; quarantined units come back as ``None``."""
    plan = ShardPlan.enumerate(
        probe_unit,
        [(index,) for index in range(N_UNITS)],
        labels=[f"probe[{index}]" for index in range(N_UNITS)],
    ).with_spawned_streams(generator(seed))
    return execute(plan, jobs=jobs, retries=2)


def report(results: "list[float | None]") -> AttackReport:
    out = AttackReport("Fault probe")
    for index, value in enumerate(results):
        out.add_row(unit=f"probe[{index}]", value=value)
    return out
