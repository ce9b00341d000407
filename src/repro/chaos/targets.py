"""The ``chaos-probe`` experiment: a small, fast, fault-friendly target.

A 12-unit shardable campaign whose physics is trivial (per-unit
Gaussian draws from plan-spawned RNG streams) but whose observability
surface is complete: each unit emits a counter, a gauge, and a
histogram under the ``chaos.*`` metric names, all of which are **part
of the manifest fingerprint** — so the chaos matrix's byte-identity
assertion covers results, headline numbers, and merged metrics alike.

Units run with ``retries=2``, giving every one-shot fault (kill, hang,
poison) a clean re-attempt to recover into — the recovered run must be
byte-identical to a run that never saw the fault.
"""

from __future__ import annotations

import numpy as np

from ..core.report import AttackReport
from ..exec import ShardPlan, execute, shard_unit
from ..obs import OBS
from ..rng import DEFAULT_SEED, generator
from ..experiments.common import manifested

#: Units in the probe plan — enough for several shards at --jobs 4.
N_UNITS = 12

#: Gaussian draws per unit.
N_SAMPLES = 256


@shard_unit
def probe_unit(index: int, rng: "np.random.Generator | None" = None) -> float:
    """One probe unit: a seeded draw reduced to a stable scalar."""
    if rng is None:
        rng = generator(DEFAULT_SEED, "chaos-probe", str(index))
    samples = rng.normal(0.0, 1.0, size=N_SAMPLES)
    value = float(np.abs(samples).sum())
    OBS.counter_inc("chaos.units")
    OBS.gauge_set("chaos.probe_sum", round(value, 9))
    OBS.histogram_record("chaos.probe_extreme", round(float(samples.max()), 9))
    return round(value, 9)


def shard_plan(seed: int) -> ShardPlan:
    """One unit per probe index, RNG streams spawned in unit order."""
    plan = ShardPlan.enumerate(
        probe_unit,
        [(index,) for index in range(N_UNITS)],
        labels=[f"probe[{index}]" for index in range(N_UNITS)],
    )
    return plan.with_spawned_streams(generator(seed))


def _headline(results: "list[float | None]") -> dict[str, float]:
    present = [value for value in results if value is not None]
    return {
        "units": len(results),
        "completed": len(present),
        "probe_total": round(sum(present), 6),
    }


@manifested("chaos-probe", headline=_headline)
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> "list[float | None]":
    """Run the probe campaign; quarantined units surface as ``None``."""
    return execute(shard_plan(seed), jobs=jobs, retries=2)


def report(results: "list[float | None]") -> AttackReport:
    """Per-unit probe values (the CLI's human-readable rendering)."""
    out = AttackReport("Chaos probe campaign (fault-injection target)")
    for index, value in enumerate(results):
        out.add_row(
            unit=f"probe[{index}]",
            value="quarantined" if value is None else round(value, 6),
        )
    out.add_note(
        "A deterministic 12-unit campaign the fault-injection tests "
        "use to assert that injected faults are survived "
        "byte-identically."
    )
    return out
