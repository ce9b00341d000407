"""Voltage-glitch parameter-search campaign (``repro.glitch`` demo).

Runs the offset × width × depth fault-injection search of
:mod:`repro.glitch.campaign` against the PIN-check victim on the bench
glitch rig, twice: unprotected, and with the brown-out-detector
countermeasure armed.  The report compares outcome rates per leg and
locates the exploitable parameter region.

The campaign shards over (leg, pulse) work units through
:mod:`repro.exec`, so ``--jobs N`` output is byte-identical to serial.
"""

from __future__ import annotations

import numpy as np

from ..exec import ShardPlan, execute
from ..glitch.campaign import (
    DEFAULT_SPEC,
    CampaignResult,
    CampaignSpec,
)
from ..glitch.campaign import shard_plan as campaign_shard_plan
from ..rng import DEFAULT_SEED
from .common import manifested


def shard_plan(seed: int, spec: CampaignSpec = DEFAULT_SPEC) -> ShardPlan:
    """Shardable axis: one unit per (leg, grid point) and random sample."""
    return campaign_shard_plan(seed, spec)


def _headline(result: CampaignResult) -> dict[str, float]:
    return {
        "exploitable_rate_unprotected": result.exploitable_rate("unprotected"),
        "exploitable_rate_brownout": result.exploitable_rate("brownout"),
    }


@manifested("glitch-campaign", device="glitch-rig", headline=_headline)
def run(
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    spec: CampaignSpec | None = None,
) -> CampaignResult:
    """Run the full campaign; returns every classified attempt."""
    spec = spec or DEFAULT_SPEC
    merged = execute(campaign_shard_plan(seed, spec), jobs=jobs)
    attempts = [attempt for unit in merged for attempt in unit]
    return CampaignResult(spec, attempts)


def report(result: CampaignResult) -> AttackReport:
    """Outcome rates per leg, plus the exploitable parameter region."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Voltage-glitch campaign: PIN-check guard vs. brown-out detector "
        "(offset x width x depth search on the bench glitch rig)"
    )
    for leg in result.spec.legs:
        rates = result.outcome_rates(leg)
        out.add_row(
            leg=leg,
            attempts=len(result.leg_attempts(leg)),
            **{key: round(rate, 4) for key, rate in rates.items()},
        )
    for leg in result.spec.legs:
        success = result.success_map(leg)
        if not np.any(success > 0):
            continue
        row, col = np.unravel_index(int(np.argmax(success)), success.shape)
        out.add_row(
            leg=leg,
            best_offset_ns=round(result.spec.offsets_s[row] * 1e9, 1),
            best_width_ns=round(result.spec.widths_s[col] * 1e9, 1),
            best_rate=round(float(success[row, col]), 4),
        )
    unprotected = result.exploitable_rate("unprotected")
    protected = result.exploitable_rate("brownout")
    if unprotected > 0.0:
        out.add_note(
            f"brown-out detector cuts the exploitable rate from "
            f"{unprotected:.1%} to {protected:.1%}: slow deep glitches "
            f"are caught, but pulses shorter than its response time "
            f"still slip through."
        )
    out.add_note(
        "the die never sees the programmed pulse: board decoupling "
        "RC-filters the drive, so the width axis trades depth for "
        "dwell exactly as on real hardware."
    )
    return out
