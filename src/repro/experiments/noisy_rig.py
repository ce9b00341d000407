"""Noisy-rig extraction — naive vs resilient driver on a flaky bench.

Reruns the paper's two headline extraction scenarios — the BCM2711 L1
d-cache dump over CP15 (the Table 1 / Figure 8 setting) and the i.MX53
iRAM bitmap recovery over JTAG (the Figure 9/10 setting) — on the
:data:`~repro.resilience.DEFAULT_NOISY_RIG` imperfect bench instead of
the ideal one, and pits two drivers against each other:

* **naive** — :meth:`~repro.resilience.RetryPolicy.single_shot`: one
  attempt, one read, accept whatever comes back.  This is what every
  pre-resilience experiment implicitly did.
* **resilient** — the default :class:`~repro.resilience.RetryPolicy`:
  bounded retries with backoff, adaptive set-point re-search, and
  five-read per-bit majority voting.

Each leg records its ground-truth-relative recovered bit fraction as
the ``resilience.recovered_fraction`` gauge (labelled by scenario and
driver) — the resilient driver must come out strictly higher, which the
regression tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.bitmap import BITMAP_BYTES, test_bitmap_bytes
from ..analysis.hamming import fractional_hamming_distance
from ..devices import imx53_qsb, raspberry_pi_4
from ..devices.builders import IMX53_IRAM_BASE
from ..exec import ShardPlan, execute, shard_unit
from ..obs import OBS
from ..resilience import (
    DEFAULT_NOISY_RIG,
    ResilientVoltBoot,
    RetryPolicy,
)
from ..rng import DEFAULT_SEED, generator
from ..soc.jtag import JtagProbe
from .common import (
    ATTACKER_MEDIA,
    VICTIM_MEDIA,
    fill_dcache,
    manifested,
    snapshot_l1d,
    snapshot_l1i,
)

#: The two extraction scenarios, in unit-enumeration order.
SCENARIOS = ("rpi4-l1d", "imx53-iram")

#: The two drivers compared per scenario.
DRIVERS = ("naive", "resilient")

#: Bitmap copies stored into the i.MX53 iRAM (as in Figure 9).
N_PANELS = 4


@dataclass
class NoisyRigLeg:
    """One (scenario, driver) cell of the comparison."""

    scenario: str
    driver: str
    recovered_fraction: float
    succeeded: bool
    degraded: bool
    attempts: int
    confident_fraction: float
    mean_confidence: float
    total_backoff_s: float


def _policy(driver: str) -> RetryPolicy:
    if driver == "naive":
        return RetryPolicy.single_shot()
    return RetryPolicy()


def _rpi4_leg(seed: int, driver: str, rng: np.random.Generator) -> NoisyRigLeg:
    """BCM2711 L1 d-cache extraction over noisy CP15 RAMINDEX reads."""

    def make():
        board = raspberry_pi_4(seed=seed)
        board.boot(VICTIM_MEDIA)
        for core in board.soc.cores:
            fill_dcache(board, core.index, pattern=0xAA)
        return board

    # Ground truth in the driver's image layout (CacheImages.everything
    # order: all d-cache ways per core, then all i-cache ways per core).
    reference = make()
    truth = b"".join(
        b"".join(snapshot_l1d(core)) for core in reference.soc.cores
    ) + b"".join(
        b"".join(snapshot_l1i(core)) for core in reference.soc.cores
    )
    recovery = ResilientVoltBoot(
        make,
        target="l1-caches",
        policy=_policy(driver),
        rig=DEFAULT_NOISY_RIG,
        rng=rng,
        boot_media=ATTACKER_MEDIA,
    ).recover()
    return _leg("rpi4-l1d", driver, truth, recovery)


def _imx53_leg(seed: int, driver: str, rng: np.random.Generator) -> NoisyRigLeg:
    """i.MX53 iRAM bitmap recovery over noisy JTAG block reads."""
    bitmap = test_bitmap_bytes()
    truth = bitmap * N_PANELS

    def make():
        board = imx53_qsb(seed=seed)
        board.boot()  # internal ROM boot
        jtag = JtagProbe(board.soc.memory_map)
        for panel in range(N_PANELS):
            jtag.write_block(IMX53_IRAM_BASE + panel * BITMAP_BYTES, bitmap)
        return board

    recovery = ResilientVoltBoot(
        make,
        target="iram",
        policy=_policy(driver),
        rig=DEFAULT_NOISY_RIG,
        rng=rng,
    ).recover()
    return _leg("imx53-iram", driver, truth, recovery)


def _leg(scenario, driver, truth, recovery) -> NoisyRigLeg:
    """Score one recovery against its ground truth and record gauges."""
    if recovery.image is None or len(recovery.image) != len(truth):
        recovered = 0.0
    else:
        recovered = 1.0 - fractional_hamming_distance(truth, recovery.image)
    if OBS.enabled:
        OBS.gauge_set(
            "resilience.recovered_fraction",
            recovered,
            scenario=scenario,
            driver=driver,
        )
        OBS.gauge_set(
            "resilience.confident_fraction",
            recovery.confident_fraction,
            scenario=scenario,
            driver=driver,
        )
    return NoisyRigLeg(
        scenario=scenario,
        driver=driver,
        recovered_fraction=recovered,
        succeeded=recovery.succeeded,
        degraded=recovery.degraded,
        attempts=len(recovery.attempts),
        confident_fraction=recovery.confident_fraction,
        mean_confidence=recovery.mean_confidence,
        total_backoff_s=recovery.total_backoff_s,
    )


@shard_unit
def _run_leg(
    seed: int, scenario: str, driver: str, rng: np.random.Generator = None
) -> NoisyRigLeg:
    if rng is None:
        rng = generator(seed)
    if scenario == "rpi4-l1d":
        return _rpi4_leg(seed, driver, rng)
    return _imx53_leg(seed, driver, rng)


def shard_plan(seed: int) -> ShardPlan:
    """Shardable axis: one unit per (scenario, driver) leg.

    Per-leg rig-noise streams are spawned in unit order at plan-build
    time, so the comparison is byte-identical at any ``--jobs``.
    """
    legs = [
        (scenario, driver)
        for scenario in SCENARIOS
        for driver in DRIVERS
    ]
    plan = ShardPlan.enumerate(
        _run_leg,
        [(seed, scenario, driver) for scenario, driver in legs],
        labels=[f"noisy-rig[{s}/{d}]" for s, d in legs],
    )
    return plan.with_spawned_streams(generator(seed))


def _headline(legs: "list[NoisyRigLeg]") -> dict[str, float]:
    by_key = {(leg.scenario, leg.driver): leg for leg in legs}
    out: dict[str, float] = {}
    for scenario in SCENARIOS:
        naive = by_key[(scenario, "naive")]
        resilient = by_key[(scenario, "resilient")]
        out[f"{scenario}.naive_recovered"] = naive.recovered_fraction
        out[f"{scenario}.resilient_recovered"] = resilient.recovered_fraction
        out[f"{scenario}.gain"] = (
            resilient.recovered_fraction - naive.recovered_fraction
        )
    return out


@manifested("noisy-rig", headline=_headline)
def run(seed: int = DEFAULT_SEED, jobs: int = 1) -> list[NoisyRigLeg]:
    """Run both scenarios with both drivers on the default noisy rig."""
    return execute(shard_plan(seed), jobs=jobs)


def report(legs: list[NoisyRigLeg]) -> AttackReport:
    """Render the comparison as a driver-vs-scenario table."""
    from ..core.report import AttackReport

    out = AttackReport(
        "Noisy rig: recovered bit fraction, naive single-shot vs "
        "resilient retry+vote driver (default noisy bench)"
    )
    for leg in legs:
        out.add_row(
            scenario=leg.scenario,
            driver=leg.driver,
            recovered_fraction=round(leg.recovered_fraction, 6),
            attempts=leg.attempts,
            degraded=leg.degraded,
            confident_fraction=round(leg.confident_fraction, 6),
            backoff_s=round(leg.total_backoff_s, 2),
        )
    out.add_note(
        "The resilient driver's majority vote removes per-read bit "
        "errors; retries + set-point re-search recover from surge-lossy "
        "landings the naive driver simply accepts."
    )
    return out
