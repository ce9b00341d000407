"""Glitch parameter-search campaigns over offset × width × depth.

A campaign fires many glitch attempts at the :func:`~repro.devices.glitch_rig`
board while it runs the :func:`~repro.cpu.programs.pin_check` victim
with a *wrong* PIN, and classifies each attempt:

* ``normal`` — the victim halted with the flag still locked;
* ``crash`` — an undefined-instruction fault, a wild memory access, or
  a runaway loop (no HLT within the step budget);
* ``reset`` — the brown-out detector tripped first (countermeasure won);
* ``exploitable`` — the victim halted with the unlock flag set despite
  the wrong PIN: the glitch broke the comparison guard.

The search runs a full grid plus uniform random samples, both twice —
once unprotected and once with the brown-out detector armed — so the
success maps directly measure detection versus exploitation.

Everything shards through :mod:`repro.exec`: one work unit per grid
point (its repeats share one copy of the booted rig) and one per random
sample, with every stochastic draw keyed by
``(seed, "glitch", leg, attempt)`` so ``--jobs N`` output is
byte-identical to serial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..circuits.supply import BenchSupply
from ..cpu.assembler import assemble
from ..cpu.core import Core
from ..cpu.programs import pin_check
from ..devices import glitch_rig
from ..errors import CpuFault, GlitchError
from ..exec import ShardPlan, WorkUnit, booted_board, shard_unit
from ..obs import OBS
from ..rng import generator
from ..soc.board import Board
from ..soc.bootrom import BootMedia
from ..soc.soc import CoreUnit
from ..units import nanoseconds
from .faultmodel import BrownOutDetector, FaultModel, default_fault_model
from .injector import (
    DEFAULT_INSTRUCTION_PERIOD_S,
    GlitchInjector,
    GlitchedInterpretedProcess,
)
from .waveform import GlitchPulse, GlitchWaveform, die_waveform

#: Campaign legs: the same search with and without the countermeasure.
LEGS = ("unprotected", "brownout")

#: Attempt outcome classes, in reporting order.
OUTCOMES = ("normal", "crash", "reset", "exploitable")

#: Victim placement on the rig (inside its 64 KB DRAM).
CODE_ADDR = 0x2000
FLAG_ADDR = 0x4000

#: The wrong PIN the attacker enters, and the stored one.
ENTERED_PIN = 0x1A2B3C
STORED_PIN = 0x5E77C0


@dataclass(frozen=True)
class CampaignSpec:
    """Shape of one parameter-search campaign."""

    offsets_s: tuple[float, ...]
    widths_s: tuple[float, ...]
    depths_v: tuple[float, ...]
    repeats: int = 2
    random_points: int = 8
    legs: tuple[str, ...] = LEGS
    nominal_v: float = 0.8
    instruction_period_s: float = DEFAULT_INSTRUCTION_PERIOD_S
    max_steps: int = 800
    delay_iterations: int = 12
    brownout_threshold_v: float = 0.66
    brownout_response_s: float = nanoseconds(40)

    def __post_init__(self) -> None:
        if not (self.offsets_s and self.widths_s and self.depths_v):
            raise GlitchError("campaign grid axes cannot be empty")
        if self.repeats < 1:
            raise GlitchError("campaign repeats must be >= 1")
        if self.random_points < 0:
            raise GlitchError("random point count cannot be negative")
        unknown = set(self.legs) - set(LEGS)
        if not self.legs or unknown:
            raise GlitchError(
                f"campaign legs must be drawn from {LEGS}, got {self.legs}"
            )

    def grid_points(self) -> list[tuple[float, float, float]]:
        """The (offset, width, depth) grid in enumeration order."""
        return [
            (offset_s, width_s, depth_v)
            for offset_s in self.offsets_s
            for width_s in self.widths_s
            for depth_v in self.depths_v
        ]

    def random_pulses(self, seed: int) -> list[tuple[float, float, float]]:
        """Uniform random (offset, width, depth) samples over the grid's
        bounding box, drawn from a stream keyed by the campaign seed only
        — the same samples regardless of sharding or leg."""
        rng = generator(seed, "glitch", "random-search")
        points = []
        for _ in range(self.random_points):
            offset_s = float(rng.uniform(min(self.offsets_s), max(self.offsets_s)))
            width_s = float(rng.uniform(min(self.widths_s), max(self.widths_s)))
            depth_v = float(rng.uniform(min(self.depths_v), max(self.depths_v)))
            points.append((offset_s, width_s, depth_v))
        return points

    def brownout(self, leg: str) -> BrownOutDetector | None:
        """The detector for a leg (``None`` on the unprotected leg)."""
        if leg != "brownout":
            return None
        return BrownOutDetector(
            threshold_v=self.brownout_threshold_v,
            response_time_s=self.brownout_response_s,
        )


#: The default campaign: a 6×3×3 grid (offsets span the victim's ~44
#: instruction run at 10 ns each, clustered around the PIN guard at
#: ~410 ns), 2 repeats, plus 8 random samples, on both legs.
DEFAULT_SPEC = CampaignSpec(
    offsets_s=tuple(
        nanoseconds(offset) for offset in (0, 160, 280, 350, 360, 370)
    ),
    widths_s=(nanoseconds(20), nanoseconds(40), nanoseconds(50)),
    depths_v=(0.25, 0.4, 0.55),
    repeats=3,
)


@dataclass(frozen=True)
class GlitchAttempt:
    """One classified glitch attempt."""

    leg: str
    source: str  # "grid" or "random"
    offset_s: float
    width_s: float
    depth_v: float
    outcome: str
    termination: str
    instructions: int
    min_rail_v: float
    faults: dict[str, int] = field(default_factory=dict)


@dataclass
class CampaignResult:
    """Every attempt of a campaign, in plan enumeration order."""

    spec: CampaignSpec
    attempts: list[GlitchAttempt]

    def leg_attempts(self, leg: str) -> list[GlitchAttempt]:
        """The attempts of one leg."""
        return [a for a in self.attempts if a.leg == leg]

    def outcome_rates(self, leg: str) -> dict[str, float]:
        """Fraction of the leg's attempts per outcome class."""
        attempts = self.leg_attempts(leg)
        if not attempts:
            return {outcome: 0.0 for outcome in OUTCOMES}
        return {
            outcome: sum(1 for a in attempts if a.outcome == outcome)
            / len(attempts)
            for outcome in OUTCOMES
        }

    def exploitable_rate(self, leg: str) -> float:
        """Fraction of the leg's attempts that broke the PIN guard."""
        return self.outcome_rates(leg)["exploitable"]

    def success_map(self, leg: str) -> np.ndarray:
        """Exploitable-rate matrix over the grid, offsets × widths.

        Grid attempts only, pooled across depths and repeats — the
        campaign's success-rate map (render-figures draws it).
        """
        offsets = list(self.spec.offsets_s)
        widths = list(self.spec.widths_s)
        hits = np.zeros((len(offsets), len(widths)), dtype=np.float64)
        totals = np.zeros_like(hits)
        for attempt in self.leg_attempts(leg):
            if attempt.source != "grid":
                continue
            row = offsets.index(attempt.offset_s)
            col = widths.index(attempt.width_s)
            totals[row, col] += 1.0
            if attempt.outcome == "exploitable":
                hits[row, col] += 1.0
        return np.divide(
            hits, totals, out=np.zeros_like(hits), where=totals > 0
        )


# ----------------------------------------------------------------------
# Attempt execution (module-level: units must pickle)
# ----------------------------------------------------------------------


def _rig_waveform(board: Board, pulse: GlitchPulse, nominal_v: float) -> GlitchWaveform:
    """The die-seen waveform for a pulse driven into the rig's core net."""
    net = board.pdn.net("VDD_CORE")
    glitcher = BenchSupply(voltage_v=nominal_v, current_limit_a=5.0)
    return die_waveform(
        pulse, glitcher, net.decoupling, net.parasitics
    )


def _victim_write(unit: CoreUnit, board: Board, addr: int, data: bytes) -> None:
    """Write through the same path the victim uses (d-cache when on)."""
    if unit.l1d.enabled:
        unit.l1d.write(addr, data)
    else:
        board.soc.memory_map.write_block(addr, data)


def _victim_read(unit: CoreUnit, board: Board, addr: int, size: int) -> bytes:
    """Read through the same path the victim uses (d-cache when on)."""
    if unit.l1d.enabled:
        return unit.l1d.read(addr, size)
    return board.soc.memory_map.read_block(addr, size)


def _classify(
    termination: str, unit: CoreUnit, board: Board
) -> str:
    """Map an injection termination + the unlock flag to an outcome."""
    if termination == "reset":
        return "reset"
    if termination != "halted":
        return "crash"
    flag = int.from_bytes(_victim_read(unit, board, FLAG_ADDR, 8), "little")
    return "exploitable" if flag == 1 else "normal"


@functools.cache
def _victim_code(delay_iterations: int) -> bytes:
    """The PIN-check victim's machine code, assembled once per process."""
    return assemble(
        pin_check(FLAG_ADDR, ENTERED_PIN, STORED_PIN, delay_iterations)
    ).machine_code


def _one_attempt(
    board: Board,
    machine_code: bytes,
    waveform: GlitchWaveform,
    model: FaultModel,
    rng: np.random.Generator,
    spec: CampaignSpec,
    brownout: BrownOutDetector | None,
    leg: str,
    source: str,
    pulse: GlitchPulse,
) -> GlitchAttempt:
    """Run and classify a single glitch attempt on a prepared rig."""
    unit = board.soc.core(0)
    _victim_write(unit, board, FLAG_ADDR, bytes(8))
    core = Core(unit, board.soc.memory_map)
    core.load_program(machine_code, CODE_ADDR)
    injector = GlitchInjector(
        core, waveform, model, rng, spec.instruction_period_s, brownout
    )
    with OBS.span(
        "glitch.attempt",
        leg=leg,
        offset_s=pulse.offset_s,
        width_s=pulse.width_s,
        depth_v=pulse.depth_v,
    ):
        result = injector.run(max_steps=spec.max_steps)
    outcome = _classify(result.termination, unit, board)
    if OBS.enabled:
        OBS.counter_inc("glitch.attempts")
        OBS.counter_inc("glitch.outcomes", outcome=outcome)
        OBS.histogram_record("glitch.min_rail_v", result.min_rail_v)
    return GlitchAttempt(
        leg=leg,
        source=source,
        offset_s=pulse.offset_s,
        width_s=pulse.width_s,
        depth_v=pulse.depth_v,
        outcome=outcome,
        termination=result.termination,
        instructions=result.instructions,
        min_rail_v=result.min_rail_v,
        faults=result.faults,
    )


@shard_unit
def run_point(
    seed: int,
    leg: str,
    source: str,
    point_label: str,
    offset_s: float,
    width_s: float,
    depth_v: float,
    repeats: int,
    spec: CampaignSpec,
) -> list[GlitchAttempt]:
    """One work unit: all repeats of one (leg, pulse) campaign point.

    Each unit gets its own copy of the one booted rig
    (:func:`~repro.exec.runtime.booted_board`; repeats share it —
    residual cache state between repeats is real physics and
    deterministic within the unit), with per-attempt RNG streams keyed
    by the point's label so the draws are independent of sharding.
    """
    board = booted_board(glitch_rig, seed, BootMedia("victim-os"))
    machine_code = _victim_code(spec.delay_iterations)
    pulse = GlitchPulse(offset_s=offset_s, width_s=width_s, depth_v=depth_v)
    waveform = _rig_waveform(board, pulse, spec.nominal_v)
    model = default_fault_model(spec.nominal_v)
    brownout = spec.brownout(leg)
    attempts = []
    for repeat in range(repeats):
        rng = generator(
            seed, "glitch", leg, point_label, f"repeat{repeat}"
        )
        attempts.append(
            _one_attempt(
                board, machine_code, waveform, model, rng, spec,
                brownout, leg, source, pulse,
            )
        )
    return attempts


def shard_plan(seed: int, spec: CampaignSpec = DEFAULT_SPEC) -> ShardPlan:
    """Shardable axis: one unit per (leg, grid point) and per
    (leg, random sample)."""
    units: list[WorkUnit] = []
    random_points = spec.random_pulses(seed)
    for leg in spec.legs:
        for grid_index, (offset_s, width_s, depth_v) in enumerate(
            spec.grid_points()
        ):
            pulse = GlitchPulse(offset_s, width_s, depth_v)
            units.append(
                WorkUnit(
                    index=len(units),
                    fn=run_point,
                    args=(
                        seed, leg, "grid", f"grid{grid_index}",
                        offset_s, width_s, depth_v, spec.repeats, spec,
                    ),
                    label=f"glitch[{leg}:{pulse.label()}]",
                )
            )
        for rand_index, (offset_s, width_s, depth_v) in enumerate(
            random_points
        ):
            pulse = GlitchPulse(offset_s, width_s, depth_v)
            units.append(
                WorkUnit(
                    index=len(units),
                    fn=run_point,
                    args=(
                        seed, leg, "random", f"rand{rand_index}",
                        offset_s, width_s, depth_v, 1, spec,
                    ),
                    label=f"glitch[{leg}:rand:{pulse.label()}]",
                )
            )
    return ShardPlan(units)


# ----------------------------------------------------------------------
# OS-level glitched victim (the osim.noise interaction surface)
# ----------------------------------------------------------------------

#: Kernel working set placed inside the rig's 64 KB DRAM.
_OS_NOISE_BASE = 0x8000
_OS_NOISE_SPAN = 0x4000


def run_os_attempt(
    seed: int, offset_s: float, width_s: float, depth_v: float
) -> tuple[str, int, int, dict[str, int]]:
    """One glitched victim under the toy OS scheduler.

    Takes a copy of the booted rig
    (:func:`~repro.exec.runtime.booted_board`), starts
    :class:`~repro.osim.kernel.SimKernel` with
    kernel cache noise, and runs the PIN-check victim as a
    :class:`~repro.glitch.injector.GlitchedInterpretedProcess`.
    Returns ``(outcome, unlock_flag, instructions, noise_stats)`` —
    the jobs-equivalence suite asserts this tuple is identical however
    the attempts are sharded.
    """
    from ..osim.kernel import SimKernel
    from ..osim.noise import NoiseProfile

    board = booted_board(glitch_rig, seed, BootMedia("victim-os"))
    kernel = SimKernel(
        board,
        noise_profile=NoiseProfile(
            kernel_base=_OS_NOISE_BASE, kernel_span=_OS_NOISE_SPAN
        ),
        seed_label="glitch-os",
    )
    kernel.enable_caches()
    spec = DEFAULT_SPEC
    machine_code = _victim_code(spec.delay_iterations)
    pulse = GlitchPulse(offset_s=offset_s, width_s=width_s, depth_v=depth_v)
    waveform = _rig_waveform(board, pulse, spec.nominal_v)
    process = GlitchedInterpretedProcess(
        "pin-check",
        core_index=0,
        machine_code=machine_code,
        load_addr=CODE_ADDR,
        waveform=waveform,
        model=default_fault_model(spec.nominal_v),
        rng=generator(seed, "glitch", "os", pulse.label()),
        instruction_period_s=spec.instruction_period_s,
        steps_per_quantum=16,
    )
    # The kernel's DMA-maintenance sweep targets the victim's buffer
    # neighbourhood; point it at the unlock flag (the default 0x40000
    # working set would sit outside the rig's 64 KB DRAM).
    process.base_addr = FLAG_ADDR
    process.array_bytes = 0x2000
    kernel.spawn(process)
    try:
        kernel.run(max_rounds=spec.max_steps)
    except CpuFault:
        pass  # victim spun past the round budget: classified as hung
    unit = board.soc.core(0)
    flag = int.from_bytes(_victim_read(unit, board, FLAG_ADDR, 8), "little")
    outcome = process.outcome or "hung"
    retired = process._core.instructions_retired if process._core else 0
    return outcome, flag, retired, kernel.noise_stats()
