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
from ..errors import GlitchError
from ..exec import ShardPlan, WorkUnit, booted_board, shard_unit
from ..obs import OBS
from ..rng import generator
from ..soc.board import Board
from ..soc.bootrom import BootMedia
from ..units import nanoseconds
from .faultmodel import BrownOutDetector, FaultModel, default_fault_model
from .injector import DEFAULT_INSTRUCTION_PERIOD_S, GlitchInjector
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


def _unlock_flag(board: Board) -> int:
    """The victim's unlock flag, read through the path the victim uses
    (the d-cache when it is on)."""
    unit = board.soc.core(0)
    if unit.l1d.enabled:
        raw = unit.l1d.read(FLAG_ADDR, 8)
    else:
        raw = board.soc.memory_map.read_block(FLAG_ADDR, 8)
    return int.from_bytes(raw, "little")


@functools.cache
def _victim_code(delay_iterations: int) -> bytes:
    """The PIN-check victim's machine code, assembled once per process."""
    return assemble(
        pin_check(FLAG_ADDR, ENTERED_PIN, STORED_PIN, delay_iterations)
    ).machine_code


def _prepared_rig(
    seed: int, pulse: GlitchPulse, spec: CampaignSpec
) -> tuple[Board, bytes, GlitchWaveform, FaultModel]:
    """A copy of the booted rig, the victim's code, the die-seen
    waveform of ``pulse`` and the fault model: what every attempt
    shares."""
    board = booted_board(glitch_rig, seed, BootMedia("victim-os"))
    return (
        board,
        _victim_code(spec.delay_iterations),
        _rig_waveform(board, pulse, spec.nominal_v),
        default_fault_model(spec.nominal_v),
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
    pulse = GlitchPulse(offset_s=offset_s, width_s=width_s, depth_v=depth_v)
    board, machine_code, waveform, model = _prepared_rig(seed, pulse, spec)
    brownout = spec.brownout(leg)
    unit = board.soc.core(0)
    attempts = []
    for repeat in range(repeats):
        rng = generator(
            seed, "glitch", leg, point_label, f"repeat{repeat}"
        )
        if unit.l1d.enabled:
            unit.l1d.write(FLAG_ADDR, bytes(8))
        else:
            board.soc.memory_map.write_block(FLAG_ADDR, bytes(8))
        core = Core(unit, board.soc.memory_map)
        core.load_program(machine_code, CODE_ADDR)
        injector = GlitchInjector(
            core, waveform, model, rng, spec.instruction_period_s, brownout
        )
        with OBS.span(
            "glitch.attempt",
            leg=leg,
            offset_s=offset_s,
            width_s=width_s,
            depth_v=depth_v,
        ):
            result = injector.run(max_steps=spec.max_steps)
        if result.termination == "halted":
            outcome = "exploitable" if _unlock_flag(board) == 1 else "normal"
        else:
            outcome = "reset" if result.termination == "reset" else "crash"
        if OBS.enabled:
            OBS.counter_inc("glitch.attempts")
            OBS.counter_inc("glitch.outcomes", outcome=outcome)
            OBS.histogram_record("glitch.min_rail_v", result.min_rail_v)
        attempts.append(
            GlitchAttempt(
                leg=leg,
                source=source,
                offset_s=offset_s,
                width_s=width_s,
                depth_v=depth_v,
                outcome=outcome,
                termination=result.termination,
                instructions=result.instructions,
                min_rail_v=result.min_rail_v,
                faults=result.faults,
            )
        )
    return attempts


def shard_plan(seed: int, spec: CampaignSpec = DEFAULT_SPEC) -> ShardPlan:
    """Shardable axis: one unit per (leg, grid point) and per
    (leg, random sample)."""
    points = [
        ("grid", f"grid{i}", "", point, spec.repeats)
        for i, point in enumerate(spec.grid_points())
    ] + [
        ("random", f"rand{i}", "rand:", point, 1)
        for i, point in enumerate(spec.random_pulses(seed))
    ]
    units: list[WorkUnit] = []
    for leg in spec.legs:
        for source, point_label, tag, point, repeats in points:
            units.append(
                WorkUnit(
                    index=len(units),
                    fn=run_point,
                    args=(
                        seed, leg, source, point_label, *point, repeats,
                        spec,
                    ),
                    label=f"glitch[{leg}:{tag}{GlitchPulse(*point).label()}]",
                )
            )
    return ShardPlan(units)
