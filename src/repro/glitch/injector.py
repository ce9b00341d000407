"""Instruction-granular fault injection into the CPU interpreter.

:class:`GlitchInjector` wraps a :class:`~repro.cpu.core.Core` without
forking it: each :meth:`step` maps the core's retired-instruction count
to a time on the glitch waveform, samples the fault model at that
instant's rail voltage, and either lets the core step normally or
applies one architectural fault:

* **skip** — the instruction never executes (a timing fault in the
  issue logic); the PC advances past it;
* **corrupt-result** — the instruction executes but a random bit of its
  destination register flips on the way to writeback;
* **corrupt-fetch** — a random bit of the fetched encoding flips before
  decode, via the core's one-shot ``fetch_override`` seam (an
  undecodable corruption is an undefined-instruction fault).

A :class:`~repro.glitch.faultmodel.BrownOutDetector` hook raises
:class:`~repro.errors.BrownOutReset` the moment execution time crosses
the detector's trip point, so campaigns can score the countermeasure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cpu.core import Core
from ..cpu.isa import XZR, decode
from ..errors import BrownOutReset, CpuFault, GlitchError, ReproError
from ..obs import OBS
from ..units import nanoseconds
from .faultmodel import BrownOutDetector, FaultKind, FaultModel
from .waveform import GlitchWaveform

#: Default instruction period: a 100 MHz embedded-class clock, so a
#: handful of instructions spans the nanosecond-scale glitch widths.
DEFAULT_INSTRUCTION_PERIOD_S = nanoseconds(10)

@dataclass
class InjectionResult:
    """How one glitched execution ended."""

    termination: str  # "halted" | "hung" | "crashed" | "reset"
    instructions: int
    faults: dict[str, int] = field(default_factory=dict)
    min_rail_v: float = 0.0
    detail: str = ""


def _first_index_at(time_s: float, period_s: float) -> int:
    """The first instruction index ``k`` with ``k * period_s >= time_s``,
    in the float arithmetic :meth:`GlitchInjector.elapsed_s` uses."""
    k = max(0, math.ceil(time_s / period_s))
    while k > 0 and (k - 1) * period_s >= time_s:
        k -= 1
    while k * period_s < time_s:
        k += 1
    return k


class GlitchInjector:
    """Applies a fault model to a core, one instruction at a time."""

    def __init__(
        self,
        core: Core,
        waveform: GlitchWaveform,
        model: FaultModel,
        rng: np.random.Generator,
        instruction_period_s: float = DEFAULT_INSTRUCTION_PERIOD_S,
        brownout: BrownOutDetector | None = None,
    ) -> None:
        if instruction_period_s <= 0.0:
            raise GlitchError("instruction period must be positive")
        self.core = core
        self.waveform = waveform
        self.model = model
        self.instruction_period_s = instruction_period_s
        self._rng = rng
        self._start_retired = core.instructions_retired
        self._trip_time_s = (
            brownout.trip_time(waveform) if brownout is not None else None
        )
        self.fault_counts: dict[str, int] = {k.value: 0 for k in FaultKind}
        self.min_rail_v = waveform.nominal_v
        self.brownout_tripped = False
        self._quiet_rails, self._quiet_end = self._fault_free_steps()

    def _fault_free_steps(self) -> tuple[list[float | None], float]:
        """Where no fault can land, indexed by retired instructions.

        Entry ``k`` of the list is the rail voltage :meth:`step` would
        see at index ``k`` when that rail is at or above the fault
        onset (``sample`` draws nothing there) and the brown-out has not
        tripped, else ``None``.  Indices past the list's end lie past
        the waveform, at its nominal rail; those below the returned
        bound cannot fault.  The times are ``k * instruction_period_s``
        and the rails one vectorised :func:`numpy.interp`, both exactly
        what :meth:`elapsed_s` and ``voltage_at`` compute per step.
        """
        waveform = self.waveform
        period = self.instruction_period_s
        inside = _first_index_at(float(waveform.time_s[-1]), period)
        times = np.arange(inside) * period
        rails = np.interp(times, waveform.time_s, waveform.voltage_v).tolist()
        trip_index = (
            math.inf
            if self._trip_time_s is None
            else _first_index_at(self._trip_time_s, period)
        )
        onset = self.model.fault_onset_v
        quiet = [
            rail if rail >= onset and k < trip_index else None
            for k, rail in enumerate(rails)
        ]
        return quiet, trip_index if waveform.nominal_v >= onset else 0

    def elapsed_s(self) -> float:
        """Execution time since injection started (retired × period)."""
        return (
            self.core.instructions_retired - self._start_retired
        ) * self.instruction_period_s

    def step(self) -> None:
        """Advance the victim by one (possibly faulted) instruction."""
        core = self.core
        if core.halted:
            raise CpuFault("core is halted")
        t_s = self.elapsed_s()
        if self._trip_time_s is not None and t_s >= self._trip_time_s:
            self.brownout_tripped = True
            if OBS.enabled:
                OBS.event("glitch.brownout-reset", time_s=t_s)
            raise BrownOutReset(self._trip_time_s)
        rail_v = self.waveform.voltage_at(t_s)
        if rail_v < self.min_rail_v:
            self.min_rail_v = rail_v
        kind = self.model.sample(rail_v, self._rng)
        if kind is None:
            core.step()
            return
        self.fault_counts[kind.value] += 1
        if OBS.enabled:
            OBS.counter_inc("glitch.faults", kind=kind.value)
        if kind is FaultKind.SKIP:
            self._fault_skip()
        elif kind is FaultKind.CORRUPT_RESULT:
            self._fault_corrupt_result()
        else:
            self._fault_corrupt_fetch()

    def run(self, max_steps: int = 10_000) -> InjectionResult:
        """Step until HLT, a crash, a reset, or the step budget.

        Where no fault can land (:meth:`_fault_free_steps`) the core
        steps directly: :meth:`step` would draw nothing and apply no
        fault there.  Every other instruction goes through :meth:`step`.
        """
        core = self.core
        start = self._start_retired
        quiet_rails = self._quiet_rails
        n_rails = len(quiet_rails)
        quiet_end = self._quiet_end
        termination = "hung"
        detail = f"no HLT within {max_steps} steps"
        try:
            for _ in range(max_steps):
                if core.halted:
                    break
                index = core.instructions_retired - start
                if index < n_rails:
                    rail_v = quiet_rails[index]
                    if rail_v is not None:
                        if rail_v < self.min_rail_v:
                            self.min_rail_v = rail_v
                        core.step()
                        continue
                elif index < quiet_end:
                    core.step()
                    continue
                self.step()
            if core.halted:
                termination, detail = "halted", ""
        except BrownOutReset as reset:
            termination = "reset"
            detail = str(reset)
        except ReproError as error:
            termination = "crashed"
            detail = str(error)
        return InjectionResult(
            termination=termination,
            instructions=self.core.instructions_retired
            - self._start_retired,
            faults=dict(self.fault_counts),
            min_rail_v=self.min_rail_v,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------

    def _peek_raw(self) -> bytes | None:
        """The next instruction's true encoding, without touching caches."""
        try:
            return self.core.memory_map.read_block(self.core.pc, 4)
        except ReproError:
            return None

    def _fault_skip(self) -> None:
        """The instruction issues but never executes; PC walks past it."""
        self.core.pc += 4
        self.core.instructions_retired += 1

    def _fault_corrupt_result(self) -> None:
        """Execute normally, then flip one bit of the destination register.

        Instructions without a GPR destination (stores, branches,
        barriers) execute unharmed — the latched glitch hit a path that
        was not exercised.  The bit draw happens regardless, keeping
        the RNG stream aligned with the instruction index.
        """
        raw = self._peek_raw()
        self.core.step()
        bit = int(self._rng.integers(0, 64))
        if raw is None:
            return
        instr = decode(raw)
        if instr.opcode.writes_x and instr.a != XZR:
            flipped = self.core.read_x(instr.a) ^ (1 << bit)
            self.core.write_x(instr.a, flipped)

    def _fault_corrupt_fetch(self) -> None:
        """Flip one bit of the fetched encoding before decode."""
        raw = self._peek_raw()
        if raw is None:
            self.core.step()
            return
        bit = int(self._rng.integers(0, 32))
        corrupted = bytearray(raw)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        try:
            instr = decode(bytes(corrupted))
        except CpuFault:
            raise CpuFault(
                f"glitched fetch at pc={self.core.pc:#x} decoded to an "
                f"undefined instruction"
            ) from None
        self.core.fetch_override = instr
        self.core.step()
