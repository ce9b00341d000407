"""Instruction-granular fault application on the interpreter core."""

import numpy as np
import pytest

from repro.cpu.assembler import assemble
from repro.cpu.core import Core
from repro.cpu.isa import decode
from repro.devices import glitch_rig
from repro.errors import BrownOutReset, GlitchError, ReproError
from repro.glitch.faultmodel import (
    BrownOutDetector,
    FaultModel,
    default_fault_model,
)
from repro.glitch.injector import GlitchInjector, InjectionResult
from repro.glitch.waveform import GlitchWaveform
from repro.rng import generator
from repro.soc.bootrom import BootMedia
from repro.units import nanoseconds

CODE_ADDR = 0x2000

#: A victim that computes x1 = 5 + 7 then halts.
ADD_PROGRAM = """
    ldi  x1, #5
    ldi  x2, #7
    add  x1, x1, x2
    hlt
"""


def _flat_waveform(voltage_v: float, nominal_v: float = 0.8) -> GlitchWaveform:
    time_s = np.arange(2048, dtype=np.float64) * nanoseconds(1)
    return GlitchWaveform(
        time_s=time_s,
        voltage_v=np.full_like(time_s, voltage_v),
        nominal_v=nominal_v,
    )


def _fresh_core() -> Core:
    board = glitch_rig(seed=11)
    board.boot(BootMedia("victim-os"))
    core = Core(board.soc.core(0), board.soc.memory_map)
    core.load_program(assemble(ADD_PROGRAM).machine_code, CODE_ADDR)
    return core


def _injector(core: Core, rail_v: float, **kwargs) -> GlitchInjector:
    return GlitchInjector(
        core,
        _flat_waveform(rail_v),
        default_fault_model(0.8),
        generator(3, "inj", f"{rail_v}"),
        **kwargs,
    )


class TestGlitchInjector:
    def test_nominal_rail_executes_cleanly(self):
        core = _fresh_core()
        result = _injector(core, 0.8).run()
        assert result.termination == "halted"
        assert result.faults == {
            "skip": 0, "corrupt-result": 0, "corrupt-fetch": 0
        }
        assert core.read_x(1) == 12

    def test_halting_on_the_last_budgeted_step_is_halted(self):
        # ADD_PROGRAM retires four instructions, the last its HLT.
        result = _injector(_fresh_core(), 0.8).run(max_steps=4)
        assert (result.termination, result.instructions) == ("halted", 4)
        assert result.detail == ""

    def test_one_step_short_of_hlt_is_hung(self):
        result = _injector(_fresh_core(), 0.8).run(max_steps=3)
        assert (result.termination, result.instructions) == ("hung", 3)
        assert result.detail == "no HLT within 3 steps"

    def test_deep_undervolt_faults_every_instruction(self):
        core = _fresh_core()
        result = _injector(core, 0.2).run(max_steps=64)
        assert sum(result.faults.values()) > 0
        # Whatever happened, it was not a clean run to x1 == 12 with
        # zero faults: the victim crashed, hung, or mis-computed.
        clean = result.termination == "halted" and core.read_x(1) == 12
        assert not clean or sum(result.faults.values()) > 0

    def test_skip_fault_advances_pc_without_executing(self):
        core = _fresh_core()
        injector = _injector(core, 0.8)
        before_pc = core.pc
        before_x1 = core.read_x(1)  # boot-code residue, not 5
        injector._fault_skip()
        assert core.pc == before_pc + 4
        assert core.instructions_retired == 1
        assert core.read_x(1) == before_x1  # the LDI never ran

    def test_corrupt_result_flips_one_destination_bit(self):
        core = _fresh_core()
        injector = _injector(core, 0.8)
        injector._fault_corrupt_result()
        value = core.read_x(1)
        # x1 should be 5 with exactly one bit flipped (or 5 if the
        # draw hit the same value-bit... impossible: XOR always flips).
        assert value != 5
        assert bin(value ^ 5).count("1") == 1

    def test_corrupt_fetch_uses_override_seam(self):
        core = _fresh_core()
        injector = _injector(core, 0.8)
        injector._fault_corrupt_fetch()
        # The override is one-shot and consumed by the step.
        assert core.fetch_override is None
        assert core.instructions_retired == 1

    def test_fetch_override_is_one_shot_on_core(self):
        core = _fresh_core()
        instr = decode(assemble("    ldi x9, #42\n    hlt\n").machine_code[:4])
        core.fetch_override = instr
        core.step()
        assert core.read_x(9) == 42
        assert core.fetch_override is None
        # Next step fetches normally from memory again.
        core.step()
        assert core.read_x(1) == 0 or core.read_x(2) == 7

    def test_brownout_raises_reset(self):
        core = _fresh_core()
        injector = GlitchInjector(
            core,
            _flat_waveform(0.5),
            default_fault_model(0.8),
            generator(3, "inj", "bod"),
            brownout=BrownOutDetector(
                threshold_v=0.66, response_time_s=nanoseconds(20)
            ),
        )
        result = injector.run(max_steps=64)
        assert result.termination == "reset"
        assert injector.brownout_tripped

    def test_min_rail_tracked(self):
        core = _fresh_core()
        injector = _injector(core, 0.7)
        injector.run()
        assert injector.min_rail_v == pytest.approx(0.7)

    def test_invalid_period_rejected(self):
        core = _fresh_core()
        with pytest.raises(GlitchError):
            GlitchInjector(
                core,
                _flat_waveform(0.8),
                default_fault_model(0.8),
                generator(3, "inj", "bad"),
                instruction_period_s=0.0,
            )

    def test_same_stream_is_reproducible(self):
        outcomes = []
        for _ in range(2):
            core = _fresh_core()
            injector = GlitchInjector(
                core,
                _flat_waveform(0.5),
                default_fault_model(0.8),
                generator(9, "inj", "repro"),
            )
            result = injector.run(max_steps=64)
            outcomes.append(
                (result.termination, result.instructions, result.faults)
            )
        assert outcomes[0] == outcomes[1]


def _stepwise_run(injector: GlitchInjector, max_steps: int) -> InjectionResult:
    """The reference loop: one :meth:`GlitchInjector.step` per
    instruction, however far the rail is from faulting."""
    core = injector.core
    start = core.instructions_retired
    termination = "hung"
    try:
        for _ in range(max_steps):
            if core.halted:
                break
            injector.step()
        if core.halted:
            termination = "halted"
    except BrownOutReset:
        termination = "reset"
    except ReproError:
        termination = "crashed"
    return InjectionResult(
        termination=termination,
        instructions=core.instructions_retired - start,
        faults=dict(injector.fault_counts),
        min_rail_v=injector.min_rail_v,
    )


def _assert_same_run(reference, windowed, reference_rng, windowed_rng):
    assert windowed.termination == reference.termination
    assert windowed.instructions == reference.instructions
    assert windowed.faults == reference.faults
    assert windowed.min_rail_v.hex() == reference.min_rail_v.hex()
    assert (
        windowed_rng.bit_generator.state == reference_rng.bit_generator.state
    )


class _TripAt:
    """A brown-out detector stand-in that trips at a given time."""

    def __init__(self, time_s: float) -> None:
        self.time_s = time_s

    def trip_time(self, waveform: GlitchWaveform) -> float:
        return self.time_s


#: A straight-line victim long enough to outlast every edge-case
#: waveform below: 48 register writes, then HLT.
LONG_PROGRAM = "".join(
    f"    ldi  x{1 + i % 8}, #{i}\n" for i in range(48)
) + "    hlt\n"


class TestFaultFreeWindow:
    """:meth:`GlitchInjector.run` steps the core directly where no fault
    can land; every run must end as the one-``step()``-per-instruction
    loop ends it, with the same draws taken."""

    @staticmethod
    def _pair(waveform, model, brownout, max_steps):
        runs = []
        for loop in (_stepwise_run, GlitchInjector.run):
            core = _fresh_core()
            core.load_program(assemble(LONG_PROGRAM).machine_code, CODE_ADDR)
            rng = generator(23, "window")
            injector = GlitchInjector(
                core, waveform, model, rng, nanoseconds(10), brownout
            )
            runs.append((loop(injector, max_steps), rng))
        (reference, reference_rng), (windowed, windowed_rng) = runs
        _assert_same_run(reference, windowed, reference_rng, windowed_rng)
        return windowed

    @pytest.mark.parametrize("leg", ["unprotected", "brownout"])
    def test_every_campaign_pulse_ends_as_the_stepwise_loop(self, leg):
        from repro.glitch.campaign import (
            CODE_ADDR as VICTIM_ADDR,
            DEFAULT_SPEC as spec,
            _prepared_rig,
        )
        from repro.glitch.waveform import GlitchPulse

        brownout = spec.brownout(leg)
        pulses = spec.grid_points() + spec.random_pulses(2022)
        terminations = set()
        for index, point in enumerate(pulses):
            pulse = GlitchPulse(*point)
            runs = []
            for loop in (_stepwise_run, GlitchInjector.run):
                board, code, waveform, model = _prepared_rig(2022, pulse, spec)
                core = Core(board.soc.core(0), board.soc.memory_map)
                core.load_program(code, VICTIM_ADDR)
                rng = generator(2022, "window", leg, f"pulse{index}")
                injector = GlitchInjector(
                    core, waveform, model, rng,
                    spec.instruction_period_s, brownout,
                )
                runs.append((loop(injector, spec.max_steps), rng))
            (reference, reference_rng), (windowed, windowed_rng) = runs
            _assert_same_run(reference, windowed, reference_rng, windowed_rng)
            terminations.add(windowed.termination)
        expected = {"halted", "crashed"} | (
            {"reset"} if leg == "brownout" else set()
        )
        assert expected <= terminations

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_brownout_trip_on_an_instruction_boundary(self, ulps):
        """A trip exactly at ``k * period`` resets before instruction
        ``k``; one ulp later it resets before ``k + 1``."""
        boundary = 7 * nanoseconds(10)
        trip_s = boundary
        for _ in range(abs(ulps)):
            trip_s = np.nextafter(trip_s, np.inf if ulps > 0 else -np.inf)
        result = self._pair(
            _flat_waveform(0.7),  # above the 0.64 V onset: no step faults
            default_fault_model(0.8),
            _TripAt(float(trip_s)),
            max_steps=64,
        )
        assert result.termination == "reset"
        assert result.instructions == (8 if ulps > 0 else 7)

    @pytest.mark.parametrize("end_instructions", [4.75, 5])
    @pytest.mark.parametrize("nominal_v", [0.8, 0.6])
    def test_waveform_ending_mid_instruction(
        self, end_instructions, nominal_v
    ):
        """The waveform ends inside instruction 4's period or exactly
        at instruction 5.  The last rails inside it can fault; past its
        end the rail is nominal, which cannot fault at 0.8 V and can at
        0.6 V (below the 0.64 V onset)."""
        end_s = end_instructions * nanoseconds(10)
        time_s = np.linspace(0.0, end_s, 96)
        assert float(time_s[-1]) == end_s
        voltage_v = np.where(time_s < nanoseconds(30), nominal_v, 0.5)
        waveform = GlitchWaveform(
            time_s=time_s, voltage_v=voltage_v, nominal_v=nominal_v
        )
        result = self._pair(
            waveform, default_fault_model(0.8), None, max_steps=64
        )
        assert sum(result.faults.values()) > 0
        assert result.instructions > 6  # ran past the waveform's end

    def test_the_rail_at_the_waveform_end_is_nominal(self):
        """A waveform whose last sample lands on instruction 5: the rail
        there is nominal, not the last sample, so a ramp that ends at
        its lowest point leaves ``min_rail_v`` at instruction 4."""
        end_s = 5 * nanoseconds(10)
        time_s = np.linspace(0.0, end_s, 96)
        waveform = GlitchWaveform(
            time_s=time_s,
            voltage_v=np.linspace(0.8, 0.66, 96),  # never below onset
            nominal_v=0.8,
        )
        result = self._pair(
            waveform, default_fault_model(0.8), None, max_steps=64
        )
        assert result.termination == "halted"
        assert result.min_rail_v == waveform.voltage_at(4 * nanoseconds(10))
        assert result.min_rail_v > 0.66
