"""OS simulation: processes, kernel noise, scheduling."""

import numpy as np
import pytest

from repro.circuits.manufacture import Snapshot
from repro.cpu.assembler import assemble
from repro.cpu.programs import byte_pattern_store, element_value
from repro.devices import raspberry_pi_4
from repro.errors import BootError, CpuFault
from repro.osim.kernel import SimKernel
from repro.osim.noise import KernelNoise, NoiseProfile
from repro.osim.process import ArrayFillProcess, InterpretedProcess
from repro.rng import generator
from repro.soc.bootrom import BootMedia


@pytest.fixture(scope="module")
def booted_board():
    board = raspberry_pi_4(seed=301)
    board.boot(BootMedia("os"))
    return board


class TestNoiseProfile:
    def test_negative_rates_rejected(self):
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            NoiseProfile(fill_lines=-1.0)


class TestKernelLifecycle:
    def test_kernel_requires_booted_board(self):
        board = raspberry_pi_4(seed=302)
        with pytest.raises(BootError):
            SimKernel(board)

    def test_enable_caches(self, booted_board):
        kernel = SimKernel(booted_board)
        kernel.enable_caches()
        assert all(
            c.l1d.enabled and c.l1i.enabled for c in booted_board.soc.cores
        )

    def test_run_without_processes_faults(self, booted_board):
        kernel = SimKernel(booted_board)
        with pytest.raises(CpuFault):
            kernel.run_round()

    def test_spawn_validates_core_index(self, booted_board):
        kernel = SimKernel(booted_board)
        from repro.errors import PowerError

        with pytest.raises(PowerError):
            kernel.spawn(ArrayFillProcess("p", 99, 0x40000, 8))


class TestArrayFillProcess:
    def test_completes_and_leaves_elements_in_cache(self):
        board = raspberry_pi_4(seed=303)
        board.boot(BootMedia("os"))
        kernel = SimKernel(board, seed_label="t-fill")
        kernel.enable_caches()
        process = ArrayFillProcess("p", 0, 0x40000, n_elements=64, passes=1)
        kernel.spawn(process)
        rounds = kernel.run()
        assert process.finished
        assert rounds >= 1
        unit = board.soc.core(0)
        image = unit.l1d.raw_way_image(0) + unit.l1d.raw_way_image(1)
        assert element_value(0).to_bytes(8, "little") in image

    def test_element_bytes_match_program_encoding(self):
        process = ArrayFillProcess("p", 0, 0x40000, 8)
        assert process.element_bytes(3) == element_value(3).to_bytes(8, "little")

    def test_array_bytes(self):
        assert ArrayFillProcess("p", 0, 0x40000, 512).array_bytes == 4096

    def test_invalid_counts_rejected(self):
        with pytest.raises(CpuFault):
            ArrayFillProcess("p", 0, 0x40000, n_elements=0)


def _per_element_quantum(process, unit):
    """The one-write-one-read-per-element loop the batched quantum equals."""
    if process.finished:
        return
    cache = unit.l1d
    for _ in range(process.elements_per_quantum):
        addr = process.base_addr + process._cursor * 8
        cache.write(addr, process.element_bytes(process._cursor))
        cache.read(addr, 8)
        process._cursor += 1
        if process._cursor >= process.n_elements:
            process._cursor = 0
            process._pass += 1
            if process._pass >= process.passes:
                process.finished = True
                return


def _cache_state(cache):
    """Everything a quantum can change in one cache, LRU as an order."""
    return {
        "data": [ram.read_bytes() for ram in cache.data_rams],
        "tags": list(cache.tags.words()),
        "lru_order": np.argsort(
            np.reshape(cache._lru, (cache.geometry.sets, -1)),
            axis=1, kind="stable",
        ).tolist(),
        "rr_pointer": list(cache._rr_pointer),
        "victim_rng": cache._victim_rng.bit_generator.state,
    }


@pytest.fixture(scope="module")
def fill_template():
    board = raspberry_pi_4(seed=307)
    board.boot(BootMedia("os"))
    SimKernel(board, seed_label="t-batch").enable_caches()
    # The L2 is off after boot; turn it on so L1D victims land in it.
    board.soc.l2.invalidate_all()
    board.soc.l2.enabled = True
    return Snapshot(board)


class TestArrayFillBatching:
    """Line-batched quanta leave the caches as the per-element loop does.

    Cases: an unaligned base (elements straddle lines), passes that wrap
    mid-quantum, element counts that are not a multiple of eight, and
    arrays larger than the 32 KiB L1D, so dirty victims reach the
    (enabled) L2.
    """

    @pytest.mark.parametrize("policy", ["lru", "round-robin", "random"])
    @pytest.mark.parametrize(
        "base_offset, n_elements, per_quantum",
        [(4, 5001, 64), (0, 4100, 37), (24, 13, 64)],
    )
    def test_matches_per_element_loop(
        self, fill_template, policy, base_offset, n_elements, per_quantum
    ):
        states = []
        for run in (_per_element_quantum, None):
            board = fill_template.restore()
            unit = board.soc.core(0)
            unit.l1d.replacement = policy
            process = ArrayFillProcess(
                "p", 0, 0x40000 + base_offset, n_elements,
                passes=3, elements_per_quantum=per_quantum,
            )
            quanta = 0
            while not process.finished:
                if run is None:
                    process.quantum(unit, board.soc.memory_map)
                else:
                    run(process, unit)
                quanta += 1
            states.append((
                quanta,
                _cache_state(unit.l1d),
                _cache_state(board.soc.l2),
            ))
        assert states[0] == states[1]


class TestInterpretedProcess:
    def test_runs_machine_code_to_completion(self):
        board = raspberry_pi_4(seed=304)
        board.boot(BootMedia("os"))
        kernel = SimKernel(board, seed_label="t-interp")
        kernel.enable_caches()
        program = assemble(byte_pattern_store(0x40000, 512, pattern=0x77))
        process = InterpretedProcess("app", 0, program.machine_code, 0x8000)
        kernel.spawn(process)
        kernel.run()
        assert process.finished
        unit = board.soc.core(0)
        image = unit.l1d.raw_way_image(0) + unit.l1d.raw_way_image(1)
        assert b"\x77" * 64 in image


class TestNoiseEffects:
    def test_noise_statistics_accumulate(self):
        board = raspberry_pi_4(seed=305)
        board.boot(BootMedia("os"))
        SimKernel(board).enable_caches()
        noise = KernelNoise(
            NoiseProfile(fill_lines=4.0, maintenance_lines=1.0),
            generator(305, "t-noise"),
            victim_base=0x40000,
            victim_span=0x800,
        )
        for _ in range(32):
            noise.interfere(board.soc.core(0))
        assert noise.fills_done > 0
        assert noise.maintenance_done > 0

    def test_warm_caches_fills_every_line(self):
        board = raspberry_pi_4(seed=306)
        board.boot(BootMedia("os"))
        kernel = SimKernel(board, seed_label="t-warm")
        kernel.enable_caches()
        kernel.warm_caches()
        unit = board.soc.core(0)
        valid = sum(
            1
            for index in range(unit.l1d.geometry.sets)
            for way in range(unit.l1d.geometry.ways)
            if unit.l1d.raw_tag_entry(index, way)[1]
        )
        total = unit.l1d.geometry.sets * unit.l1d.geometry.ways
        assert valid > total * 0.5
