"""End-to-end integration: the paper's headline claims, in one place.

Each test tells one complete attack story across every layer of the
stack: victim software -> caches/registers/iRAM -> power network ->
probe -> reboot -> debug-interface extraction -> analysis.
"""

import pytest

from repro import ColdBootAttack, VoltBootAttack
from repro.analysis.keysearch import (
    recover_key_from_registers,
    search_aes128_schedules,
)
from repro.analysis.patterns import count_pattern_lines
from repro.cpu import Core, assemble, programs
from repro.crypto.aes import encrypt_block
from repro.crypto.onchip import CacheLockedAes, RegisterAes
from repro.devices import imx53_qsb, raspberry_pi_3, raspberry_pi_4
from repro.soc.bootrom import BootMedia
from repro.soc.jtag import JtagProbe

VICTIM = BootMedia("victim-os")
ATTACKER = BootMedia("attacker-usb")


class TestHeadlineClaims:
    def test_voltboot_beats_coldboot_on_the_same_victim(self):
        """The paper's core comparison, §3 vs §5."""
        results = {}
        for attack_name in ("coldboot", "voltboot"):
            board = raspberry_pi_4(seed=801)
            board.boot(VICTIM)
            unit = board.soc.core(0)
            cpu = Core(unit, board.soc.memory_map)
            cpu.load_program(
                assemble(programs.byte_pattern_store(0x40000, 4096)).machine_code,
                0x8000,
            )
            cpu.run(max_steps=50_000)
            if attack_name == "coldboot":
                result = ColdBootAttack(
                    board, temperature_c=-40.0, boot_media=ATTACKER
                ).execute()
            else:
                result = VoltBootAttack(
                    board, target="l1-caches", boot_media=ATTACKER
                ).execute()
            results[attack_name] = count_pattern_lines(
                result.cache_images.dcache(0), 0xAA
            )
        assert results["coldboot"] == 0
        assert results["voltboot"] == 64  # every line of the 4 KiB buffer

    def test_tresor_key_theft_from_vector_registers(self):
        """§7.2 + the TRESOR motivation: register AES keys are stolen."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        board = raspberry_pi_4(seed=802)
        board.boot(VICTIM)
        runtime = RegisterAes(board.soc.core(0))
        runtime.install_key(key)
        ciphertext = runtime.encrypt(b"disk sector 0000")
        assert ciphertext == encrypt_block(key, b"disk sector 0000")

        attack = VoltBootAttack(board, target="registers", boot_media=ATTACKER)
        result = attack.execute()
        hit = recover_key_from_registers(result.vector_registers[0])
        assert hit is not None and hit.key == key

    def test_case_style_cache_locked_schedule_recovered(self):
        """§7.1.2 closing remark: cache locking cannot evict the secret,
        so Volt Boot recovers the entire plain-text schedule."""
        key = bytes(range(16))
        board = raspberry_pi_4(seed=803)
        board.boot(VICTIM)
        CacheLockedAes(board.soc.core(0), schedule_addr=0x50000).install_key(key)
        result = VoltBootAttack(
            board, target="l1-caches", boot_media=ATTACKER
        ).execute()
        hits = search_aes128_schedules(result.cache_images.dcache(0))
        assert any(hit.key == key for hit in hits)

    def test_imx53_iram_attack_without_boot_media(self):
        """§7.3: internal-ROM boot means no media is needed at all."""
        board = imx53_qsb(seed=804)
        board.boot()
        jtag = JtagProbe(board.soc.memory_map)
        secret = bytes(range(256)) * 16
        jtag.write_block(0xF8008000, secret)  # outside the scratchpad
        result = VoltBootAttack(board, target="iram").execute()
        offset = 0x8000
        assert result.iram_image[offset : offset + len(secret)] == secret

    def test_both_broadcom_devices_full_icache_retention(self):
        """§7.1.1 across microarchitectures."""
        for builder in (raspberry_pi_4, raspberry_pi_3):
            board = builder(seed=805)
            board.boot(VICTIM)
            unit = board.soc.core(0)
            cpu = Core(unit, board.soc.memory_map)
            program = assemble(programs.nop_fill(4096))
            cpu.load_program(program.machine_code, 0x8000)
            cpu.run(max_steps=5000)
            before = [
                unit.l1i.raw_way_image(w)
                for w in range(unit.l1i.geometry.ways)
            ]
            result = VoltBootAttack(
                board, target="l1-caches", boot_media=ATTACKER, icache=True
            ).execute()
            assert result.cache_images.l1i[0] == before

    def test_probe_held_domain_survives_arbitrary_off_time(self):
        """§5: retention is indefinite — no decay variable remains."""
        board = raspberry_pi_4(seed=806)
        board.boot(VICTIM)
        unit = board.soc.core(0)
        unit.l1d.invalidate_all()
        unit.l1d.enabled = True
        unit.l1d.write(0x4000, b"\x77" * 64)
        attack = VoltBootAttack(
            board,
            target="l1-caches",
            boot_media=ATTACKER,
            off_time_s=3600.0,  # an hour dark
        )
        result = attack.execute()
        assert b"\x77" * 64 in result.cache_images.dcache(0)


class TestNegativeControls:
    def test_dram_cold_boot_still_works(self):
        """The classic attack regime must survive in the model: cold DRAM
        retains across a long cut while warm DRAM does not."""
        board = raspberry_pi_4(seed=807)
        board.main_memory.write_block(0x1000, b"dram secret!")
        board.set_temperature_c(-50.0)
        board.power_cycle(off_seconds=30.0)
        assert board.main_memory.read_block(0x1000, 12) == b"dram secret!"

        warm = raspberry_pi_4(seed=808)
        warm.main_memory.write_block(0x1000, b"dram secret!")
        warm.power_cycle(off_seconds=30.0)
        assert warm.main_memory.read_block(0x1000, 12) != b"dram secret!"

    def test_wrong_rail_probe_recovers_nothing(self):
        """Probing the IO rail does not hold the core domain."""
        from repro.circuits.supply import BenchSupply

        board = raspberry_pi_4(seed=809)
        board.boot(VICTIM)
        unit = board.soc.core(0)
        unit.l1d.invalidate_all()
        unit.l1d.enabled = True
        unit.l1d.write(0x4000, b"\xaa" * 64)
        board.attach_probe("TP2", BenchSupply(3.3))  # IO rail pad
        board.unplug()
        board.wait(10.0)
        board.plug_in()
        board.boot(ATTACKER)
        from repro.core.extraction import extract_l1_images

        images = extract_l1_images(board)
        assert b"\xaa" * 64 not in images.dcache(0)
