"""Volt Boot and cold boot pipelines."""

import pytest

from repro import obs
from repro.circuits.supply import BenchSupply
from repro.core.coldboot import ColdBootAttack
from repro.core.extraction import (
    extract_iram,
    extract_l1_images,
    extract_vector_registers,
)
from repro.core.voltboot import VoltBootAttack
from repro.devices import imx53_qsb, raspberry_pi_4
from repro.errors import AttackError
from repro.soc.bootrom import BootMedia

MEDIA = BootMedia("attacker-usb")


def victim_pi4(seed=601):
    board = raspberry_pi_4(seed=seed)
    board.boot(BootMedia("victim"))
    unit = board.soc.core(0)
    unit.l1d.invalidate_all()
    unit.l1d.enabled = True
    unit.l1d.write(0x4000, b"\xaa" * 64)
    return board


class TestVoltBootPipeline:
    def test_full_pipeline_recovers_pattern(self):
        board = victim_pi4()
        attack = VoltBootAttack(board, target="l1-caches", boot_media=MEDIA)
        result = attack.execute()
        assert result.surge_clean
        assert b"\xaa" * 64 in result.cache_images.dcache(0)

    def test_power_cycle_requires_attach(self):
        board = victim_pi4(seed=602)
        attack = VoltBootAttack(board, target="l1-caches", boot_media=MEDIA)
        with pytest.raises(AttackError):
            attack.power_cycle()

    def test_extract_requires_pipeline(self):
        board = victim_pi4(seed=603)
        attack = VoltBootAttack(board, target="l1-caches", boot_media=MEDIA)
        with pytest.raises(AttackError):
            attack.extract()

    def test_cleanup_detaches_probe(self):
        board = victim_pi4(seed=604)
        attack = VoltBootAttack(board, target="l1-caches", boot_media=MEDIA)
        attack.execute()
        attack.cleanup()
        # The pad is free again: a second probe lands without a clash.
        board.attach_probe("TP15", BenchSupply(0.8))

    def test_unknown_target_extraction_rejected(self):
        board = victim_pi4(seed=605)
        attack = VoltBootAttack(board, target="l2", boot_media=MEDIA)
        attack.identify()
        attack.attach()
        attack.power_cycle()
        attack.reboot()
        with pytest.raises(AttackError):
            attack.extract()

    def test_vector_registers_extracted_with_caches(self):
        board = victim_pi4(seed=606)
        board.soc.core(0).vreg.write_bytes(0, b"\x5a" * 16)
        attack = VoltBootAttack(board, target="registers", boot_media=MEDIA)
        result = attack.execute()
        assert result.vector_registers[0][0] == b"\x5a" * 16
        assert result.cache_images is None  # registers only

    def test_cache_dump_skips_the_icache_unless_asked(self):
        board = victim_pi4(seed=616)
        attack = VoltBootAttack(board, target="l1-caches", boot_media=MEDIA)
        images = attack.execute().cache_images
        assert attack.extract().vector_registers == {}
        with pytest.raises(AttackError):
            images.icache(0)
        with pytest.raises(AttackError):
            images.l1i
        both = extract_l1_images(board, icache=True)
        assert both.l1d == images.l1d
        unit = board.soc.core(0)
        assert both.icache(0) == b"".join(
            unit.l1i.raw_way_image(way) for way in range(unit.l1i.geometry.ways)
        )
        assert both.everything() == images.everything() + b"".join(
            both.icache(core) for core in sorted(both.l1i)
        )


class TestExtractionGuards:
    def test_extraction_needs_booted_system(self):
        board = victim_pi4(seed=607)
        board.unplug()
        board.plug_in()  # powered but not booted
        with pytest.raises(AttackError):
            extract_l1_images(board)
        with pytest.raises(AttackError):
            extract_vector_registers(board, 0)

    def test_extraction_refuses_enabled_caches(self):
        board = victim_pi4(seed=608)  # victim cache still enabled + booted
        with pytest.raises(AttackError):
            extract_l1_images(board)

    def test_iram_extraction_needs_iram(self):
        board = victim_pi4(seed=609)
        with pytest.raises(AttackError):
            extract_iram(board)

    def test_fused_jtag_blocks_iram_dump(self):
        board = imx53_qsb(seed=610, jtag_fused=True)
        board.boot()
        from repro.errors import AccessViolation

        with pytest.raises(AccessViolation):
            extract_iram(board)


class TestColdBootPipeline:
    def test_cold_boot_recovers_nothing_from_sram(self):
        board = victim_pi4(seed=611)
        attack = ColdBootAttack(board, temperature_c=-40.0, boot_media=MEDIA)
        result = attack.execute()
        assert b"\xaa" * 64 not in result.cache_images.dcache(0)
        loads = result.retained_fractions["VDD_CORE"]
        assert sum(loads.values()) / len(loads) < 0.05

    def test_domain_retention_unknown_domain(self):
        board = victim_pi4(seed=612)
        attack = ColdBootAttack(board, boot_media=MEDIA)
        result = attack.execute(extract_caches=False)
        assert "VDD_CORE" in result.retained_fractions
        assert "VDD_GPU" not in result.retained_fractions

    def test_temperature_applied_to_board(self):
        board = victim_pi4(seed=613)
        ColdBootAttack(board, temperature_c=-110.0, boot_media=MEDIA).execute(
            extract_caches=False
        )
        assert board.temperature_c == -110.0


class TestManifestPhases:
    """Each phase is one ``attack.<step>`` span: same name, same clock."""

    @staticmethod
    def _phases_and_spans(attack):
        with obs.capture() as o:
            attack.execute()
            phases = o.last_manifest.phases
            spans = {
                s.name: s.wall_s
                for s in o.tracer.finished
                if s.name.startswith("attack.")
            }
        return phases, spans

    def _check(self, attack, steps):
        phases, spans = self._phases_and_spans(attack)
        assert [p["name"] for p in phases] == steps
        for phase in phases:
            assert phase["wall_s"] == spans[f"attack.{phase['name']}"]

    def test_voltboot_phases_are_its_step_spans(self):
        attack = VoltBootAttack(
            victim_pi4(seed=621), target="l1-caches", boot_media=MEDIA
        )
        self._check(
            attack, ["identify", "attach", "power-cycle", "reboot", "extract"]
        )

    def test_coldboot_phases_are_its_step_spans(self):
        attack = ColdBootAttack(victim_pi4(seed=622), boot_media=MEDIA)
        self._check(attack, ["chill", "power-cycle", "reboot", "extract"])


class TestSupplySizing:
    def test_weak_supply_corrupts_recovery(self):
        board = victim_pi4(seed=614)
        attack = VoltBootAttack(
            board,
            target="l1-caches",
            supply=BenchSupply(0.8, current_limit_a=0.25),
            boot_media=MEDIA,
        )
        result = attack.execute()
        assert not result.surge_clean
