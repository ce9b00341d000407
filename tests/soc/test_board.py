"""Board-level power flows: plug/unplug, probes, boot, thermal chamber."""

import pytest

from repro.circuits.supply import BenchSupply
from repro.devices import raspberry_pi_4
from repro.errors import BootError, PowerError, ProbeError
from repro.power.events import PowerEventKind
from repro.soc.bootrom import BootMedia


@pytest.fixture(scope="module")
def fresh_board():
    """One Pi 4 per module; tests that mutate power state restore it."""
    return raspberry_pi_4(seed=101)


class TestPowerFlow:
    def test_builder_leaves_board_plugged(self, fresh_board):
        assert fresh_board.powered

    def test_double_plug_rejected(self, fresh_board):
        with pytest.raises(PowerError):
            fresh_board.plug_in()

    def test_unplug_darkens_all_domains(self):
        board = raspberry_pi_4(seed=102)
        board.unplug()
        assert all(not d.powered for d in board.soc.pmu.domains())
        with pytest.raises(PowerError):
            board.unplug()
        board.plug_in()

    def test_power_cycle_advances_clock(self):
        board = raspberry_pi_4(seed=103)
        before = board.log.clock.now
        board.power_cycle(off_seconds=2.0)
        assert board.log.clock.now == pytest.approx(before + 2.0)


class TestThermal:
    def test_set_temperature(self):
        board = raspberry_pi_4(seed=104)
        board.set_temperature_c(-40.0)
        assert board.temperature_c == -40.0
        assert board.temperature_k == pytest.approx(233.15)

    def test_invalid_temperature_rejected(self):
        board = raspberry_pi_4(seed=104)
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            board.set_temperature_c(-300.0)


class TestProbes:
    def test_measure_pad_voltage(self):
        board = raspberry_pi_4(seed=105)
        assert board.measure_pad_voltage("TP15") == pytest.approx(0.8)

    def test_attach_and_detach(self):
        board = raspberry_pi_4(seed=105)
        board.attach_probe("TP15", BenchSupply(0.8))
        board.detach_probe("TP15")
        with pytest.raises(ProbeError):
            board.detach_probe("TP15")
        board.attach_probe("TP15", BenchSupply(0.8))

    def test_double_probe_same_net_rejected(self):
        board = raspberry_pi_4(seed=106)
        board.attach_probe("TP15", BenchSupply(0.8))
        with pytest.raises(ProbeError):
            board.attach_probe("TP15", BenchSupply(0.8))

    def test_detach_unattached_rejected(self):
        board = raspberry_pi_4(seed=107)
        with pytest.raises(ProbeError):
            board.detach_probe("TP15")

    def test_unplug_holds_probed_domain_only(self):
        board = raspberry_pi_4(seed=108)
        board.attach_probe("TP15", BenchSupply(0.8, current_limit_a=3.0))
        losses = board.unplug()
        core_domain = board.soc.pmu.domain("VDD_CORE")
        assert core_domain.powered and core_domain.held_externally
        assert not board.soc.pmu.domain("VDD_SOC").powered
        assert losses == {"VDD_CORE": 0}

    def test_detach_while_holding_collapses_domain(self):
        board = raspberry_pi_4(seed=109)
        board.attach_probe("TP15", BenchSupply(0.8))
        board.unplug()
        board.detach_probe("TP15")
        assert not board.soc.pmu.domain("VDD_CORE").powered

    def test_foldback_probe_loses_the_rail(self):
        board = raspberry_pi_4(seed=110)
        # Limit below even the retention current: the supply folds back.
        board.attach_probe("TP15", BenchSupply(0.8, current_limit_a=0.001))
        board.unplug()
        assert not board.soc.pmu.domain("VDD_CORE").powered


class TestBoot:
    def test_boot_requires_power(self):
        board = raspberry_pi_4(seed=111)
        board.unplug()
        with pytest.raises(BootError):
            board.boot(BootMedia("usb"))
        board.plug_in()

    def test_boot_requires_media_on_broadcom(self):
        board = raspberry_pi_4(seed=112)
        with pytest.raises(BootError):
            board.boot(None)

    def test_double_boot_rejected(self):
        board = raspberry_pi_4(seed=113)
        board.boot(BootMedia("usb"))
        with pytest.raises(BootError):
            board.boot(BootMedia("usb"))

    def test_boot_leaves_l1_disabled_and_untouched(self):
        board = raspberry_pi_4(seed=114)
        unit = board.soc.core(0)
        before = unit.l1d.raw_way_image(0)
        board.boot(BootMedia("usb"))
        assert not unit.l1d.enabled
        assert unit.l1d.raw_way_image(0) == before

    def test_boot_clobbers_gprs_not_vregs(self):
        board = raspberry_pi_4(seed=115)
        unit = board.soc.core(0)
        unit.gpr.write(5, 0xDEADBEEF)
        unit.vreg.write_bytes(5, b"\xaa" * 16)
        board.boot(BootMedia("usb"))
        assert unit.gpr.read(5) != 0xDEADBEEF
        assert unit.vreg.read_bytes(5) == b"\xaa" * 16

    def test_boot_event_recorded(self):
        board = raspberry_pi_4(seed=116)
        board.boot(BootMedia("my-usb"))
        assert board.log.last(PowerEventKind.BOOT).detail == "my-usb"

    def test_reboot_after_power_cycle(self):
        board = raspberry_pi_4(seed=117)
        board.boot(BootMedia("first"))
        board.power_cycle(1.0)
        board.boot(BootMedia("second"))
        assert board.booted
