"""Boot ROM scratchpad clobbering and authenticated boot."""

import numpy as np
import pytest

from repro.circuits.sram import SramParameters
from repro.errors import AuthenticatedBootError, BootError
from repro.soc.bootrom import BootMedia, BootRom, ClobberRegion
from repro.soc.iram import Iram


def make_iram(size=4096):
    iram = Iram("i", 0x1000, size, SramParameters(), np.random.default_rng(8))
    iram.sram.power_up()
    return iram


class TestClobberRegion:
    def test_size(self):
        assert ClobberRegion(0x100, 0x180).size == 0x80

    def test_empty_region_rejected(self):
        with pytest.raises(BootError):
            ClobberRegion(0x100, 0x100)


class TestMediaPolicy:
    def test_external_boot_needs_media(self):
        rom = BootRom(name="r", internal_boot=False)
        with pytest.raises(BootError):
            rom.check_media(None)

    def test_internal_boot_accepts_no_media(self):
        BootRom(name="r", internal_boot=True).check_media(None)

    def test_unsigned_media_ok_without_fuses(self):
        BootRom(name="r").check_media(BootMedia("usb"))

    def test_auth_fuses_reject_unsigned_media(self):
        rom = BootRom(name="r", auth_fused=True)
        with pytest.raises(AuthenticatedBootError):
            rom.check_media(BootMedia("attacker-usb"))

    def test_auth_fuses_accept_signed_media(self):
        rom = BootRom(name="r", auth_fused=True)
        rom.check_media(BootMedia("oem-update", signature="oem-signed"))


class TestScratchpad:
    def test_clobbers_exactly_the_regions(self):
        iram = make_iram()
        iram.write_block(0x1000, b"\xaa" * 4096)
        rom = BootRom(
            name="r",
            scratchpad_regions=[ClobberRegion(0x100, 0x200)],
            internal_boot=True,
        )
        clobbered = rom.run_scratchpad(iram, np.random.default_rng(1))
        assert clobbered == 0x100
        image = iram.image()
        assert image[:0x100] == b"\xaa" * 0x100  # before region intact
        assert image[0x200:] == b"\xaa" * (4096 - 0x200)  # after intact
        assert image[0x100:0x200] != b"\xaa" * 0x100  # region destroyed

    def test_no_iram_is_a_noop(self):
        rom = BootRom(name="r", scratchpad_regions=[ClobberRegion(0, 8)])
        assert rom.run_scratchpad(None, np.random.default_rng(1)) == 0

    def test_region_exceeding_iram_rejected(self):
        rom = BootRom(
            name="r", scratchpad_regions=[ClobberRegion(0, 100_000)]
        )
        with pytest.raises(BootError):
            rom.run_scratchpad(make_iram(), np.random.default_rng(1))

    def test_clobber_differs_per_boot_rng(self):
        iram = make_iram()
        rom = BootRom(
            name="r", scratchpad_regions=[ClobberRegion(0, 256)],
            internal_boot=True,
        )
        rom.run_scratchpad(iram, np.random.default_rng(1))
        first = iram.image()[:256]
        rom.run_scratchpad(iram, np.random.default_rng(2))
        assert iram.image()[:256] != first
