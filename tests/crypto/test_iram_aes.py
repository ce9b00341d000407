"""A Sentry-style AES key schedule parked in iRAM, and its exposure to
Volt Boot."""

import pytest

from repro.analysis.keysearch import search_aes128_schedules
from repro.core.voltboot import VoltBootAttack
from repro.crypto.aes import schedule_bytes
from repro.devices import imx53_qsb

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")


@pytest.fixture
def booted_imx53():
    board = imx53_qsb(seed=801)
    board.boot()
    return board


class TestIramAes:
    def test_volt_boot_steals_the_iram_schedule(self, booted_imx53):
        """The §7.3 payoff applied to a Sentry-style victim, which keeps
        its expanded key in internal RAM instead of DRAM."""
        iram = booted_imx53.soc.iram
        iram.write_block(iram.base_addr + 0x6000, schedule_bytes(KEY))
        result = VoltBootAttack(booted_imx53, target="iram").execute()
        hits = search_aes128_schedules(result.iram_image)
        assert any(hit.key == KEY for hit in hits)
