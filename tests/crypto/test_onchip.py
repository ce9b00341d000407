"""On-chip AES runtimes: register-resident and cache-locked schedules."""

import pytest

from repro.crypto.aes import encrypt_block, schedule_bytes
from repro.crypto.onchip import CacheLockedAes, RegisterAes
from repro.devices import raspberry_pi_4
from repro.errors import ReproError
from repro.soc.bootrom import BootMedia

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


@pytest.fixture(scope="module")
def unit():
    board = raspberry_pi_4(seed=401)
    board.boot(BootMedia("os"))
    return board.soc.core(0)


class TestRegisterAes:
    def test_matches_reference_aes(self, unit):
        runtime = RegisterAes(unit)
        runtime.install_key(KEY)
        assert runtime.encrypt(PLAINTEXT) == encrypt_block(KEY, PLAINTEXT)

    def test_schedule_lives_in_vector_registers(self, unit):
        runtime = RegisterAes(unit)
        used = runtime.install_key(KEY)
        assert used == 11
        expected = schedule_bytes(KEY)
        observed = b"".join(
            unit.vreg.read_bytes(i)
            for i in range(runtime.first_register, runtime.first_register + used)
        )
        assert observed == expected

    def test_encrypt_without_key_rejected(self, unit):
        with pytest.raises(ReproError):
            RegisterAes(unit, first_register=20).encrypt(PLAINTEXT)

    def test_register_overflow_rejected(self, unit):
        with pytest.raises(ReproError):
            RegisterAes(unit, first_register=25).install_key(KEY)

    def test_aes256_schedule_fits(self, unit):
        runtime = RegisterAes(unit)
        used = runtime.install_key(bytes(32))
        assert used == 15
        assert runtime.encrypt(PLAINTEXT) == encrypt_block(bytes(32), PLAINTEXT)


class TestCacheLockedAes:
    def test_matches_reference_aes(self, unit):
        runtime = CacheLockedAes(unit, schedule_addr=0x70000)
        runtime.install_key(KEY)
        assert runtime.encrypt(PLAINTEXT) == encrypt_block(KEY, PLAINTEXT)

    def test_schedule_lines_marked_secure(self, unit):
        runtime = CacheLockedAes(unit, schedule_addr=0x71000)
        lines = runtime.install_key(KEY)
        assert lines == 3  # 176 bytes over 64-byte lines
        cache = unit.l1d
        tag, index, _ = cache.geometry.split(0x71000)
        secure = [
            not cache.raw_tag_entry(index, way)[3]
            for way in range(cache.geometry.ways)
        ]
        assert any(secure)

    def test_schedule_visible_in_raw_dump(self, unit):
        """The paper's point: cache locking does not survive Volt Boot."""
        runtime = CacheLockedAes(unit, schedule_addr=0x72000)
        runtime.install_key(KEY)
        image = b"".join(
            unit.l1d.raw_way_image(w) for w in range(unit.l1d.geometry.ways)
        )
        assert schedule_bytes(KEY) in image

    def test_encrypt_without_key_rejected(self, unit):
        with pytest.raises(ReproError):
            CacheLockedAes(unit, schedule_addr=0x73000).encrypt(PLAINTEXT)
