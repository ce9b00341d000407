"""AES key-schedule search over memory images."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.keysearch import (
    AES128_SCHEDULE_BYTES,
    recover_key_from_registers,
    search_aes128_schedules,
)
from repro.crypto.aes import expand_key, schedule_bytes
from repro.errors import ReproError

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def image_with_schedule(offset: int, size: int = 1024, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    image = bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    image[offset : offset + AES128_SCHEDULE_BYTES] = schedule_bytes(KEY)
    return bytes(image)


class TestExactSearch:
    def test_finds_planted_schedule(self):
        hits = search_aes128_schedules(image_with_schedule(256))
        assert len(hits) == 1
        assert hits[0].offset == 256
        assert hits[0].key == KEY
        assert hits[0].fraction_errors == 0.0

    def test_no_false_positives_in_noise(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
        assert search_aes128_schedules(image) == []

    def test_alignment_must_cover_offset(self):
        image = image_with_schedule(260)
        assert search_aes128_schedules(image, alignment=8) == []
        hits = search_aes128_schedules(image, alignment=4)
        assert hits and hits[0].offset == 260

    def test_bad_parameters_rejected(self):
        with pytest.raises(ReproError):
            search_aes128_schedules(b"", alignment=0)
        with pytest.raises(ReproError):
            search_aes128_schedules(b"", max_fraction_errors=0.9)


class TestNoisySearch:
    def test_tolerates_bit_errors(self):
        image = bytearray(image_with_schedule(128))
        image[128 + 40] ^= 0x01  # one flipped bit inside the schedule
        hits = search_aes128_schedules(
            bytes(image), max_fraction_errors=0.01
        )
        assert hits and hits[0].key == KEY
        assert hits[0].fraction_errors > 0.0

    def test_best_candidate_first(self):
        image = bytearray(image_with_schedule(0, size=512))
        image[512 - AES128_SCHEDULE_BYTES :] = schedule_bytes(KEY)
        image[512 - AES128_SCHEDULE_BYTES + 20] ^= 0xFF
        hits = search_aes128_schedules(
            bytes(image), max_fraction_errors=0.05
        )
        assert hits[0].fraction_errors <= hits[-1].fraction_errors


class TestRegisterRecovery:
    def test_recovers_tresor_layout(self):
        values = [bytes(16)] * 3 + expand_key(KEY) + [bytes(16)] * 2
        hit = recover_key_from_registers(values)
        assert hit is not None
        assert hit.key == KEY
        assert hit.offset == 3

    def test_no_schedule_returns_none(self):
        rng = np.random.default_rng(5)
        values = [
            rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
            for _ in range(32)
        ]
        assert recover_key_from_registers(values) is None

    def test_wrong_width_rejected(self):
        with pytest.raises(ReproError):
            recover_key_from_registers([b"short"])


class TestPropertyBased:
    @given(
        offset_words=st.integers(min_value=0, max_value=40),
        key=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=10, deadline=None)
    def test_any_key_found_at_any_aligned_offset(self, offset_words, key):
        offset = offset_words * 4
        image = bytearray(bytes(512))
        image[offset : offset + AES128_SCHEDULE_BYTES] = schedule_bytes(key)
        hits = search_aes128_schedules(bytes(image))
        assert any(hit.key == key and hit.offset == offset for hit in hits)
