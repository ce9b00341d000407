"""Error-correcting AES key reconstruction."""

import numpy as np
import pytest

from repro.analysis.keycorrect import (
    SCHEDULE_BYTES,
    reconstruct_with_decay_model,
)
from repro.crypto.aes import schedule_bytes
from repro.errors import ReproError

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def flip_bits(data: bytes, bits) -> bytes:
    out = bytearray(data)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def decayed_window(seed: int, fraction: float) -> tuple[bytes, bytes]:
    """A schedule decayed toward a random per-cell ground state."""
    rng = np.random.default_rng(seed)
    schedule = schedule_bytes(KEY)
    ground = rng.integers(0, 2, SCHEDULE_BYTES * 8, dtype=np.uint8)
    bits = np.unpackbits(
        np.frombuffer(schedule, dtype=np.uint8), bitorder="little"
    )
    decayable = np.flatnonzero(bits != ground)
    chosen = rng.choice(
        decayable, int(fraction * decayable.size), replace=False
    )
    decayed = bits.copy()
    decayed[chosen] = ground[chosen]
    return (
        np.packbits(decayed, bitorder="little").tobytes(),
        np.packbits(ground, bitorder="little").tobytes(),
    )


class TestDecayReconstruction:
    def test_clean_window(self):
        window, ground = decayed_window(seed=4, fraction=0.0)
        assert reconstruct_with_decay_model(window, ground) == KEY

    def test_light_decay_recovered(self):
        window, ground = decayed_window(seed=5, fraction=0.10)
        assert reconstruct_with_decay_model(window, ground) == KEY

    def test_moderate_decay_recovered(self):
        window, ground = decayed_window(seed=6, fraction=0.15)
        assert reconstruct_with_decay_model(window, ground) == KEY

    def test_heavy_decay_fails_honestly(self):
        """Beyond the peeling threshold the decoder declines rather
        than returning a wrong key."""
        window, ground = decayed_window(seed=7, fraction=0.6)
        result = reconstruct_with_decay_model(window, ground)
        assert result is None or result == KEY

    def test_never_returns_a_wrong_key(self):
        for fraction in (0.05, 0.2, 0.35, 0.5):
            window, ground = decayed_window(seed=8, fraction=fraction)
            result = reconstruct_with_decay_model(window, ground)
            assert result is None or result == KEY

    def test_length_validation(self):
        with pytest.raises(ReproError):
            reconstruct_with_decay_model(b"x" * 10, b"y" * 10)
