"""Hamming metrics and block profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hamming import (
    bit_error_percent,
    block_hamming_profile,
    fractional_hamming_distance,
)
from repro.errors import ReproError


class TestHammingDistance:
    def test_identical_is_zero(self):
        assert fractional_hamming_distance(b"abc", b"abc") == 0.0

    def test_single_bit(self):
        assert fractional_hamming_distance(b"\x00", b"\x01") == 1 / 8

    def test_full_byte(self):
        assert fractional_hamming_distance(b"\x00", b"\xff") == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ReproError):
            fractional_hamming_distance(b"a", b"ab")

    def test_accepts_bit_arrays(self):
        a = np.array([1, 0, 1], dtype=np.uint8)
        b = np.array([1, 1, 1], dtype=np.uint8)
        assert fractional_hamming_distance(a, b) == pytest.approx(1 / 3)

    def test_fractional_range(self):
        assert fractional_hamming_distance(b"\x00", b"\x0f") == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            fractional_hamming_distance(b"", b"")

    def test_percent_form(self):
        assert bit_error_percent(b"\x00", b"\xff") == pytest.approx(100.0)


class TestBlockProfile:
    def test_profile_localises_errors(self):
        reference = bytes(256)
        observed = bytearray(256)
        observed[128] = 0xFF  # 8 errors in the third 512-bit block
        profile = block_hamming_profile(reference, bytes(observed), 512)
        assert profile.tolist() == [0, 0, 8, 0]

    def test_partial_trailing_block(self):
        profile = block_hamming_profile(bytes(80), bytes(80), 512)
        assert profile.size == 2

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ReproError):
            block_hamming_profile(b"ab", b"ab", 0)

    def test_profile_sums_to_total_distance(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
        b = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
        profile = block_hamming_profile(a, b, 512)
        assert profile.sum() == fractional_hamming_distance(a, b) * 8 * 512


class TestPropertyBased:
    @given(data=st.binary(min_size=1, max_size=64))
    @settings(max_examples=30, deadline=None)
    def test_self_distance_is_zero(self, data):
        assert fractional_hamming_distance(data, data) == 0.0

    @given(
        a=st.binary(min_size=32, max_size=32),
        b=st.binary(min_size=32, max_size=32),
    )
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, a, b):
        assert fractional_hamming_distance(a, b) == fractional_hamming_distance(
            b, a
        )

    @given(
        a=st.binary(min_size=16, max_size=16),
        b=st.binary(min_size=16, max_size=16),
        c=st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert fractional_hamming_distance(a, c) <= (
            fractional_hamming_distance(a, b) + fractional_hamming_distance(b, c)
        )

    @given(
        pair=st.integers(min_value=0, max_value=48).flatmap(
            lambda n: st.tuples(
                st.binary(min_size=n, max_size=n),
                st.binary(min_size=n, max_size=n),
            )
        ),
        extra=st.binary(min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_bytes_equal_unpacked_cells(self, pair, extra):
        """The packed byte path counts what the per-cell path counts,
        and a size mismatch raises on both."""
        a, b = pair
        bits = [
            np.unpackbits(np.frombuffer(x, dtype=np.uint8), bitorder="little")
            for x in (a, b, b + extra)
        ]
        if a:
            assert fractional_hamming_distance(a, b) == (
                fractional_hamming_distance(bits[0], bits[1])
            )
            assert fractional_hamming_distance(bytearray(a), b) == (
                fractional_hamming_distance(a, b)
            )
        for mismatched in ((a, b + extra), (bits[0], bits[2])):
            with pytest.raises(ReproError):
                fractional_hamming_distance(*mismatched)
