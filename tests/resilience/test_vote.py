"""Majority-vote decoder: exactness, amortisation, and determinism.

The two Hypothesis properties pin down the claims the resilient driver
makes about voting (see ``repro.resilience.vote``): a vote of ``k``
noisy reads is exact whenever every bit is wrong in fewer than
``ceil(k/2)`` reads, and in general its error is amortised to at most
``total_read_errors / ceil(k/2)`` — so it is never worse than a single
read of the same total corruption.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hamming import fractional_hamming_distance
from repro.errors import ResilienceError
from repro.resilience import majority_vote
from repro.rng import generator
from repro.soc.readnoise import BitErrorModel


def _bit_errors(a: bytes, b: bytes) -> int:
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))


class TestContract:
    def test_empty_read_list_rejected(self):
        with pytest.raises(ResilienceError):
            majority_vote([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ResilienceError):
            majority_vote([b"\x00\x00", b"\x00"])

    def test_single_read_is_its_own_decode(self):
        vote = majority_vote([b"\xa5\x5a"])
        assert vote.decoded == b"\xa5\x5a"
        assert vote.reads == 1
        assert vote.mean_confidence == 1.0
        assert vote.confident_fraction(1.0) == 1.0

    def test_empty_image_decodes_empty(self):
        vote = majority_vote([b"", b"", b""])
        assert vote.decoded == b""
        assert vote.mean_confidence == 1.0

    def test_unanimous_reads_are_fully_confident(self):
        vote = majority_vote([b"\x0f" * 8] * 5)
        assert vote.decoded == b"\x0f" * 8
        assert (vote.confidence == 1.0).all()
        assert vote.mean_confidence == 1.0

    def test_minority_flip_is_outvoted(self):
        truth = b"\x00" * 4
        vote = majority_vote([truth, truth, b"\xff" * 4])
        assert vote.decoded == truth
        assert int((vote.confidence < 1.0).sum()) == 32
        assert vote.mean_confidence == pytest.approx(2.0 / 3.0)

    def test_even_split_ties_decode_as_zero_at_half_confidence(self):
        vote = majority_vote([b"\xff", b"\x00"])
        assert vote.decoded == b"\x00"
        assert np.all(vote.confidence == 0.5)

    def test_confidence_uses_little_endian_bit_order(self):
        # Flip only bit 0 (LSB) of the byte in one of three reads.
        vote = majority_vote([b"\x00", b"\x00", b"\x01"])
        assert vote.decoded == b"\x00"
        assert vote.confidence[0] == pytest.approx(2.0 / 3.0)
        assert np.all(vote.confidence[1:] == 1.0)


@st.composite
def bounded_corruptions(draw):
    """A truth image plus per-read flip masks, each bit corrupted in
    fewer than ``ceil(k/2)`` of the ``k`` reads."""
    length = draw(st.integers(min_value=1, max_value=32))
    truth = bytes(
        draw(st.lists(st.integers(0, 255), min_size=length, max_size=length))
    )
    k = draw(st.sampled_from([3, 5, 7]))
    quorum = math.ceil(k / 2)
    # For each bit, choose how many reads corrupt it (< quorum) and which.
    masks = [bytearray(length) for _ in range(k)]
    for bit in range(length * 8):
        wrong = draw(st.integers(min_value=0, max_value=quorum - 1))
        readers = draw(
            st.lists(
                st.integers(0, k - 1),
                min_size=wrong,
                max_size=wrong,
                unique=True,
            )
        )
        for reader in readers:
            masks[reader][bit // 8] |= 1 << (bit % 8)
    reads = [
        bytes(t ^ m for t, m in zip(truth, mask)) for mask in masks
    ]
    return truth, reads


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(bounded_corruptions())
    def test_bounded_corruption_decodes_exactly(self, case):
        truth, reads = case
        assert majority_vote(reads).decoded == truth

    @settings(max_examples=50, deadline=None)
    @given(
        st.binary(min_size=1, max_size=64),
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.0, max_value=0.4),
    )
    def test_vote_error_amortised_below_single_read(
        self, truth, k, seed, rate
    ):
        """Voted errors <= total read errors / quorum — so a vote of
        ``k`` noisy reads is never worse than one read carrying the
        same corruption."""
        model = BitErrorModel(rate, generator(seed))
        reads = [model.corrupt(truth) for _ in range(k)]
        total_errors = sum(_bit_errors(read, truth) for read in reads)
        voted_errors = _bit_errors(majority_vote(reads).decoded, truth)
        assert voted_errors <= total_errors / math.ceil(k / 2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.binary(min_size=1, max_size=64),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_noisy_vote_is_deterministic_under_fixed_seed(self, truth, seed):
        def run():
            model = BitErrorModel(0.05, generator(seed))
            return majority_vote([model.corrupt(truth) for _ in range(5)])

        first, second = run(), run()
        assert first.decoded == second.decoded
        assert np.array_equal(first.confidence, second.confidence)


class TestAgainstSingleRead:
    def test_vote_beats_single_read_on_a_noisy_image(self):
        rng = generator(77)
        truth = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
        model = BitErrorModel(0.01, generator(78))
        reads = [model.corrupt(truth) for _ in range(5)]
        single = fractional_hamming_distance(truth, reads[0])
        voted = fractional_hamming_distance(
            truth, majority_vote(reads).decoded
        )
        assert single > 0.0
        assert voted < single
