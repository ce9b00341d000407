"""Pattern scanning over raw images."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.patterns import (
    count_pattern_lines,
    elements_present,
    find_aligned,
    find_all,
)
from repro.errors import ReproError


class TestFindAll:
    def test_multiple_occurrences(self):
        assert find_all(b"abcabcabc", b"abc") == [0, 3, 6]

    def test_overlapping_occurrences(self):
        assert find_all(b"aaaa", b"aa") == [0, 1, 2]

    def test_absent_needle(self):
        assert find_all(b"abc", b"xyz") == []

    def test_empty_needle_rejected(self):
        with pytest.raises(ReproError):
            find_all(b"abc", b"")


class TestFindAligned:
    def test_alignment_filter(self):
        haystack = b"..." + b"need" + b"." + b"need"
        # offsets 3 and 8; only 8 is 4-aligned.
        assert find_aligned(haystack, b"need", 4) == [8]

    def test_bad_alignment_rejected(self):
        with pytest.raises(ReproError):
            find_aligned(b"abc", b"a", 0)


class TestElements:
    def test_present_set(self):
        elements = [b"AAAAAAAA", b"BBBBBBBB", b"CCCCCCCC"]
        image = b"\x00" * 8 + b"BBBBBBBB" + b"\x00" * 8
        assert elements_present(image, elements) == {1}

    def test_unaligned_element_not_counted(self):
        elements = [b"AAAAAAAA"]
        image = b"\x00" * 3 + b"AAAAAAAA" + b"\x00" * 5
        assert elements_present(image, elements) == set()

    def test_empty_needle_rejected(self):
        with pytest.raises(ReproError):
            elements_present(b"abcdefgh", [b"abcdefgh", b""])

    @pytest.mark.parametrize("alignment", [0, -8])
    def test_bad_alignment_rejected(self, alignment):
        with pytest.raises(ReproError):
            elements_present(b"abcdefgh", [b"abcdefgh"], alignment)


class TestPatternLines:
    def test_counts_whole_lines_only(self):
        image = b"\xaa" * 64 + b"\xaa" * 32 + b"\x00" * 32 + b"\xaa" * 64
        assert count_pattern_lines(image, 0xAA) == 2

    def test_bad_pattern_rejected(self):
        with pytest.raises(ReproError):
            count_pattern_lines(b"", 300)


class TestPropertyBased:
    @given(
        prefix_lines=st.integers(min_value=0, max_value=6),
        element=st.binary(min_size=8, max_size=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_planted_element_is_found(self, prefix_lines, element):
        image = bytes(8 * prefix_lines) + element + bytes(16)
        # Guard against degenerate all-zero elements colliding with padding.
        if element != bytes(8):
            assert 0 in elements_present(image, [element])

    @given(
        image=st.binary(max_size=96),
        needles=st.lists(st.binary(min_size=1, max_size=9), max_size=12),
        planted=st.lists(st.integers(min_value=0, max_value=95), max_size=6),
        alignment=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_find_aligned_definition(
        self, image, needles, planted, alignment
    ):
        # Copy some needles' worth of image bytes in as needles too, so
        # hits (aligned and not) are common, not just lucky.
        needles = needles + [
            image[start : start + 1 + start % 9] for start in planted
            if start < len(image)
        ]
        expected = {
            index for index, needle in enumerate(needles)
            if find_aligned(image, needle, alignment)
        }
        assert elements_present(image, needles, alignment) == expected
