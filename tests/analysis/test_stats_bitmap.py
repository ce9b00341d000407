"""The synthetic test bitmap."""

import numpy as np
import pytest

# Aliased imports: the library names start with "test_", which pytest
# would otherwise collect as test functions.
from repro.analysis.bitmap import BITMAP_BYTES, BITMAP_SIDE
from repro.analysis.bitmap import test_bitmap_bytes as bitmap_bytes
from repro.analysis.bitmap import test_bitmap_matrix as bitmap_matrix
from repro.errors import ReproError


class TestBitmap:
    def test_default_dimensions(self):
        matrix = bitmap_matrix()
        assert matrix.shape == (BITMAP_SIDE, BITMAP_SIDE)
        assert len(bitmap_bytes()) == BITMAP_BYTES

    def test_deterministic(self):
        assert bitmap_bytes() == bitmap_bytes()

    def test_binary_values_only(self):
        assert set(np.unique(bitmap_matrix())) <= {0, 1}

    def test_has_structure_not_noise(self):
        """Adjacent-pixel agreement far above the 50% of random noise."""
        matrix = bitmap_matrix()
        agreement = float(np.mean(matrix[:, :-1] == matrix[:, 1:]))
        assert agreement > 0.8

    def test_border_is_dark(self):
        matrix = bitmap_matrix()
        assert matrix[0].all() and matrix[-1].all()

    def test_bad_side_rejected(self):
        with pytest.raises(ReproError):
            bitmap_matrix(100)  # not a multiple of 8

    def test_custom_side(self):
        assert bitmap_matrix(64).shape == (64, 64)
