"""Tag RAM packing and flag manipulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.sram import SramArray, SramParameters
from repro.errors import CalibrationError
from repro.soc.cache import TagArray


def make_tags(entries=16):
    sram = SramArray(
        entries * TagArray.ENTRY_BYTES * 8,
        SramParameters(),
        np.random.default_rng(0),
    )
    sram.power_up()
    return TagArray(sram, entries)


class TestBasics:
    def test_undersized_sram_rejected(self):
        sram = SramArray(64, rng=np.random.default_rng(0))
        sram.power_up()
        with pytest.raises(CalibrationError):
            TagArray(sram, entries=4)

    def test_write_read_roundtrip(self):
        tags = make_tags()
        tags.write(3, tag=0xBEEF, valid=True, dirty=False, ns=True)
        assert tags.read(3) == (0xBEEF, True, False, True)



class TestPropertyBased:
    @given(
        entry=st.integers(min_value=0, max_value=15),
        tag=st.integers(min_value=0, max_value=(1 << 48) - 1),
        valid=st.booleans(),
        dirty=st.booleans(),
        ns=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_entry_roundtrips(self, entry, tag, valid, dirty, ns):
        tags = make_tags()
        tags.write(entry, tag=tag, valid=valid, dirty=dirty, ns=ns)
        assert tags.read(entry) == (tag, valid, dirty, ns)
