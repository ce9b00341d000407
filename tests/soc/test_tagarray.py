"""Tag RAM packing and flag manipulation on the SRAM word store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.sram import SramArray, SramParameters
from repro.errors import CalibrationError
from repro.soc.cache import TAG_BYTES, decode_tag, encode_tag
from repro.soc.regfile import WordRam


def make_tags(entries=16):
    sram = SramArray(
        entries * TAG_BYTES * 8,
        SramParameters(),
        np.random.default_rng(0),
    )
    sram.power_up()
    return WordRam(sram, TAG_BYTES, entries)


class TestBasics:
    def test_undersized_sram_rejected(self):
        sram = SramArray(64, rng=np.random.default_rng(0))
        sram.power_up()
        with pytest.raises(CalibrationError):
            WordRam(sram, TAG_BYTES, count=4)

    def test_write_read_roundtrip(self):
        tags = make_tags()
        tags.write(3, encode_tag(0xBEEF, valid=True, dirty=False, ns=True))
        assert decode_tag(tags.read(3)) == (0xBEEF, True, False, True)


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
        tags.write(entry, encode_tag(tag, valid, dirty, ns))
        assert decode_tag(tags.read(entry)) == (tag, valid, dirty, ns)
