"""Unit-conversion and formatting helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CalibrationError
from repro.units import (
    ABSOLUTE_ZERO_CELSIUS,
    celsius_to_kelvin,
    kelvin_to_celsius,
    kib,
    microfarads,
    microseconds,
    milliamps,
    milliohms,
    milliseconds,
    millivolts,
    nanofarads,
    nanoseconds,
)


class TestTemperature:
    def test_celsius_to_kelvin_room(self):
        assert celsius_to_kelvin(25.0) == pytest.approx(298.15)

    def test_roundtrip(self):
        assert kelvin_to_celsius(celsius_to_kelvin(-40.0)) == pytest.approx(-40.0)

    def test_below_absolute_zero_rejected(self):
        with pytest.raises(CalibrationError):
            celsius_to_kelvin(-300.0)

    def test_nonpositive_kelvin_rejected(self):
        with pytest.raises(CalibrationError):
            kelvin_to_celsius(0.0)

    def test_negative_kelvin_rejected(self):
        with pytest.raises(CalibrationError):
            kelvin_to_celsius(-10.0)

    def test_exactly_absolute_zero_rejected(self):
        # The boundary itself is out of domain: 0 K has no Celsius
        # preimage the converters will accept.
        with pytest.raises(CalibrationError):
            celsius_to_kelvin(ABSOLUTE_ZERO_CELSIUS)

    def test_just_above_absolute_zero_accepted(self):
        kelvin = celsius_to_kelvin(ABSOLUTE_ZERO_CELSIUS + 1e-6)
        assert kelvin > 0.0


#: Magnitudes a physical quantity in this simulation can plausibly take;
#: wide enough to stress the converters, narrow enough that products
#: with 1e-9 never underflow to subnormals (where round-tripping is not
#: exact).
_finite_magnitudes = st.floats(
    min_value=1e-30,
    max_value=1e30,
    allow_nan=False,
    allow_infinity=False,
).map(abs)

_signed_magnitudes = st.tuples(
    _finite_magnitudes, st.sampled_from((1.0, -1.0))
).map(lambda pair: pair[0] * pair[1])

#: (converter, exact inverse scale) for every scale converter pair.
_CONVERTERS = [
    (milliseconds, 1e3),
    (microseconds, 1e6),
    (nanoseconds, 1e9),
    (millivolts, 1e3),
    (milliamps, 1e3),
    (milliohms, 1e3),
    (microfarads, 1e6),
    (nanofarads, 1e9),
]


class TestConverterProperties:
    @pytest.mark.parametrize(
        "convert,scale", _CONVERTERS, ids=lambda v: getattr(v, "__name__", v)
    )
    @given(value=_signed_magnitudes)
    def test_round_trip_within_two_ulps(self, convert, scale, value):
        # Division and the inverse multiplication are each correctly
        # rounded, so the round trip through SI base units can move the
        # value by at most one ulp per step.
        back = convert(value) * scale
        assert math.isclose(back, value, rel_tol=2 * 2.0 ** -52)

    @pytest.mark.parametrize(
        "convert,scale", _CONVERTERS, ids=lambda v: getattr(v, "__name__", v)
    )
    @given(value=_signed_magnitudes)
    def test_matches_literal_scaling(self, convert, scale, value):
        assert convert(value) == pytest.approx(value / scale, rel=1e-12)

    @pytest.mark.parametrize(
        "convert,scale", _CONVERTERS, ids=lambda v: getattr(v, "__name__", v)
    )
    def test_preserves_sign_and_zero(self, convert, scale):
        assert convert(0.0) == 0.0
        assert convert(-1.0) == -convert(1.0)

    def test_division_is_bit_exact_against_literals(self):
        # The call-site migrations (e.g. microseconds(20) for 20e-6)
        # must not move a single ulp, or simulation streams change.
        assert microseconds(20) == 20e-6
        assert microseconds(5) == 5e-6
        assert microseconds(200) == 200e-6
        assert milliseconds(64) == 64e-3
        assert milliseconds(4) == 4e-3
        assert nanoseconds(115) == 115e-9
        assert millivolts(30) == 30e-3
        assert milliohms(50) == 50e-3
        assert microfarads(47) == 47e-6


class TestTemperatureProperties:
    @given(
        celsius=st.floats(
            min_value=-273.0, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_celsius_round_trip(self, celsius):
        assert kelvin_to_celsius(celsius_to_kelvin(celsius)) == pytest.approx(
            celsius, abs=1e-9
        )

    @given(
        kelvin=st.floats(
            min_value=1e-3, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_kelvin_round_trip(self, kelvin):
        assert celsius_to_kelvin(kelvin_to_celsius(kelvin)) == pytest.approx(
            kelvin, rel=1e-12, abs=1e-9
        )

    @given(
        celsius=st.floats(
            min_value=-1e9, max_value=ABSOLUTE_ZERO_CELSIUS,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_at_or_below_absolute_zero_always_rejected(self, celsius):
        with pytest.raises(CalibrationError):
            celsius_to_kelvin(celsius)

    @given(
        kelvin=st.floats(
            max_value=0.0, allow_nan=False, allow_infinity=False
        )
    )
    def test_nonpositive_kelvin_always_rejected(self, kelvin):
        with pytest.raises(CalibrationError):
            kelvin_to_celsius(kelvin)

    @given(
        celsius=st.floats(
            min_value=-273.0, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_kelvin_output_is_physical(self, celsius):
        kelvin = celsius_to_kelvin(celsius)
        assert kelvin > 0.0
        assert math.isfinite(kelvin)


class TestScalars:
    def test_milliseconds(self):
        assert milliseconds(20) == pytest.approx(0.02)

    def test_microseconds(self):
        assert microseconds(5) == pytest.approx(5e-6)

    def test_millivolts(self):
        assert millivolts(800) == pytest.approx(0.8)

    def test_milliamps(self):
        assert milliamps(600) == pytest.approx(0.6)

    def test_kib(self):
        assert kib(32) == 32768
