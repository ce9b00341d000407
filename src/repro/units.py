"""Physical units and conversions used across the simulation.

The library stores quantities in SI base units: volts, amperes, seconds,
farads, ohms, kelvins.  This module provides the small set of helpers and
constants used to build and check those quantities.

All converters are trivially invertible; they exist to make call sites
self-documenting (``milliseconds(20)`` rather than a bare ``0.02``).
"""

from __future__ import annotations

from .errors import CalibrationError

#: Absolute zero in degrees Celsius.
ABSOLUTE_ZERO_CELSIUS = -273.15

#: Conventional room temperature (kelvin).
ROOM_TEMPERATURE_K = 298.15


def celsius_to_kelvin(celsius: float) -> float:
    """Convert a Celsius temperature to kelvin, rejecting sub-0 K values."""
    kelvin = celsius - ABSOLUTE_ZERO_CELSIUS
    if kelvin <= 0.0:
        raise CalibrationError(
            f"temperature {celsius} degC is at or below absolute zero"
        )
    return kelvin


def kelvin_to_celsius(kelvin: float) -> float:
    """Convert kelvin to Celsius (must be a positive absolute temperature)."""
    if kelvin <= 0.0:
        raise CalibrationError(f"absolute temperature must be > 0 K, got {kelvin}")
    return kelvin + ABSOLUTE_ZERO_CELSIUS


def milliseconds(value: float) -> float:
    """Express ``value`` milliseconds in seconds."""
    return value / 1e3


def microseconds(value: float) -> float:
    """Express ``value`` microseconds in seconds."""
    return value / 1e6


def nanoseconds(value: float) -> float:
    """Express ``value`` nanoseconds in seconds."""
    return value / 1e9


def millivolts(value: float) -> float:
    """Express ``value`` millivolts in volts."""
    return value / 1e3


def milliamps(value: float) -> float:
    """Express ``value`` milliamperes in amperes."""
    return value / 1e3


def milliohms(value: float) -> float:
    """Express ``value`` milliohms in ohms."""
    return value / 1e3


def microfarads(value: float) -> float:
    """Express ``value`` microfarads in farads."""
    return value / 1e6


def nanofarads(value: float) -> float:
    """Express ``value`` nanofarads in farads."""
    return value / 1e9


def kib(value: float) -> int:
    """Express ``value`` kibibytes in bytes."""
    return int(value * 1024)
