"""Temperature-dependent charge-decay models.

When a memory cell loses its supply, its storage node discharges through
parasitic leakage paths.  Leakage current is strongly
temperature-dependent (it is dominated by subthreshold conduction and
junction leakage, both roughly Arrhenius in T), so the node's decay time
constant grows exponentially as the die is cooled.  That single fact is
the entire basis of cold boot attacks — and the reason they fail on SRAM
at achievable temperatures (paper §3).

We model the storage-node voltage of an unpowered cell as

    V(t) = V0 * exp(-t / tau(T)),        tau(T) = A * exp(B / T)

with per-technology constants ``A`` (seconds) and ``B`` (kelvin).

Calibration targets (see DESIGN.md):

* SRAM: ~80 % bit retention after 20 ms at −110 °C and ~0 % after a few
  milliseconds at −40 °C, matching Anagnostopoulos et al. (paper ref [2]);
  tau at room temperature is a few tens of microseconds, so a manual
  battery pull (hundreds of ms) always loses everything.
* DRAM: seconds of retention at room temperature and minutes below
  −50 °C, the Halderman et al. regime (paper ref [17]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from ..units import nanoseconds


@dataclass(frozen=True)
class ArrheniusDecay:
    """Exponential node decay with an Arrhenius time constant.

    Parameters
    ----------
    prefactor_s:
        ``A`` in ``tau(T) = A * exp(B / T)``, in seconds.
    activation_k:
        ``B`` in kelvin (activation energy over Boltzmann's constant).
    name:
        Label used in reports.
    """

    prefactor_s: float
    activation_k: float
    name: str = "decay"

    def __post_init__(self) -> None:
        if self.prefactor_s <= 0.0:
            raise CalibrationError("decay prefactor must be positive")
        if self.activation_k <= 0.0:
            raise CalibrationError("activation temperature must be positive")

    def time_constant(self, temperature_k: float) -> float:
        """Decay time constant ``tau(T) = A * exp(B / T)``.

        Parameters
        ----------
        temperature_k:
            Absolute temperature in kelvin (> 0).

        Returns
        -------
        float
            ``tau`` in seconds.
        """
        if temperature_k <= 0.0:
            raise CalibrationError("absolute temperature must be > 0 K")
        return self.prefactor_s * float(np.exp(self.activation_k / temperature_k))

    def surviving_fraction(self, off_time_s: float, temperature_k: float) -> float:
        """Fraction ``V(t)/V0 = exp(-t / tau(T))`` remaining after ``t``.

        Parameters
        ----------
        off_time_s:
            Unpowered interval ``t`` in seconds (>= 0).
        temperature_k:
            Soak temperature in kelvin.

        Returns
        -------
        float
            The surviving node-voltage fraction in ``(0, 1]``.
        """
        if off_time_s < 0.0:
            raise CalibrationError("off time cannot be negative")
        tau = self.time_constant(temperature_k)
        return float(np.exp(-off_time_s / tau))

#: SRAM storage-node decay, calibrated per DESIGN.md.
SRAM_DECAY = ArrheniusDecay(
    prefactor_s=nanoseconds(20.0), activation_k=2145.0, name="sram-6t"
)

#: DRAM capacitor decay, calibrated per DESIGN.md.
DRAM_DECAY = ArrheniusDecay(
    prefactor_s=nanoseconds(115.0), activation_k=5000.0, name="dram-1t1c"
)
