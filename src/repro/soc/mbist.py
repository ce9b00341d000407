"""Memory built-in self-test (MBIST) engine — the hardware countermeasure.

Paper §8 ("Resetting SRAMs at startup"): hardware that rewrites every
SRAM macro at reset would deny a Volt Boot attacker the post-reboot
readout even though the cells physically retained state.  The paper's
survey finds such reset hardware uncommon; the model makes it an opt-in
device feature so the countermeasures experiment can measure its effect.
"""

from __future__ import annotations

from ..circuits.sram import SramArray


class MbistEngine:
    """Boot-time SRAM initialisation engine."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._arrays: list[SramArray] = []
        self.resets_performed = 0

    def cover(self, *arrays: SramArray) -> None:
        """Register SRAM macros under this engine's reset domain."""
        self._arrays.extend(arrays)

    def run_boot_reset(self) -> int:
        """Zero every covered macro if the feature is enabled.

        Returns the number of bytes initialised (0 when disabled, the
        common commercial case).
        """
        if not self.enabled:
            return 0
        total = 0
        for array in self._arrays:
            if array.powered:
                array.fill_bytes(0x00)
                total += array.n_bytes
        self.resets_performed += 1
        return total
