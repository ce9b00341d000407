"""SRAM word stores: the register files and every fixed-width SRAM RAM.

Cache tag RAMs, TLB/BTB entry RAMs and register files are all the same
physical thing (paper §2.1): an SRAM macro holding fixed-width words
that CP15 RAMINDEX reads one word at a time.  :class:`WordRam` is that
store; the structures differ only in how they pack their words.

Paper §7.2 attacks the 128-bit NEON/FP vector registers ``v0..v31``,
which TRESOR-style schemes use as key storage precisely because they sit
on-chip.  Register files are small SRAM macros inside the core power
domain, so a probe on VDD_CORE rides them through a power cycle just like
the L1 arrays.  Two are modelled: the general-purpose file
(``x0..x30``) and the vector file (``v0..v31``).
"""

from __future__ import annotations

import numpy as np

from ..errors import CalibrationError, CpuFault, MemoryMapError
from ..circuits.sram import SramArray, SramParameters


class WordRam:
    """Fixed-width little-endian words stored in one SRAM macro."""

    #: Raised for an index outside the RAM or a word of the wrong width.
    fault: type[Exception] = MemoryMapError

    def __init__(self, sram: SramArray, width_bytes: int, count: int) -> None:
        if sram.n_bytes < count * width_bytes:
            raise CalibrationError(
                f"{sram.name}: too small for {count} words of "
                f"{width_bytes} bytes"
            )
        self.sram = sram
        self.width_bytes = width_bytes
        self.count = count
        self._mask = (1 << (8 * width_bytes)) - 1

    def _offset(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise self.fault(f"{self.sram.name}: no word {index}")
        return index * self.width_bytes

    def read(self, index: int) -> int:
        """Read a word as an unsigned integer."""
        raw = self.sram.read_bytes(self._offset(index), self.width_bytes)
        return int.from_bytes(raw, "little")

    def write(self, index: int, value: int) -> None:
        """Write an unsigned integer, truncated to the word width."""
        self.sram.write_bytes(
            self._offset(index),
            (value & self._mask).to_bytes(self.width_bytes, "little"),
        )

    def read_bytes(self, index: int) -> bytes:
        """Read a word as little-endian bytes."""
        return self.sram.read_bytes(self._offset(index), self.width_bytes)

    def write_bytes(self, index: int, data: bytes) -> None:
        """Write a word from little-endian bytes (must be exact width)."""
        if len(data) != self.width_bytes:
            raise self.fault(
                f"{self.sram.name}: word is {self.width_bytes} bytes, "
                f"got {len(data)}"
            )
        self.sram.write_bytes(self._offset(index), data)

    def and_all(self, mask: int) -> None:
        """AND every word with ``mask`` in one SRAM write (draws nothing
        while the image is a pending power-up)."""
        self.sram.and_words(
            (mask & self._mask).to_bytes(self.width_bytes, "little")
        )

    def dump(self) -> list[int]:
        """All words, in index order."""
        return [self.read(i) for i in range(self.count)]

    def image(self) -> bytes:
        """The raw SRAM image — what RAMINDEX hands the attacker."""
        return self.sram.read_bytes()


class RegisterFile(WordRam):
    """A bank of fixed-width registers stored in an SRAM macro."""

    fault = CpuFault

    def __init__(
        self,
        name: str,
        count: int,
        width_bits: int,
        sram_params: SramParameters,
        rng: np.random.Generator,
    ) -> None:
        if width_bits % 8:
            raise CpuFault("register width must be a whole number of bytes")
        self.name = name
        self.width_bits = width_bits
        sram = SramArray(count * width_bits, sram_params, rng, name=f"{name}.sram")
        super().__init__(sram, width_bits // 8, count)


def general_purpose_file(
    sram_params: SramParameters, rng: np.random.Generator, name: str = "gpr"
) -> RegisterFile:
    """Build the aarch64 general-purpose file: x0..x30, 64-bit."""
    return RegisterFile(name, count=31, width_bits=64, sram_params=sram_params, rng=rng)


def vector_file(
    sram_params: SramParameters, rng: np.random.Generator, name: str = "vreg"
) -> RegisterFile:
    """Build the NEON/FP vector file: v0..v31, 128-bit."""
    return RegisterFile(name, count=32, width_bits=128, sram_params=sram_params, rng=rng)
