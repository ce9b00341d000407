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
    """Fixed-width little-endian words stored in one SRAM macro.

    Reads come from a mirror, one Python int per word.  The mirror is
    reloaded from the SRAM, each word decoded once, whenever the
    SRAM's :attr:`~repro.circuits.sram.SramArray.mutations` counter
    differs from the value recorded after this store's own last write,
    so word masks, MBIST fills, power events, DRV collapse and writes
    made straight to the SRAM are all seen, and a read with the SRAM
    unpowered raises.  A write goes through to the SRAM and into the
    mirror only if the mirror was current; one made while it is stale
    leaves it stale, so a pending power-up is drawn only once something
    reads the store.
    """

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
        self._words: list[int] = []
        self._seen = -1  # no SRAM count matches: load on first read

    def words(self) -> list[int]:
        """All words in index order: the live mirror, reloaded first if
        the SRAM changed behind it.  Read it; write through :meth:`write`.
        """
        sram = self.sram
        if sram.mutations != self._seen:
            width = self.width_bytes
            raw = sram.read_bytes(0, self.count * width)
            if width == 8:
                self._words = np.frombuffer(raw, "<u8").tolist()
            else:
                self._words = [
                    int.from_bytes(raw[i : i + width], "little")
                    for i in range(0, len(raw), width)
                ]
            self._seen = sram.mutations
        return self._words

    def read(self, index: int) -> int:
        """Read a word as an unsigned integer."""
        if not 0 <= index < self.count:
            raise self.fault(f"{self.sram.name}: no word {index}")
        if self.sram.mutations == self._seen:
            return self._words[index]
        return self.words()[index]

    def write(self, index: int, value: int) -> None:
        """Write an unsigned integer, truncated to the word width."""
        if not 0 <= index < self.count:
            raise self.fault(f"{self.sram.name}: no word {index}")
        value &= self._mask
        width = self.width_bytes
        sram = self.sram
        current = sram.mutations == self._seen
        sram.write_bytes(index * width, value.to_bytes(width, "little"))
        if current:
            self._words[index] = value
            self._seen = sram.mutations

    def read_bytes(self, index: int) -> bytes:
        """Read a word as little-endian bytes."""
        return self.read(index).to_bytes(self.width_bytes, "little")

    def write_bytes(self, index: int, data: bytes) -> None:
        """Write a word from little-endian bytes (must be exact width)."""
        if len(data) != self.width_bytes:
            raise self.fault(
                f"{self.sram.name}: word is {self.width_bytes} bytes, "
                f"got {len(data)}"
            )
        self.write(index, int.from_bytes(data, "little"))

    def and_all(self, mask: int) -> None:
        """AND every word with ``mask`` in one SRAM write (draws nothing
        while the image is a pending power-up; the mirror reloads on the
        next read)."""
        self.sram.and_words(
            (mask & self._mask).to_bytes(self.width_bytes, "little")
        )

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
