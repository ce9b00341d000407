"""TLB and BTB: microarchitectural SRAM targets beyond the caches.

Paper §2.1: a Cortex-A72 exposes *fifteen* internal RAMs through the
CP15 interface — caches, but also TLBs and branch target buffers.
These structures never hold the victim's data, yet they retain its
*footprint*: which pages it touched (TLB) and where its control flow
went (BTB).  Volt Boot preserves both across a power cycle, so an
attacker can reconstruct a victim's address-space layout and hot loops
even when the data itself was scrubbed.

Model simplifications, documented: translations are identity-mapped
(the simulated CPU has no MMU), entries carry an ASID so per-process
footprints stay distinguishable, and replacement is round-robin (TLB) /
direct-mapped (BTB) as on the real part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuits.sram import SramArray, SramParameters
from ..errors import MemoryMapError
from .regfile import WordRam

#: Bytes per TLB/BTB entry in the backing SRAM.
ENTRY_BYTES = 16

#: Entries per core: the TLB is fully associative, the BTB direct-mapped.
TLB_ENTRIES = 64
BTB_ENTRIES = 128

_VALID_BIT = 1 << 127


@dataclass(frozen=True)
class TlbEntry:
    """One decoded TLB entry."""

    asid: int
    vpn: int
    ppn: int


@dataclass(frozen=True)
class BtbEntry:
    """One decoded BTB entry."""

    branch_pc: int
    target_pc: int


class _EntryRam(WordRam):
    """Shared plumbing: valid-bit entries in one SRAM word store."""

    def __init__(
        self,
        name: str,
        entries: int,
        sram_params: SramParameters,
        rng: np.random.Generator,
    ) -> None:
        self.name = name
        sram = SramArray(
            entries * ENTRY_BYTES * 8, sram_params, rng, name=f"{name}.sram"
        )
        super().__init__(sram, ENTRY_BYTES, entries)

    def invalidate_all(self) -> None:
        """Drop every valid bit (contents stay, like cache maintenance)."""
        self.and_all(~_VALID_BIT)

    def valid_entries(self) -> list:
        """All currently valid entries, decoded from the word mirror."""
        return self._decode_valid(self.words())

    @classmethod
    def decode_raw_image(cls, image: bytes) -> list:
        """Attacker-side decode of a raw RAMINDEX dump."""
        return cls._decode_valid(
            int.from_bytes(image[offset : offset + ENTRY_BYTES], "little")
            for offset in range(0, len(image), ENTRY_BYTES)
        )

    @classmethod
    def _decode_valid(cls, words) -> list:
        return [cls._decode(word) for word in words if word & _VALID_BIT]


class Tlb(_EntryRam):
    """A fully-associative TLB with a round-robin fill pointer."""

    PAGE_SHIFT = 12

    def __init__(
        self,
        entries: int,
        sram_params: SramParameters,
        rng: np.random.Generator,
        name: str = "tlb",
    ) -> None:
        super().__init__(name, entries, sram_params, rng)
        self._fill_pointer = 0  # flip-flop state; resets at reboot

    @staticmethod
    def _encode(asid: int, vpn: int, ppn: int) -> int:
        return (
            _VALID_BIT
            | ((asid & 0xFFFF) << 80)
            | ((vpn & 0xFFFFFFFFF) << 40)
            | (ppn & 0xFFFFFFFFF)
        )

    @staticmethod
    def _decode(word: int) -> TlbEntry:
        return TlbEntry(
            asid=(word >> 80) & 0xFFFF,
            vpn=(word >> 40) & 0xFFFFFFFFF,
            ppn=word & 0xFFFFFFFFF,
        )

    def reset_architectural_state(self) -> None:
        """Reboot: the fill pointer resets; SRAM contents do not."""
        self._fill_pointer = 0

    def lookup(self, asid: int, vpn: int) -> TlbEntry | None:
        """Find a valid translation."""
        for word in self.words():
            if word & _VALID_BIT:
                entry = self._decode(word)
                if entry.asid == asid and entry.vpn == vpn:
                    return entry
        return None

    def insert(self, asid: int, vpn: int, ppn: int) -> int:
        """Fill a translation (page-walker behaviour); returns the slot."""
        slot = self._fill_pointer
        self.write(slot, self._encode(asid, vpn, ppn))
        self._fill_pointer = (self._fill_pointer + 1) % self.count
        return slot

    def touch_address(self, asid: int, addr: int) -> None:
        """Record the page containing ``addr`` (identity translation)."""
        vpn = addr >> self.PAGE_SHIFT
        self.insert(asid, vpn, vpn)


class Btb(_EntryRam):
    """A direct-mapped branch target buffer."""

    def __init__(
        self,
        entries: int,
        sram_params: SramParameters,
        rng: np.random.Generator,
        name: str = "btb",
    ) -> None:
        if entries & (entries - 1):
            raise MemoryMapError("BTB entry count must be a power of two")
        super().__init__(name, entries, sram_params, rng)

    @staticmethod
    def _encode(branch_pc: int, target_pc: int) -> int:
        return (
            _VALID_BIT
            | ((branch_pc & 0xFFFFFFFFFFFF) << 48)
            | (target_pc & 0xFFFFFFFFFFFF)
        )

    @staticmethod
    def _decode(word: int) -> BtbEntry:
        return BtbEntry(
            branch_pc=(word >> 48) & 0xFFFFFFFFFFFF,
            target_pc=word & 0xFFFFFFFFFFFF,
        )

    def _slot(self, branch_pc: int) -> int:
        return (branch_pc >> 2) & (self.count - 1)

    def record(self, branch_pc: int, target_pc: int) -> int:
        """Record a taken branch; returns the slot used."""
        slot = self._slot(branch_pc)
        self.write(slot, self._encode(branch_pc, target_pc))
        return slot
