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

#: Bytes per TLB/BTB entry in the backing SRAM.
ENTRY_BYTES = 16

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


class _EntryArray:
    """Shared plumbing: fixed-size entries in one SRAM macro."""

    def __init__(
        self,
        name: str,
        entries: int,
        sram_params: SramParameters,
        rng: np.random.Generator,
    ) -> None:
        self.name = name
        self.entries = entries
        self.sram = SramArray(
            entries * ENTRY_BYTES * 8, sram_params, rng, name=f"{name}.sram"
        )

    def _read_word(self, index: int) -> int:
        raw = self.sram.read_bytes(index * ENTRY_BYTES, ENTRY_BYTES)
        return int.from_bytes(raw, "little")

    def _write_word(self, index: int, word: int) -> None:
        self.sram.write_bytes(
            index * ENTRY_BYTES, word.to_bytes(ENTRY_BYTES, "little")
        )

    def invalidate_all(self) -> None:
        """Drop every valid bit (contents stay, like cache maintenance)."""
        for index in range(self.entries):
            self._write_word(index, self._read_word(index) & ~_VALID_BIT)

    def raw_image(self) -> bytes:
        """The raw entry RAM — what RAMINDEX hands the attacker."""
        return self.sram.read_bytes()

    def raw_entry(self, index: int) -> bytes:
        """One raw entry of :meth:`raw_image`."""
        return self.sram.read_bytes(index * ENTRY_BYTES, ENTRY_BYTES)


class Tlb(_EntryArray):
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
        for index in range(self.entries):
            word = self._read_word(index)
            if word & _VALID_BIT:
                entry = self._decode(word)
                if entry.asid == asid and entry.vpn == vpn:
                    return entry
        return None

    def insert(self, asid: int, vpn: int, ppn: int) -> int:
        """Fill a translation (page-walker behaviour); returns the slot."""
        slot = self._fill_pointer
        self._write_word(slot, self._encode(asid, vpn, ppn))
        self._fill_pointer = (self._fill_pointer + 1) % self.entries
        return slot

    def touch_address(self, asid: int, addr: int) -> None:
        """Record the page containing ``addr`` (identity translation)."""
        vpn = addr >> self.PAGE_SHIFT
        self.insert(asid, vpn, vpn)

    def valid_entries(self) -> list[TlbEntry]:
        """All currently valid entries."""
        out = []
        for index in range(self.entries):
            word = self._read_word(index)
            if word & _VALID_BIT:
                out.append(self._decode(word))
        return out

    @staticmethod
    def decode_raw_image(image: bytes) -> list[TlbEntry]:
        """Attacker-side decode of a raw RAMINDEX dump."""
        entries = []
        for offset in range(0, len(image), ENTRY_BYTES):
            word = int.from_bytes(image[offset : offset + ENTRY_BYTES], "little")
            if word & _VALID_BIT:
                entries.append(Tlb._decode(word))
        return entries


class Btb(_EntryArray):
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
        return (branch_pc >> 2) & (self.entries - 1)

    def record(self, branch_pc: int, target_pc: int) -> int:
        """Record a taken branch; returns the slot used."""
        slot = self._slot(branch_pc)
        self._write_word(slot, self._encode(branch_pc, target_pc))
        return slot

    def predict(self, branch_pc: int) -> int | None:
        """The predicted target for a branch, if any."""
        word = self._read_word(self._slot(branch_pc))
        if not word & _VALID_BIT:
            return None
        entry = self._decode(word)
        return entry.target_pc if entry.branch_pc == branch_pc else None

    def valid_entries(self) -> list[BtbEntry]:
        """All currently valid entries."""
        out = []
        for index in range(self.entries):
            word = self._read_word(index)
            if word & _VALID_BIT:
                out.append(self._decode(word))
        return out

    @staticmethod
    def decode_raw_image(image: bytes) -> list[BtbEntry]:
        """Attacker-side decode of a raw RAMINDEX dump."""
        entries = []
        for offset in range(0, len(image), ENTRY_BYTES):
            word = int.from_bytes(image[offset : offset + ENTRY_BYTES], "little")
            if word & _VALID_BIT:
                entries.append(Btb._decode(word))
        return entries
