"""SRAM-backed set-associative caches.

Caches are the paper's headline target (§7.1).  Two properties make them
attackable, and both are modelled here explicitly:

* **Tag/valid state and data payloads live in separate SRAM macros.**
  Clean/invalidate operations only clear valid bits in the *tag* RAM; the
  data RAM keeps its contents (paper §5.2.4: "cleaning and invalidating a
  cache at the boot phase does not erase the contents").  The only
  software path that actually zeroes data RAM is ``DC ZVA``.
* **The raw RAMs are readable through the debug interface** (CP15
  RAMINDEX) regardless of valid bits, given a sufficient exception level.

The cache model is a real working cache: the simulated CPU's loads,
stores, and fetches stream through it, with LRU replacement, write-back +
write-allocate behaviour, and an enable bit (L1 caches on the Broadcom
parts are software-enabled, which is why a post-attack boot can avoid
touching them entirely — §6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import CalibrationError, CircuitError, MemoryMapError
from ..circuits.sram import SramArray, SramParameters
from ..obs import OBS
from ..rng import spawn
from .memory_map import MemoryPort
from .regfile import WordRam


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a set-associative cache.

    The derived shapes are computed once per geometry, on first use.
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.ways <= 0 or self.line_bytes <= 0 or self.size_bytes <= 0:
            raise CalibrationError("cache dimensions must be positive")
        if self.line_bytes & (self.line_bytes - 1):
            raise CalibrationError("line size must be a power of two")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise CalibrationError(
                "cache size must be a multiple of ways * line size"
            )
        if self.sets & (self.sets - 1):
            raise CalibrationError("set count must be a power of two")

    @cached_property
    def sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.ways * self.line_bytes)

    @cached_property
    def way_bytes(self) -> int:
        """Capacity of a single way."""
        return self.sets * self.line_bytes

    @cached_property
    def offset_bits(self) -> int:
        """Bits of the address selecting a byte within a line."""
        return self.line_bytes.bit_length() - 1

    @cached_property
    def index_bits(self) -> int:
        """Bits of the address selecting a set."""
        return self.sets.bit_length() - 1

    def split(self, addr: int) -> tuple[int, int, int]:
        """Split an address into (tag, set index, line offset)."""
        offset = addr & (self.line_bytes - 1)
        index = (addr >> self.offset_bits) & (self.sets - 1)
        tag = addr >> (self.offset_bits + self.index_bits)
        return tag, index, offset

    def line_base(self, addr: int) -> int:
        """Address of the first byte of the line containing ``addr``."""
        return addr & ~(self.line_bytes - 1)


# Tag-entry packing: one 64-bit word per line in the tag RAM.  The tag
# bits live in an SramArray, so they obey the same retention physics as
# the data payloads — a power cycle without a probe randomises the valid
# bits along with everything else.
TAG_BYTES = 8
_TAG_SHIFT = 0
_TAG_MASK = (1 << 48) - 1
_VALID_BIT = 1 << 48
_DIRTY_BIT = 1 << 49
_NS_BIT = 1 << 50
_VALID_DIRTY = _VALID_BIT | _DIRTY_BIT


def encode_tag(tag: int, valid: bool, dirty: bool, ns: bool) -> int:
    """The tag-RAM word of one entry."""
    word = (tag & _TAG_MASK) << _TAG_SHIFT
    if valid:
        word |= _VALID_BIT
    if dirty:
        word |= _DIRTY_BIT
    if ns:
        word |= _NS_BIT
    return word


def decode_tag(word: int) -> tuple[int, bool, bool, bool]:
    """``(tag, valid, dirty, ns)`` of one tag-RAM word."""
    return (
        (word >> _TAG_SHIFT) & _TAG_MASK,
        bool(word & _VALID_BIT),
        bool(word & _DIRTY_BIT),
        bool(word & _NS_BIT),
    )


class SetAssociativeCache:
    """A write-back, write-allocate, LRU set-associative cache.

    The data payload of each way and the tag metadata are separate
    :class:`SramArray` macros, so the power layer can hold or drop them as
    physical units.  Architectural state that real hardware keeps in
    flip-flops (the enable bit, LRU ages) is *not* SRAM-backed and is
    reset by a reboot — which matches hardware: post-reboot, caches come
    up disabled with undefined contents.

    The controller reads tag words from the tag RAM's word mirror
    (:meth:`WordRam.words`) and writes every per-line change through
    :meth:`WordRam.write`, so bulk invalidation (one word mask on the
    tag RAM), MBIST fills, power events, DRV collapse and foreign writes
    are all seen, and an access with the tag RAM unpowered still raises.
    """

    #: Supported replacement policies.
    REPLACEMENT_POLICIES = ("lru", "round-robin", "random")

    def __init__(
        self,
        name: str,
        geometry: CacheGeometry,
        backing: MemoryPort,
        sram_params: SramParameters,
        rng: np.random.Generator,
        line_interleave: bool = False,
        replacement: str = "lru",
    ) -> None:
        if replacement not in self.REPLACEMENT_POLICIES:
            raise CalibrationError(
                f"unknown replacement policy {replacement!r}; "
                f"choose from {self.REPLACEMENT_POLICIES}"
            )
        self.name = name
        self.geometry = geometry
        self.backing = backing
        self.replacement = replacement
        g = geometry
        self.data_rams = [
            SramArray(
                g.way_bytes * 8,
                sram_params,
                spawn(rng),
                name=f"{name}.data.w{way}",
            )
            for way in range(g.ways)
        ]
        tag_sram = SramArray(
            g.sets * g.ways * TAG_BYTES * 8,
            sram_params,
            spawn(rng),
            name=f"{name}.tag",
        )
        self.tags = WordRam(tag_sram, TAG_BYTES, g.sets * g.ways)
        # Optional undocumented in-line bit interleave (BCM2837 i-cache
        # stores instructions+ECC in a vendor-private order — paper
        # footnote 4).  The permutation is fixed per device.
        self._interleave: np.ndarray | None = None
        if line_interleave:
            perm_rng = spawn(rng)
            self._interleave = perm_rng.permutation(g.line_bytes * 8)
        # Flip-flop state (lost at reboot, not SRAM-backed), in flat
        # lists: a fill reads one set's few ages, where a numpy call
        # costs more than the work.  Set ``i``'s ages start at
        # ``i * ways``.
        self.enabled = False
        self._lru = [0] * (g.sets * g.ways)
        self._lru_tick = 0
        self._rr_pointer = [0] * g.sets
        self._victim_rng = spawn(rng)

    # ------------------------------------------------------------------
    # SRAM plumbing (what the power layer attaches to a domain)
    # ------------------------------------------------------------------

    def sram_macros(self) -> list[SramArray]:
        """Every SRAM macro in this cache (data ways + tag RAM)."""
        return [*self.data_rams, self.tags.sram]

    def reset_architectural_state(self) -> None:
        """Model a reboot: enable bit and LRU flip-flops reset.

        SRAM contents are deliberately untouched — that is the attack
        surface.
        """
        self.enabled = False
        self._lru = [0] * len(self._lru)
        self._lru_tick = 0
        self._rr_pointer = [0] * len(self._rr_pointer)

    # ------------------------------------------------------------------
    # Tag helpers
    # ------------------------------------------------------------------

    def _entry(self, index: int, way: int) -> int:
        return index * self.geometry.ways + way

    def _mark_dirty(self, entry: int) -> None:
        word = self.tags.words()[entry]
        if not word & _DIRTY_BIT:
            self.tags.write(entry, word | _DIRTY_BIT)

    def _lookup(self, tag: int, index: int) -> int | None:
        words = self.tags.words()
        ways = self.geometry.ways
        base = index * ways
        for way in range(ways):
            word = words[base + way]
            if word & _VALID_BIT and ((word >> _TAG_SHIFT) & _TAG_MASK) == tag:
                return way
        return None

    def _choose_victim(self, index: int) -> int:
        words = self.tags.words()
        ways = self.geometry.ways
        base = index * ways
        for way in range(ways):
            if not words[base + way] & _VALID_BIT:
                return way
        if self.replacement == "lru":
            ages = self._lru[base : base + ways]
            return ages.index(min(ages))  # the first oldest, as argmin
        if self.replacement == "round-robin":
            victim = self._rr_pointer[index]
            self._rr_pointer[index] = (victim + 1) % ways
            return victim
        return int(self._victim_rng.integers(0, ways))

    def _touch(self, index: int, way: int) -> None:
        self._lru_tick += 1
        self._lru[index * self.geometry.ways + way] = self._lru_tick

    # ------------------------------------------------------------------
    # Data-RAM helpers
    # ------------------------------------------------------------------

    def _line_slot(self, index: int) -> int:
        return index * self.geometry.line_bytes

    def _read_line(self, way: int, index: int) -> bytes:
        raw = self.data_rams[way].read_bytes(
            self._line_slot(index), self.geometry.line_bytes
        )
        if self._interleave is None:
            return raw
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), bitorder="little"
        )
        restored = np.empty_like(bits)
        restored[: len(self._interleave)] = bits[self._interleave]
        return np.packbits(restored, bitorder="little").tobytes()

    def _write_line(self, way: int, index: int, data: bytes) -> None:
        if self._interleave is not None:
            bits = np.unpackbits(
                np.frombuffer(data, dtype=np.uint8), bitorder="little"
            )
            data = np.packbits(
                bits[np.argsort(self._interleave)], bitorder="little"
            ).tobytes()
        self.data_rams[way].write_bytes(self._line_slot(index), data)

    # ------------------------------------------------------------------
    # Architectural operations
    # ------------------------------------------------------------------

    def read(self, addr: int, size: int, ns: bool = True) -> bytes:
        """Read ``size`` bytes at ``addr`` through the cache."""
        return self._access(addr, size, None, ns)

    def write(self, addr: int, data: bytes, ns: bool = True) -> None:
        """Write ``data`` at ``addr`` through the cache (write-allocate)."""
        self._access(addr, len(data), bytes(data), ns)

    def read_block(self, addr: int, size: int) -> bytes:
        """Memory port: lets this cache back a smaller cache."""
        return self.read(addr, size)

    def write_block(self, addr: int, data: bytes) -> None:
        """Memory port: lets this cache back a smaller cache."""
        self.write(addr, data)

    def _access(
        self, addr: int, size: int, data: bytes | None, ns: bool
    ) -> bytes:
        """Stream an access through the cache, one line at a time.

        Each line costs one data-RAM touch: a hit reads or writes just
        the addressed bytes (the interleaved layout needs the whole
        line), and a miss writes the filled line once, with a write's
        bytes already merged in.
        """
        if size <= 0:
            raise MemoryMapError("access size must be positive")
        if not self.enabled:
            if data is None:
                return self.backing.read_block(addr, size)
            self.backing.write_block(addr, data)
            return data
        g = self.geometry
        out = bytearray()
        cursor = addr
        remaining = size
        pos = 0
        while remaining > 0:
            tag, index, offset = g.split(cursor)
            chunk = min(remaining, g.line_bytes - offset)
            piece = None if data is None else data[pos : pos + chunk]
            way = self._lookup(tag, index)
            if way is None:
                way, line = self._fill(cursor, tag, index, ns, offset, piece)
                if piece is None:
                    out += line[offset : offset + chunk]
            elif self._interleave is not None:
                line = self._read_line(way, index)
                if piece is None:
                    out += line[offset : offset + chunk]
                else:
                    self._write_line(
                        way, index,
                        line[:offset] + piece + line[offset + chunk :],
                    )
                    self._mark_dirty(self._entry(index, way))
            elif piece is None:
                out += self.data_rams[way].read_bytes(
                    self._line_slot(index) + offset, chunk
                )
            else:
                self.data_rams[way].write_bytes(
                    self._line_slot(index) + offset, piece
                )
                self._mark_dirty(self._entry(index, way))
            self._touch(index, way)
            cursor += chunk
            pos += chunk
            remaining -= chunk
        return bytes(out) if data is None else data

    def _fill(
        self,
        addr: int,
        tag: int,
        index: int,
        ns: bool,
        offset: int,
        piece: bytes | None,
    ) -> tuple[int, bytes]:
        """Allocate a line for ``addr`` and return ``(way, line)``.

        A write's ``piece`` is merged at ``offset`` before the line is
        stored, and the new entry is then born dirty.
        """
        way = self._choose_victim(index)
        entry = self._entry(index, way)
        old = self.tags.words()[entry]
        if old & _VALID_BIT:
            self._write_back(index, way, old)
            if OBS.enabled:
                OBS.counter_inc("cache.evictions", 1, cache=self.name)
        line = self.backing.read_block(
            self.geometry.line_base(addr), self.geometry.line_bytes
        )
        if piece is not None:
            line = line[:offset] + piece + line[offset + len(piece) :]
        self._write_line(way, index, line)
        self.tags.write(entry, encode_tag(tag, True, piece is not None, ns))
        if OBS.enabled:
            OBS.counter_inc("cache.line_fills", 1, cache=self.name)
        return way, line

    def _reconstruct_addr(self, tag: int, index: int) -> int:
        g = self.geometry
        return (tag << (g.offset_bits + g.index_bits)) | (index << g.offset_bits)

    def _write_back(self, index: int, way: int, word: int) -> None:
        """Write the line back to the next level if ``word`` is valid+dirty."""
        if word & _VALID_DIRTY == _VALID_DIRTY:
            self.backing.write_block(
                self._reconstruct_addr((word >> _TAG_SHIFT) & _TAG_MASK, index),
                self._read_line(way, index),
            )

    # ------------------------------------------------------------------
    # Maintenance operations (the ISA-visible ones the paper discusses)
    # ------------------------------------------------------------------

    def clean_invalidate_all(self) -> None:
        """Write back dirty lines and drop all valid bits.

        Crucially, the data RAM contents are *left in place* — this is
        the paper's §5.2.4 observation that clean/invalidate does not
        destroy data.
        """
        for entry, word in enumerate(self.tags.words()):
            if word & _VALID_DIRTY == _VALID_DIRTY:
                index, way = divmod(entry, self.geometry.ways)
                self._write_back(index, way, word)
        self.invalidate_all()

    def clean_invalidate_line(self, addr: int) -> bool:
        """Clean+invalidate the line containing ``addr`` (DMA maintenance).

        Non-coherent DMA forces kernels to clean/invalidate buffer lines
        by VA before device access; like the bulk variant, it leaves the
        data RAM contents in place.  Returns True when a line matched.
        """
        tag, index, _ = self.geometry.split(addr)
        way = self._lookup(tag, index)
        if way is None:
            return False
        entry = self._entry(index, way)
        word = self.tags.words()[entry]
        self._write_back(index, way, word)
        self.tags.write(entry, word & ~_VALID_BIT)
        return True

    def invalidate_all(self) -> None:
        """Drop all valid bits without writing anything back.

        One word mask on the tag RAM: a tag RAM still owing its power-up
        draw takes none, and the mirror reloads on the next access.
        """
        self.tags.and_all(~_VALID_BIT)

    def zero_line(self, addr: int, ns: bool = True) -> None:
        """``DC ZVA``: allocate the line containing ``addr`` and zero it.

        The only architectural way to actually erase L1 data RAM
        (paper §5.2.4); available for data caches only.
        """
        if not self.enabled:
            raise CircuitError(f"{self.name}: DC ZVA needs the cache enabled")
        tag, index, _ = self.geometry.split(addr)
        way = self._lookup(tag, index)
        if way is None:
            way = self._choose_victim(index)
            entry = self._entry(index, way)
            self._write_back(index, way, self.tags.words()[entry])
            self.tags.write(entry, encode_tag(tag, True, True, ns))
        else:
            self._mark_dirty(self._entry(index, way))
        self._write_line(way, index, bytes(self.geometry.line_bytes))
        self._touch(index, way)
        if OBS.enabled:
            OBS.counter_inc("cache.lines_zeroed", 1, cache=self.name)

    # ------------------------------------------------------------------
    # Raw access (debug interface path)
    # ------------------------------------------------------------------

    def raw_way_image(self, way: int) -> bytes:
        """Dump one way's data RAM, valid bits be damned.

        This is what CP15 RAMINDEX returns; access control lives in
        :mod:`repro.soc.cp15`, not here.
        """
        if not 0 <= way < self.geometry.ways:
            raise MemoryMapError(f"{self.name}: no way {way}")
        return self.data_rams[way].read_bytes()

    def raw_line(self, way: int, index: int) -> bytes:
        """One raw line of one way's data RAM (see :meth:`raw_way_image`)."""
        if not 0 <= way < self.geometry.ways:
            raise MemoryMapError(f"{self.name}: no way {way}")
        if not 0 <= index < self.geometry.sets:
            raise MemoryMapError(f"{self.name}: no set {index}")
        return self.data_rams[way].read_bytes(
            self._line_slot(index), self.geometry.line_bytes
        )

    def raw_tag_entry(self, index: int, way: int) -> tuple[int, bool, bool, bool]:
        """Dump one raw tag entry (tag, valid, dirty, ns)."""
        return decode_tag(self.tags.read(self._entry(index, way)))
