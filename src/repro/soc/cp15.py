"""CP15 / system-register debug access to internal RAMs.

Cortex-A cores expose their internal RAMs (cache data, cache tags, TLBs,
BTBs) through the CP15 co-processor interface for low-level memory-error
debugging.  On the Cortex-A72 the attacker issues a RAMINDEX operation
(``SYS #0, c15, c4, #0, <xt>``), executes ``DSB SY; ISB``, and then reads
the cache *data register interface* — paper §6.1 step 3.

The model enforces the three real-world constraints:

* RAMINDEX is privileged — the paper uses EL3;
* the barrier sequence matters on an out-of-order core: reading the data
  register before ``DSB``/``ISB`` returns stale garbage, not the
  requested line;
* TrustZone filters the response: a line whose NS bit marks it secure is
  not served to a non-secure requester.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import AccessViolation, SecureAccessViolation
from .cache import TAG_BYTES, SetAssociativeCache, encode_tag
from .context import ExecutionContext
from .readnoise import BitErrorModel
from .tlb import Btb, Tlb


class RamId(enum.Enum):
    """Internal RAM selectors, mirroring the TRM's RAMINDEX encoding."""

    L1D_DATA = "l1d-data"
    L1D_TAG = "l1d-tag"
    L1I_DATA = "l1i-data"
    L1I_TAG = "l1i-tag"
    TLB = "tlb"
    BTB = "btb"


@dataclass
class _PendingRead:
    """An issued RAMINDEX op waiting for barriers before readout."""

    ram: RamId
    way: int
    index: int
    dsb_done: bool = False
    isb_done: bool = False


class Cp15Interface:
    """Per-core CP15 RAMINDEX front-end over a core's L1 caches.

    One instance serves one core; the SoC hands them out per core index.
    """

    #: Minimum exception level for RAMINDEX.  The paper performs its
    #: dumps from EL3 on open devices; the operation itself is granted
    #: to any hypervisor-level-or-above context — on a TrustZone-locked
    #: part the attacker's non-secure EL2 image can still issue it, and
    #: the NS-bit filtering below is what protects secure lines (§8).
    REQUIRED_EL = 2

    def __init__(
        self,
        core_index: int,
        l1d: SetAssociativeCache,
        l1i: SetAssociativeCache,
        tlb: Tlb,
        btb: Btb,
        trustzone_enforced: bool = False,
    ) -> None:
        self.core_index = core_index
        self._l1d = l1d
        self._l1i = l1i
        self._tlb = tlb
        self._btb = btb
        self.trustzone_enforced = trustzone_enforced
        self._pending: _PendingRead | None = None
        self._data_register = b"\x00" * l1d.geometry.line_bytes
        #: Imperfect-rig model: dump-loop read errors on a rail held at
        #: retention voltage (arm with :meth:`set_read_noise`).
        self.read_noise: BitErrorModel | None = None

    def set_read_noise(self, model: BitErrorModel | None) -> None:
        """Arm (or disarm, with ``None``) the per-bit read-error model.

        The model corrupts only what :meth:`read_data_register` returns
        — the cache arrays themselves are never modified, so repeated
        dumps of the same line draw fresh, independent errors (which is
        exactly what majority-vote multi-read extraction exploits).
        """
        self.read_noise = model

    def _cache_for(self, ram: RamId) -> SetAssociativeCache:
        if ram in (RamId.L1D_DATA, RamId.L1D_TAG):
            return self._l1d
        return self._l1i

    def _entry_ram_for(self, ram: RamId) -> Tlb | Btb:
        return self._tlb if ram is RamId.TLB else self._btb

    # ------------------------------------------------------------------
    # Low-level instruction-equivalent operations
    # ------------------------------------------------------------------

    def ramindex(
        self, ctx: ExecutionContext, ram: RamId, way: int, index: int
    ) -> None:
        """Issue the RAMINDEX system operation (the ``SYS`` instruction)."""
        ctx.require_el(self.REQUIRED_EL, "RAMINDEX")
        if ram in (RamId.TLB, RamId.BTB):
            structure = self._entry_ram_for(ram)
            if not 0 <= index < structure.count:
                raise AccessViolation(
                    f"RAMINDEX: no entry {index} in {structure.name}"
                )
        else:
            cache = self._cache_for(ram)
            if not 0 <= way < cache.geometry.ways:
                raise AccessViolation(f"RAMINDEX: no way {way} in {cache.name}")
            if not 0 <= index < cache.geometry.sets:
                raise AccessViolation(f"RAMINDEX: no set {index} in {cache.name}")
        self._pending = _PendingRead(ram, way, index)

    def dsb(self) -> None:
        """Data synchronisation barrier (``DSB SY``)."""
        if self._pending is not None:
            self._pending.dsb_done = True

    def isb(self) -> None:
        """Instruction synchronisation barrier (``ISB``)."""
        if self._pending is not None and self._pending.dsb_done:
            self._pending.isb_done = True

    def read_data_register(self, ctx: ExecutionContext) -> bytes:
        """Read the cache data register interface.

        Without the full ``DSB``+``ISB`` sequence after RAMINDEX the
        register still holds its previous content — the out-of-order
        hazard the paper warns about.
        """
        ctx.require_el(self.REQUIRED_EL, "cache data register read")
        pending = self._pending
        if pending is None or not (pending.dsb_done and pending.isb_done):
            return self._data_register  # stale: barriers not honoured
        if pending.ram in (RamId.TLB, RamId.BTB):
            payload = self._entry_ram_for(pending.ram).read_bytes(pending.index)
        else:
            cache = self._cache_for(pending.ram)
            entry = cache.raw_tag_entry(pending.index, pending.way)
            self._check_security(ctx, entry[3])
            if pending.ram in (RamId.L1D_TAG, RamId.L1I_TAG):
                # The repacked entry: bits 51-63 of the raw word are not
                # part of it.
                payload = encode_tag(*entry).to_bytes(TAG_BYTES, "little")
            else:
                payload = cache.raw_line(pending.way, pending.index)
        if self.read_noise is not None:
            payload = self.read_noise.corrupt(payload)
        self._data_register = payload
        self._pending = None
        return payload

    def _check_security(self, ctx: ExecutionContext, line_ns: bool) -> None:
        if self.trustzone_enforced and not line_ns and not ctx.secure:
            raise SecureAccessViolation(
                "RAMINDEX on a secure cache line from the non-secure world"
            )

    # ------------------------------------------------------------------
    # Convenience dumps (well-formed instruction sequences)
    # ------------------------------------------------------------------

    def read_line(
        self, ctx: ExecutionContext, ram: RamId, way: int, index: int
    ) -> bytes:
        """One correctly-barriered RAMINDEX read of a single line/entry."""
        self.ramindex(ctx, ram, way, index)
        self.dsb()
        self.isb()
        return self.read_data_register(ctx)

    def dump_way(
        self, ctx: ExecutionContext, ram: RamId, way: int,
        skip_secure: bool = False,
    ) -> bytes:
        """Dump an entire way of a cache RAM, line by line.

        With ``skip_secure`` set, secure lines are replaced by zero bytes
        instead of raising — useful for a best-effort dump on a
        TrustZone-enforcing part.
        """
        cache = self._cache_for(ram)
        chunks: list[bytes] = []
        entry_size = (
            TAG_BYTES if ram in (RamId.L1D_TAG, RamId.L1I_TAG)
            else cache.geometry.line_bytes
        )
        for index in range(cache.geometry.sets):
            try:
                chunks.append(self.read_line(ctx, ram, way, index))
            except SecureAccessViolation:
                if not skip_secure:
                    raise
                chunks.append(b"\x00" * entry_size)
        return b"".join(chunks)

    def dump_entry_ram(self, ctx: ExecutionContext, ram: RamId) -> bytes:
        """Dump a TLB or BTB entry RAM through RAMINDEX."""
        return b"".join(
            self.read_line(ctx, ram, 0, index)
            for index in range(self._entry_ram_for(ram).count)
        )
