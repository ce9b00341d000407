"""On-chip AES runtimes — the victims Volt Boot defeats.

Two of the paper's motivating defense families are modelled behaviourally:

* :class:`RegisterAes` — TRESOR-style (paper refs [30], [13], [39]):
  the key schedule lives only in the 128-bit vector registers; DRAM
  never sees the key.  Each 16-byte round key occupies one ``v``
  register, so AES-128's 11 round keys use ``v0..v10``.
* :class:`CacheLockedAes` — CaSE-style (paper ref [44]): the schedule
  and working state are pinned in L1 d-cache lines that are marked
  *secure* (NS=0) and never evicted (a partially locked cache).

Both runtimes perform real AES using only their on-chip copy of the
schedule, so the secrets an attack recovers are the actual bytes the
algorithm consumed.
"""

from __future__ import annotations

from ..errors import ReproError
from ..soc.soc import CoreUnit
from .aes import encrypt_with_schedule, expand_key, rounds_for_key


class RegisterAes:
    """TRESOR-style AES keyed entirely from the vector register file.

    ``install_key`` expands the key and writes each round key into one
    vector register; the key material passed in is the caller's problem
    to scrub (TRESOR derives it from the keyboard at boot).  ``encrypt``
    reads the schedule back out of the registers for every block — no
    schedule copy ever exists in DRAM or in d-cache.
    """

    def __init__(self, unit: CoreUnit, first_register: int = 0) -> None:
        self.unit = unit
        self.first_register = first_register
        self._n_round_keys = 0

    def install_key(self, key: bytes) -> int:
        """Expand ``key`` into vector registers; returns registers used."""
        round_keys = expand_key(key)
        needed = len(round_keys)
        if self.first_register + needed > self.unit.vreg.count:
            raise ReproError(
                f"schedule needs {needed} vector registers from "
                f"v{self.first_register}; file has {self.unit.vreg.count}"
            )
        for offset, round_key in enumerate(round_keys):
            self.unit.vreg.write_bytes(self.first_register + offset, round_key)
        self._n_round_keys = needed
        return needed

    def _schedule_from_registers(self) -> list[bytes]:
        if not self._n_round_keys:
            raise ReproError("no key installed")
        return [
            self.unit.vreg.read_bytes(self.first_register + i)
            for i in range(self._n_round_keys)
        ]

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt one block using only the register-resident schedule."""
        return encrypt_with_schedule(self._schedule_from_registers(), plaintext)

    def schedule(self) -> list[bytes]:
        """The register-resident round keys, as the engine would use them.

        This is the schedule a hardware-fault model perturbs mid-round
        (:mod:`repro.glitch.dfa` encrypts from it): reading it performs
        the same vector-register fetches as :meth:`encrypt`.
        """
        return self._schedule_from_registers()


class CacheLockedAes:
    """CaSE-style AES pinned in secure, locked L1 d-cache lines.

    ``install_key`` writes the expanded schedule into d-cache lines at
    ``schedule_addr`` and marks them secure (NS=0) — modelling
    TrustZone-aware cache locking.  Because the lines are locked, the
    kernel and other processes can never evict them, which is why the
    paper notes Volt Boot recovers CaSE-protected state in full
    (§7.1.2 closing remark).
    """

    def __init__(self, unit: CoreUnit, schedule_addr: int = 0x70000) -> None:
        self.unit = unit
        self.schedule_addr = schedule_addr
        self._schedule_len = 0

    def install_key(self, key: bytes) -> int:
        """Place the expanded schedule in locked secure lines.

        Returns the number of cache lines consumed.
        """
        if not self.unit.l1d.enabled:
            self.unit.l1d.invalidate_all()
            self.unit.l1d.enabled = True
        schedule = b"".join(expand_key(key))
        self._schedule_len = len(schedule)
        self.unit.l1d.write(self.schedule_addr, schedule, ns=False)
        line = self.unit.l1d.geometry.line_bytes
        return (len(schedule) + line - 1) // line

    def _schedule_from_cache(self) -> list[bytes]:
        if not self._schedule_len:
            raise ReproError("no key installed")
        raw = self.unit.l1d.read(self.schedule_addr, self._schedule_len, ns=False)
        return [raw[i : i + 16] for i in range(0, len(raw), 16)]

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt one block from the cache-resident schedule."""
        return encrypt_with_schedule(self._schedule_from_cache(), plaintext)

    @staticmethod
    def rounds(key: bytes) -> int:
        """Round count for a key (exposed for tests/examples)."""
        return rounds_for_key(key)
