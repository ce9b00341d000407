"""Victim cryptography: AES and on-chip (TRESOR/CaSE-style) runtimes.

The defenses Volt Boot breaks — TRESOR, PRIME, Sentry, CaSE — keep AES
state in on-chip storage so that cold boot attacks on DRAM find nothing.
This package implements:

* :mod:`~repro.crypto.aes` — a from-scratch AES-128/192/256 (key
  expansion + block encrypt/decrypt), used both by victims and by the
  attacker's key-schedule search;
* :mod:`~repro.crypto.onchip` — on-chip runtimes: a register-based AES
  that parks the key schedule in the vector file (TRESOR-style), and a
  cache-locked AES that pins schedule + working state in secure L1 lines
  (CaSE-style).
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".aes": (
        "AES_BLOCK_BYTES", "expand_key", "schedule_bytes", "rounds_for_key",
        "encrypt_block", "decrypt_block",
    ),
    ".onchip": ("RegisterAes", "CacheLockedAes"),
})
