"""Canned bare-metal victim programs (paper §6.2, §7.1, §7.2).

Each builder returns assembly source; callers assemble, load, and run it
on a :class:`~repro.cpu.core.Core`.  The programs mirror the paper's
victims:

* :func:`nop_fill` — enable caches and execute a NOP sled sized to the
  i-cache, so the attack's i-cache dump can be diffed against known
  machine code (§7.1.1);
* :func:`vector_fill` — park recognisable patterns in the 128-bit vector
  registers, TRESOR-style (§7.2);
* :func:`byte_pattern_store` — store a repeated byte (0xAA) over a
  buffer, the Linux demo app of Figure 8;
* :func:`dczva_wipe` — zero a buffer with ``DC ZVA``, the software purge
  from §8;
* :func:`pin_check` — a secure-boot-style PIN comparison, the victim of
  the ``repro.glitch`` fault-injection campaigns.
"""

from __future__ import annotations

from ..errors import AssemblerError

#: Magic prefix marking pattern-array elements; the low bytes carry the
#: element index, so each 8-byte element is globally unique and
#: recognisable in a raw cache image.
ARRAY_ELEMENT_MAGIC = 0x5EC2_E7B0_0000_0000


def element_value(index: int) -> int:
    """The 8-byte value of array element ``index`` in the Table 4 victim
    (:class:`~repro.osim.process.ArrayFillProcess`)."""
    if not 0 <= index < (1 << 32):
        raise AssemblerError(f"element index {index} out of range")
    return ARRAY_ELEMENT_MAGIC | index


def nop_fill(code_bytes: int) -> str:
    """A cache-enable prologue followed by ``code_bytes`` worth of NOPs.

    Executing it walks the PC across ``code_bytes`` of straight-line
    code, pulling every line into the i-cache.  ``code_bytes`` counts the
    NOP sled only; prologue and HLT are a handful of extra instructions.
    """
    if code_bytes % 4:
        raise AssemblerError("NOP sled size must be a multiple of 4")
    sled = "\n".join("    nop" for _ in range(code_bytes // 4))
    return f"""
; bare-metal NOP fill ({code_bytes} bytes of sled)
    cacheen
{sled}
    hlt
"""


def vector_fill(patterns: tuple[int, ...] = (0xFF, 0xAA)) -> str:
    """Park alternating byte patterns in all 32 vector registers (§7.2)."""
    lines = [
        f"    vfill v{reg}, #{patterns[reg % len(patterns)]:#04x}"
        for reg in range(32)
    ]
    body = "\n".join(lines)
    return f"""
; TRESOR-style vector register fill
    cacheen
{body}
    hlt
"""


def byte_pattern_store(base_addr: int, size_bytes: int, pattern: int = 0xAA) -> str:
    """Store ``pattern`` over ``size_bytes`` at ``base_addr`` (Figure 8 app).

    Writes 8 bytes at a time; the pattern byte is replicated across the
    word.
    """
    if size_bytes % 8:
        raise AssemblerError("buffer size must be a multiple of 8")
    word = int.from_bytes(bytes([pattern & 0xFF]) * 8, "little")
    return f"""
; store 0x{pattern:02X} over {size_bytes} bytes, then read back
    cacheen
    ldimm x0, #{base_addr:#x}
    ldimm x1, #{word:#x}
    ldimm x2, #{size_bytes // 8}
store_loop:
    str   x1, [x0, #0]
    ldr   x3, [x0, #0]
    addi  x0, x0, #8
    subi  x2, x2, #1
    cbnz  x2, store_loop
    hlt
"""


def pin_check(
    flag_addr: int,
    entered_pin: int,
    stored_pin: int,
    delay_iterations: int = 12,
) -> str:
    """A secure-boot-style PIN comparison — the glitch campaign's victim.

    Clears an unlock flag, spins a calibration delay loop (so the
    comparison sits at a known time for the glitch offset axis), XORs
    the entered PIN against the stored one, and only writes ``flag = 1``
    when they match.  With a wrong PIN the honest outcomes are
    ``flag = 0`` + HLT; a fault that skips or corrupts the ``cbnz``
    guard lets the unlock path run anyway.  Register use: x0 flag
    address, x1 flag value, x2 entered, x3 stored, x4 difference,
    x5 delay counter.
    """
    if delay_iterations <= 0:
        raise AssemblerError("delay iterations must be positive")
    return f"""
; PIN check: entered {entered_pin:#x} vs stored {stored_pin:#x}
    cacheen
    ldimm x0, #{flag_addr:#x}
    ldi   x1, #0
    str   x1, [x0, #0]          ; flag = locked
    ldimm x5, #{delay_iterations}
delay_loop:
    subi  x5, x5, #1
    cbnz  x5, delay_loop
    ldimm x2, #{entered_pin:#x}
    ldimm x3, #{stored_pin:#x}
    eor   x4, x2, x3
    cbnz  x4, locked            ; the guard a glitch wants to break
    ldi   x1, #1
    str   x1, [x0, #0]          ; flag = unlocked
locked:
    hlt
"""


def dczva_wipe(base_addr: int, size_bytes: int, line_bytes: int = 64) -> str:
    """Zero a buffer line-by-line with ``DC ZVA`` (§8 purge loop)."""
    if size_bytes % line_bytes:
        raise AssemblerError("wipe size must be a multiple of the line size")
    return f"""
; DC ZVA purge of {size_bytes} bytes
    cacheen
    ldimm x0, #{base_addr:#x}
    ldimm x2, #{size_bytes // line_bytes}
wipe_loop:
    dczva x0
    addi  x0, x0, #{line_bytes}
    subi  x2, x2, #1
    cbnz  x2, wipe_loop
    hlt
"""
