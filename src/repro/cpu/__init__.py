"""A miniature aarch64-flavoured CPU: ISA, assembler, interpreter.

The paper's victim workloads are small bare-metal aarch64 programs
(NOP-fills, pattern stores, vector-register fills) plus Linux userspace
microbenchmarks.  This package provides a reduced instruction set that is
rich enough to express all of them, an assembler producing real machine
code (so instruction bytes land in the i-cache and can be compared to
ground truth), and an interpreter that drives every fetch and data access
through the SRAM-backed cache hierarchy.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".": ("programs",),
    ".assembler": ("AssembledProgram", "assemble"),
    ".core": ("Core",),
    ".isa": ("Instruction", "Opcode", "decode", "encode"),
})
