"""SoC substrate: caches, register files, iRAM, debug ports, boards.

This package builds the architectural layer on top of the circuit
substrate.  Everything volatile is backed by
:class:`~repro.circuits.sram.SramArray` macros so the power layer can
hold or drop whole power domains as physical units, exactly as the
paper's attack does.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".board": ("Board",),
    ".bootrom": ("BootMedia", "BootRom", "ClobberRegion"),
    ".cache": ("CacheGeometry", "SetAssociativeCache"),
    ".context": ("ExecutionContext", "EL2_NS", "EL3_SECURE"),
    ".cp15": ("Cp15Interface", "RamId"),
    ".iram": ("Iram",),
    ".jtag": ("JtagProbe",),
    ".mbist": ("MbistEngine",),
    ".memory_map": ("MainMemory", "MemoryMap", "MemoryPort", "Region"),
    ".regfile": (
        "RegisterFile", "WordRam", "general_purpose_file", "vector_file",
    ),
    ".soc": ("CoreUnit", "DomainSpec", "Soc", "SocConfig"),
    ".videocore": ("VideoCore",),
})
