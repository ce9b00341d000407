"""SoC substrate: caches, register files, iRAM, debug ports, boards.

This package builds the architectural layer on top of the circuit
substrate.  Everything volatile is backed by
:class:`~repro.circuits.sram.SramArray` macros so the power layer can
hold or drop whole power domains as physical units, exactly as the
paper's attack does.
"""

from .board import Board
from .bootrom import BootMedia, BootRom, ClobberRegion
from .cache import CacheGeometry, SetAssociativeCache
from .context import EL0_NS, EL1_NS, EL2_NS, EL3_SECURE, ExecutionContext
from .cp15 import Cp15Interface, RamId
from .iram import Iram
from .jtag import JtagProbe
from .mbist import MbistEngine
from .memory_map import MainMemory, MemoryMap, MemoryPort, Region, RomWindow
from .regfile import RegisterFile, WordRam, general_purpose_file, vector_file
from .soc import CoreUnit, DomainSpec, Soc, SocConfig
from .videocore import VideoCore

__all__ = [
    "Board",
    "BootMedia",
    "BootRom",
    "ClobberRegion",
    "CacheGeometry",
    "SetAssociativeCache",
    "ExecutionContext",
    "EL0_NS",
    "EL1_NS",
    "EL2_NS",
    "EL3_SECURE",
    "Cp15Interface",
    "RamId",
    "Iram",
    "JtagProbe",
    "MbistEngine",
    "MainMemory",
    "MemoryMap",
    "MemoryPort",
    "Region",
    "RomWindow",
    "RegisterFile",
    "WordRam",
    "general_purpose_file",
    "vector_file",
    "CoreUnit",
    "DomainSpec",
    "Soc",
    "SocConfig",
    "VideoCore",
]
