"""Electrical-layer substrate: memory cells, regulators, and the PDN.

This package models the physics the Volt Boot paper exploits:

* :mod:`~repro.circuits.engine` — the cell-physics engine: vectorized
  numpy bulk kernels, checked bit for bit against a per-cell scalar
  test oracle (see ``docs/physics.md``).
* :mod:`~repro.circuits.leakage` — Arrhenius charge-decay models for SRAM
  and DRAM cells, calibrated against the remanence literature the paper
  cites.
* :mod:`~repro.circuits.sram` — 6T SRAM cell arrays with per-cell data
  retention voltage, power-up fingerprints, and voltage-history tracking.
* :mod:`~repro.circuits.dram` — capacitor-based DRAM arrays with refresh,
  used for the cold-boot baseline comparisons.
* :mod:`~repro.circuits.passives` — decoupling capacitors and supply-line
  parasitics; the droop model.
* :mod:`~repro.circuits.pmic` — LDO and buck regulator models composed
  into a PMIC.
* :mod:`~repro.circuits.supply` — bench supplies and voltage probes, the
  attacker's tools.
* :mod:`~repro.circuits.pdn` — the board-level power delivery network
  graph (rails, pins, test pads) the attacker walks to find probe points.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".engine": ("VectorEngine",),
    ".leakage": ("ArrheniusDecay", "SRAM_DECAY", "DRAM_DECAY"),
    ".sram": ("SramArray", "SramParameters"),
    ".dram": ("DramArray", "DramParameters"),
    ".passives": (
        "DecouplingNetwork", "DisconnectSurge", "SupplyLineParasitics",
    ),
    ".pmic": ("Regulator", "Ldo", "BuckConverter", "Pmic"),
    ".supply": ("BenchSupply", "VoltageProbe"),
    ".waveform": ("RailWaveform", "disconnect_waveform"),
    ".pdn": ("PowerDeliveryNetwork", "PdnNet", "NetKind", "TestPad"),
})
