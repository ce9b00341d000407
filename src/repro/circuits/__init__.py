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

from .engine import VectorEngine
from .leakage import ArrheniusDecay, DRAM_DECAY, SRAM_DECAY
from .sram import SramArray, SramParameters
from .dram import DramArray, DramParameters
from .passives import DecouplingNetwork, DisconnectSurge, SupplyLineParasitics
from .pmic import BuckConverter, Ldo, Pmic, Regulator
from .supply import BenchSupply, VoltageProbe
from .waveform import RailWaveform, disconnect_waveform
from .pdn import NetKind, PdnNet, PowerDeliveryNetwork, TestPad

__all__ = [
    "VectorEngine",
    "ArrheniusDecay",
    "SRAM_DECAY",
    "DRAM_DECAY",
    "SramArray",
    "SramParameters",
    "DramArray",
    "DramParameters",
    "DecouplingNetwork",
    "DisconnectSurge",
    "SupplyLineParasitics",
    "Regulator",
    "Ldo",
    "BuckConverter",
    "Pmic",
    "BenchSupply",
    "VoltageProbe",
    "RailWaveform",
    "disconnect_waveform",
    "PowerDeliveryNetwork",
    "PdnNet",
    "NetKind",
    "TestPad",
]
