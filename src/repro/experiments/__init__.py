"""Paper experiments: one module per table/figure of the evaluation.

Every module exposes ``run(...) -> AttackReport``-style entry points plus
the structured data behind them, so the benchmark harness can both print
the paper-shaped tables and assert on the result shapes.

| Module | Reproduces |
|---|---|
| :mod:`~repro.experiments.table1` | Table 1 — cold boot errors on BCM2711 d-cache vs temperature |
| :mod:`~repro.experiments.figure3` | Figure 3 — cold-booted d-cache way snapshot (random) |
| :mod:`~repro.experiments.table4` | Table 4 — d-cache extraction vs array size under Linux |
| :mod:`~repro.experiments.figure7` | Figure 7 — bare-metal i-cache snapshots (BCM2711/BCM2837) |
| :mod:`~repro.experiments.figure8` | Figure 8 — cache snapshots under an OS (0xAA app) |
| :mod:`~repro.experiments.figure9` | Figure 9 — i.MX53 iRAM bitmap recovery |
| :mod:`~repro.experiments.figure10` | Figure 10 — per-512-bit Hamming profile of the iRAM |
| :mod:`~repro.experiments.registers` | §7.2 — vector-register retention |
| :mod:`~repro.experiments.accessibility` | §6.2 — post-boot accessible memory fractions |
| :mod:`~repro.experiments.retention_sweep` | §3/§5 — retention vs temperature and off-time |
| :mod:`~repro.experiments.probe_sweep` | §6 — probe current/voltage adequacy ablation |
| :mod:`~repro.experiments.countermeasures` | §8 — defense survey |
| :mod:`~repro.experiments.platforms` | Tables 2 & 3 — platform/pad inventory |
| :mod:`~repro.experiments.dram_coldboot` | §9.1 — DRAM cold boot and its mitigation |
| :mod:`~repro.experiments.microarch_leak` | §2.1 — execution footprint in the TLB and BTB |
| :mod:`~repro.experiments.standby_retention` | §2.1 — standby voltage scaling vs retention |
| :mod:`~repro.experiments.policy_ablation` | design ablation — L1 replacement policy vs Table 4 |
| :mod:`~repro.experiments.glitch_campaign` | ``repro.glitch`` — voltage-glitch parameter search |
| :mod:`~repro.experiments.noisy_rig` | ``repro.resilience`` — naive vs resilient driver on a flaky bench |
"""

from __future__ import annotations

import importlib
from types import ModuleType

#: The experiment names, read by the CLI.  ``name`` is the module
#: ``repro.experiments.<name with "-" replaced by "_">``, imported only
#: when it is run (:func:`load`).
EXPERIMENTS = (
    "table1",
    "figure3",
    "table4",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "registers",
    "accessibility",
    "retention-sweep",
    "probe-sweep",
    "countermeasures",
    "platforms",
    "dram-coldboot",
    "microarch-leak",
    "standby-retention",
    "policy-ablation",
    "glitch-campaign",
    "noisy-rig",
)


def load(name: str) -> ModuleType:
    """Import the module of experiment ``name``."""
    return importlib.import_module(f"{__name__}.{name.replace('-', '_')}")
