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

from . import (
    accessibility,
    countermeasures,
    dram_coldboot,
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    glitch_campaign,
    microarch_leak,
    noisy_rig,
    platforms,
    policy_ablation,
    probe_sweep,
    registers,
    retention_sweep,
    standby_retention,
    table1,
    table4,
)

#: Experiment name -> module: the one registry, read by the CLI.
EXPERIMENTS = {
    "table1": table1,
    "figure3": figure3,
    "table4": table4,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "registers": registers,
    "accessibility": accessibility,
    "retention-sweep": retention_sweep,
    "probe-sweep": probe_sweep,
    "countermeasures": countermeasures,
    "platforms": platforms,
    "dram-coldboot": dram_coldboot,
    "microarch-leak": microarch_leak,
    "standby-retention": standby_retention,
    "policy-ablation": policy_ablation,
    "glitch-campaign": glitch_campaign,
    "noisy-rig": noisy_rig,
}
