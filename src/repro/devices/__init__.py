"""Concrete victim devices: the paper's three evaluation platforms.

Builders return fully-wired :class:`~repro.soc.board.Board` instances
matching paper Tables 2 and 3:

* :func:`raspberry_pi_4` — BCM2711, 4×Cortex-A72, probe pad TP15 on
  VDD_CORE at 0.8 V; targets: L1D, L1I, registers.
* :func:`raspberry_pi_3` — BCM2837, 4×Cortex-A53, probe pad PP58 on
  VDD_CORE at 1.2 V; targets: L1D, L1I, registers.
* :func:`imx53_qsb` — i.MX535, 1×Cortex-A8, probe pad SH13 on VDDAL1 at
  1.3 V; target: 128 KB iRAM.

:func:`glitch_rig` builds a fourth, non-paper board: the small
decoupling-stripped bench target of the :mod:`repro.glitch`
fault-injection campaigns (pad TPG1 on VDD_CORE at 0.8 V).

Each accepts countermeasure toggles (TrustZone enforcement, MBIST,
authenticated-boot fusing) used by the §8 experiments.
"""

from ..lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    ".builders": (
        "raspberry_pi_4", "raspberry_pi_3", "imx53_qsb", "glitch_rig",
        "build_device",
    ),
    ".registry": (
        "DEVICES", "DeviceInfo", "platform_table",
        "probe_table",
    ),
})
