"""Device metadata registry — paper Tables 2 and 3 as data.

The registry is the source of the platform facts quoted in reports:
board/SoC/CPU identity, targeted memories, probe pads, and nominal rail
voltages.  The builders in :mod:`repro.devices.builders` do not read
these records; they declare the simulated hardware themselves, and the
device tests check that the registry's pads and voltages match the
boards they build.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Maps a registry target onto the attack planner's member keyword.
_ATTACK_TARGET = {"L1D": "l1-caches", "L1I": "l1-caches",
                  "registers": "registers", "iRAM": "iram"}


@dataclass(frozen=True)
class DeviceInfo:
    """Inventory record for one evaluation platform."""

    key: str
    board: str
    soc: str
    cpu: str
    cores: int
    targets: tuple[str, ...]
    probe_pad: str
    probe_net: str
    nominal_v: float
    power_domain: str
    extraction: str  # "cp15" or "jtag"

    @property
    def attack_targets(self) -> tuple[str, ...]:
        """The planner keywords of ``targets``, in order and without
        repeats; the first is the default attack target."""
        return tuple(dict.fromkeys(_ATTACK_TARGET[t] for t in self.targets))


DEVICES: dict[str, DeviceInfo] = {
    "rpi4": DeviceInfo(
        key="rpi4",
        board="Raspberry Pi 4",
        soc="BCM2711",
        cpu="Cortex-A72",
        cores=4,
        targets=("L1D", "L1I", "registers"),
        probe_pad="TP15",
        probe_net="VDD_CORE",
        nominal_v=0.8,
        power_domain="Core (VDD_CORE)",
        extraction="cp15",
    ),
    "rpi3": DeviceInfo(
        key="rpi3",
        board="Raspberry Pi 3",
        soc="BCM2837",
        cpu="Cortex-A53",
        cores=4,
        targets=("L1D", "L1I", "registers"),
        probe_pad="PP58",
        probe_net="VDD_CORE",
        nominal_v=1.2,
        power_domain="Core (VDD_CORE)",
        extraction="cp15",
    ),
    "imx53": DeviceInfo(
        key="imx53",
        board="i.MX53 QSB",
        soc="i.MX535",
        cpu="Cortex-A8",
        cores=1,
        targets=("iRAM",),
        probe_pad="SH13",
        probe_net="VDDAL1",
        nominal_v=1.3,
        power_domain="Memory (VDDAL1)",
        extraction="jtag",
    ),
}


def platform_table() -> list[dict[str, object]]:
    """Rows of paper Table 2 (evaluated platforms and SoCs)."""
    return [
        {
            "board": info.board,
            "soc": info.soc,
            "cpu": info.cpu,
            "cores": info.cores,
            "targets": ", ".join(info.targets),
        }
        for info in DEVICES.values()
    ]


def probe_table() -> list[dict[str, object]]:
    """Rows of paper Table 3 (test pads, voltages, domains)."""
    return [
        {
            "board": info.board,
            "pad": info.probe_pad,
            "nominal_v": info.nominal_v,
            "targets": ", ".join(info.targets),
            "domain": info.power_domain,
        }
        for info in DEVICES.values()
    ]
