"""A complete evaluation platform: SoC + PMIC + PDN + environment.

The :class:`Board` is the unit the attack operates on.  It owns the
physical interfaces of paper §6.1:

* the main power input (USB-C / barrel jack) — ``plug_in`` / ``unplug``;
* PCB test pads exposed by the PDN — ``attach_probe`` / ``detach_probe``;
* the thermal environment — ``set_temperature_c`` (the TestEquity chamber
  of §3);
* simulated time — ``wait`` (how long the board sits dark);
* the boot flow — ``boot`` with optional external media.

The central mechanic: on ``unplug``, every power domain collapses —
*except* domains whose board net carries an attached probe, which are
held alive through the disconnect surge.  That asymmetry is Volt Boot.
"""

from __future__ import annotations

from ..circuits.pdn import PowerDeliveryNetwork
from ..circuits.pmic import Pmic
from ..circuits.supply import BenchSupply, VoltageProbe
from ..errors import BootError, PowerError, ProbeError
from ..power.domain import PowerDomain
from ..power.events import PowerEventKind, PowerEventLog
from ..rng import SeedSequenceFactory
from ..units import celsius_to_kelvin
from .bootrom import BootMedia
from .memory_map import MainMemory
from .soc import Soc


class Board:
    """One victim device: a populated PCB in a thermal environment."""

    def __init__(
        self,
        name: str,
        soc: Soc,
        pmic: Pmic,
        pdn: PowerDeliveryNetwork,
        main_memory: MainMemory,
        seeds: SeedSequenceFactory,
        log: PowerEventLog,
        root_seed: int | None = None,
    ) -> None:
        self.name = name
        self._root_seed = root_seed
        self.soc = soc
        self.pmic = pmic
        self.pdn = pdn
        self.main_memory = main_memory
        self.log = log
        self._seeds = seeds
        self._temperature_c = 25.0
        self._probes: dict[str, VoltageProbe] = {}
        self._boot_count = 0
        self.booted = False

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------

    @property
    def seed_root(self) -> int:
        """The root seed this board's randomness derives from.

        Builders pass the caller's original seed; a hand-assembled board
        falls back to its seed factory's root.
        """
        if self._root_seed is not None:
            return self._root_seed
        return self._seeds.root

    @property
    def temperature_c(self) -> float:
        """Present ambient/die temperature in Celsius."""
        return self._temperature_c

    @property
    def temperature_k(self) -> float:
        """Present temperature in kelvin."""
        return celsius_to_kelvin(self._temperature_c)

    def set_temperature_c(self, celsius: float) -> None:
        """Place the board in a thermal chamber at ``celsius``.

        The model treats soak as instantaneous; the paper stabilises for
        an hour, which we fold into the caller's narrative.
        """
        celsius_to_kelvin(celsius)  # validates
        self._temperature_c = celsius
        self.log.record(
            PowerEventKind.NOTE, self.name, f"temperature set to {celsius:g}C"
        )

    def wait(self, seconds: float) -> None:
        """Let simulated time pass; unpowered domains decay."""
        self.log.clock.advance(seconds)
        for domain in self.soc.pmu.domains():
            if not domain.powered:
                domain.elapse_unpowered(seconds, self.temperature_k)

    # ------------------------------------------------------------------
    # Main power
    # ------------------------------------------------------------------

    @property
    def powered(self) -> bool:
        """Whether the main input is connected."""
        return self.pmic.input_present

    def _rail_voltages(self) -> dict[str, float]:
        voltages = {}
        for domain in self.soc.pmu.domains():
            net = self.pdn.net_for_domain(domain.name)
            voltages[domain.name] = self.pdn.live_voltage(net.name)
        return voltages

    def plug_in(self) -> list[PowerDomain]:
        """Connect the main supply; the PMIC sequences every domain up.

        Returns the domains that came up from dark, which report what
        their loads retained (externally-held domains are handed back
        to the PMIC, retaining everything — the attack's payoff moment).
        """
        if self.pmic.input_present:
            raise PowerError(f"{self.name}: already plugged in")
        self.pmic.connect_input()
        self.log.record(PowerEventKind.INPUT_CONNECTED, self.name)
        return self.soc.pmu.power_up_sequence(self._rail_voltages())

    def unplug(self) -> dict[str, int]:
        """Abruptly cut the main supply (battery pull / cable yank).

        Domains with a probe on their net are held alive through the
        disconnect surge; all others go dark instantly — too fast for any
        software purge routine to run (paper §3).  Returns, per held
        domain, the number of cells lost to the surge transient.
        """
        if not self.pmic.input_present:
            raise PowerError(f"{self.name}: already unplugged")
        self.pmic.disconnect_input()
        self.booted = False
        losses: dict[str, int] = {}
        for domain in self.soc.pmu.domains():
            if not domain.powered:
                continue
            net = self.pdn.net_for_domain(domain.name)
            probe = self._probes.get(net.name)
            if probe is None:
                domain.cut_power()
                continue
            surge = self.soc.domain_spec(domain.name).surge
            floor_v = probe.supply.minimum_rail_voltage(
                surge, net.decoupling, net.parasitics
            )
            steady_v = probe.supply.steady_state_voltage(surge.settle_current_a)
            if steady_v <= 0.0:
                # The probe current-limited into foldback: the rail dies.
                self.log.record(
                    PowerEventKind.NOTE,
                    domain.name,
                    "probe folded back under retention load; rail lost",
                )
                domain.cut_power()
                continue
            losses[domain.name] = domain.hold_external(steady_v, floor_v)
        self.log.record(PowerEventKind.INPUT_DISCONNECTED, self.name)
        return losses

    def power_cycle(self, off_seconds: float) -> list[PowerDomain]:
        """Unplug, sit dark for ``off_seconds``, plug back in."""
        self.unplug()
        self.wait(off_seconds)
        return self.plug_in()

    # ------------------------------------------------------------------
    # Probes (the attacker's hands)
    # ------------------------------------------------------------------

    def measure_pad_voltage(self, pad_name: str) -> float:
        """Attack step 2 first half: meter the pad's nominal voltage."""
        pad = self.pdn.pad(pad_name)
        domain_names = self.pdn.net(pad.net_name).domain_names
        if domain_names:
            domain = self.soc.pmu.domain(domain_names[0])
            if domain.powered:
                return domain.voltage
        return self.pdn.live_voltage(pad.net_name)

    def attach_probe(self, pad_name: str, supply: BenchSupply) -> VoltageProbe:
        """Land a bench-supply probe on a test pad."""
        pad = self.pdn.pad(pad_name)
        if pad.net_name in self._probes:
            raise ProbeError(f"{self.name}: net {pad.net_name!r} already probed")
        probe = VoltageProbe(supply, pad.name, pad.net_name)
        probe.attach(self.measure_pad_voltage(pad_name))
        self._probes[pad.net_name] = probe
        self.log.record(
            PowerEventKind.PROBE_ATTACHED,
            pad_name,
            f"{supply.voltage_v:.3f}V, limit {supply.current_limit_a:g}A",
        )
        return probe

    def detach_probe(self, pad_name: str) -> None:
        """Lift the probe off a pad.

        Detaching while the probe is the only thing holding a domain
        alive collapses that domain.
        """
        pad = self.pdn.pad(pad_name)
        probe = self._probes.get(pad.net_name)
        if probe is None or probe.pad_name != pad_name:
            raise ProbeError(f"{self.name}: no probe on {pad_name}")
        probe.detach()
        del self._probes[pad.net_name]
        for domain_name in self.pdn.net(pad.net_name).domain_names:
            domain = self.soc.pmu.domain(domain_name)
            if domain.held_externally:
                domain.cut_power()
        self.log.record(PowerEventKind.PROBE_DETACHED, pad_name)

    # ------------------------------------------------------------------
    # Boot flow
    # ------------------------------------------------------------------

    def boot(self, media: BootMedia | None = None) -> None:
        """Run the boot flow: ROM, co-processors, firmware hand-off.

        Mirrors the behaviours of §6.2: the VideoCore clobbers the shared
        L2, the boot ROM clobbers its iRAM scratchpad, MBIST (if fitted
        and enabled) wipes everything, GPRs are consumed by boot code, and
        the L1 caches come up disabled with contents untouched.
        """
        if not self.powered:
            raise BootError(f"{self.name}: cannot boot without power")
        if self.booted:
            raise BootError(f"{self.name}: already booted; power cycle first")
        self.soc.bootrom.check_media(media)
        boot_rng = self.soc.boot_rng(self._boot_count)
        if self.soc.videocore is not None:
            self.soc.videocore.run_boot_firmware()
        self.soc.bootrom.run_scratchpad(self.soc.iram, boot_rng)
        self.soc.mbist.run_boot_reset()
        for core in self.soc.cores:
            core.l1d.reset_architectural_state()
            core.l1i.reset_architectural_state()
            core.tlb.reset_architectural_state()
            # Boot code burns through the general-purpose registers; the
            # vector file is not part of any boot sequence (paper §7.2).
            for reg in range(core.gpr.count):
                core.gpr.write(reg, int(boot_rng.integers(0, 2**63)))
        if self.soc.l2 is not None:
            self.soc.l2.reset_architectural_state()
        self._boot_count += 1
        self.booted = True
        self.log.record(
            PowerEventKind.BOOT,
            self.name,
            media.name if media is not None else "internal ROM",
        )
