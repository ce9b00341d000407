"""Board-level power delivery network (PDN) graph.

Attack step 1 (paper §6.1) is "identify target domains and their
associated pins".  On a real board the SoC's supply balls are unreachable
under a BGA package, but every supply net surfaces at passive-component
leads and test pads near the PMIC (paper Figure 4, Table 3).  We model
the board's power nets as a small graph:

    regulator rail ──> net ──> { SoC power domain pins, test pads,
                                 decoupling caps }

The attack planner (:mod:`repro.core.probe`) walks this graph to find a
reachable pad for the domain that feeds the target memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..errors import PowerError
from .passives import DecouplingNetwork, SupplyLineParasitics
from .pmic import Pmic


class NetKind(enum.Enum):
    """Classification of a board power net."""

    CORE = "core"
    MEMORY = "memory"
    IO = "io"
    SYSTEM = "system"


@dataclass(frozen=True)
class TestPad:
    """A probe-able point on the PCB (test pad or passive-component lead)."""

    name: str
    net_name: str
    description: str = ""


@dataclass(frozen=True)
class ContactNoise:
    """Probe-tip contact imperfection at a test pad.

    A hand-landed probe never makes the same contact twice: oxide,
    flux residue, and tip pressure put a lognormal-ish spread on the
    contact resistance.  The model is a base resistance plus a
    half-normal jitter (resistance only ever gets *worse* than the
    clean-contact base), redrawn per landing from a dedicated
    ``rng.spawn`` stream.
    """

    base_resistance_ohm: float = 0.0
    jitter_ohm: float = 0.0

    def __post_init__(self) -> None:
        if self.base_resistance_ohm < 0.0:
            raise PowerError("contact resistance cannot be negative")
        if self.jitter_ohm < 0.0:
            raise PowerError("contact jitter cannot be negative")

    def sample_resistance_ohm(self, rng: np.random.Generator) -> float:
        """One landing's realised contact resistance.

        Always draws exactly one variate so a zero-jitter profile keeps
        the same stream position as a noisy one.
        """
        excess = abs(float(rng.normal(0.0, 1.0))) * self.jitter_ohm
        return self.base_resistance_ohm + excess


@dataclass
class PdnNet:
    """One power net: a rail fanning out to domains and pads."""

    name: str
    kind: NetKind
    rail_name: str
    decoupling: DecouplingNetwork = field(default_factory=DecouplingNetwork)
    parasitics: SupplyLineParasitics = field(default_factory=SupplyLineParasitics)
    domain_names: list[str] = field(default_factory=list)
    pads: list[TestPad] = field(default_factory=list)


class PowerDeliveryNetwork:
    """The full PDN of one board: PMIC rails, nets, pads, and domains."""

    def __init__(self, pmic: Pmic) -> None:
        self.pmic = pmic
        self._nets: dict[str, PdnNet] = {}
        self._pads: dict[str, TestPad] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_net(
        self,
        name: str,
        kind: NetKind,
        rail_name: str,
        decoupling: DecouplingNetwork | None = None,
        parasitics: SupplyLineParasitics | None = None,
    ) -> PdnNet:
        """Create a net fed by an existing PMIC rail."""
        if name in self._nets:
            raise PowerError(f"duplicate net {name!r}")
        self.pmic.rail(rail_name)  # validates existence
        net = PdnNet(
            name=name,
            kind=kind,
            rail_name=rail_name,
            decoupling=decoupling or DecouplingNetwork(),
            parasitics=parasitics or SupplyLineParasitics(),
        )
        self._nets[name] = net
        return net

    def attach_domain(self, net_name: str, domain_name: str) -> None:
        """Record that a power domain draws from ``net_name``."""
        net = self.net(net_name)
        if domain_name in net.domain_names:
            raise PowerError(f"domain {domain_name!r} already on net {net_name!r}")
        net.domain_names.append(domain_name)

    def add_test_pad(self, name: str, net_name: str, description: str = "") -> TestPad:
        """Expose a probe-able pad on ``net_name``."""
        if name in self._pads:
            raise PowerError(f"duplicate test pad {name!r}")
        pad = TestPad(name=name, net_name=net_name, description=description)
        self.net(net_name).pads.append(pad)
        self._pads[name] = pad
        return pad

    # ------------------------------------------------------------------
    # Queries (what the attack planner uses)
    # ------------------------------------------------------------------

    def net(self, name: str) -> PdnNet:
        """Look up a net by name."""
        try:
            return self._nets[name]
        except KeyError:
            raise PowerError(f"unknown net {name!r}") from None

    def pad(self, name: str) -> TestPad:
        """Look up a test pad by name."""
        try:
            return self._pads[name]
        except KeyError:
            raise PowerError(f"unknown test pad {name!r}") from None

    def nets(self) -> list[PdnNet]:
        """All nets, in registration order."""
        return list(self._nets.values())

    def net_for_domain(self, domain_name: str) -> PdnNet:
        """Find the net feeding a power domain."""
        for net in self._nets.values():
            if domain_name in net.domain_names:
                return net
        raise PowerError(f"no net feeds domain {domain_name!r}")

    def nominal_voltage(self, net_name: str) -> float:
        """Design voltage of a net (its rail's set-point)."""
        return self.pmic.rail(self.net(net_name).rail_name).nominal_v

    def live_voltage(self, net_name: str) -> float:
        """Present voltage of a net as driven by the PMIC alone."""
        return self.pmic.rail_voltage(self.net(net_name).rail_name)
