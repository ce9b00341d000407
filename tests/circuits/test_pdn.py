"""Power delivery network graph: nets, pads, domain lookup."""

import pytest

from repro.circuits.pdn import NetKind, PowerDeliveryNetwork
from repro.circuits.pmic import BuckConverter, Pmic
from repro.errors import PowerError


def make_pdn():
    pmic = Pmic()
    pmic.add_rail(BuckConverter("VDD_CORE", 0.8))
    pmic.add_rail(BuckConverter("VDD_SOC", 1.1))
    pdn = PowerDeliveryNetwork(pmic)
    pdn.add_net("VDD_CORE", NetKind.CORE, "VDD_CORE")
    pdn.add_net("VDD_SOC", NetKind.MEMORY, "VDD_SOC")
    pdn.attach_domain("VDD_CORE", "core-domain")
    pdn.add_test_pad("TP15", "VDD_CORE", "near the PMIC")
    return pdn


class TestConstruction:
    def test_duplicate_net_rejected(self):
        pdn = make_pdn()
        with pytest.raises(PowerError):
            pdn.add_net("VDD_CORE", NetKind.CORE, "VDD_CORE")

    def test_net_requires_existing_rail(self):
        pdn = make_pdn()
        with pytest.raises(PowerError):
            pdn.add_net("VDD_GPU", NetKind.CORE, "NO_SUCH_RAIL")

    def test_duplicate_pad_rejected(self):
        pdn = make_pdn()
        with pytest.raises(PowerError):
            pdn.add_test_pad("TP15", "VDD_SOC")

    def test_duplicate_domain_attachment_rejected(self):
        pdn = make_pdn()
        with pytest.raises(PowerError):
            pdn.attach_domain("VDD_CORE", "core-domain")


class TestQueries:
    def test_net_for_domain(self):
        pdn = make_pdn()
        assert pdn.net_for_domain("core-domain").name == "VDD_CORE"

    def test_unknown_domain_rejected(self):
        with pytest.raises(PowerError):
            make_pdn().net_for_domain("gpu-domain")

    def test_pads_for_domain(self):
        pads = make_pdn().net_for_domain("core-domain").pads
        assert [pad.name for pad in pads] == ["TP15"]

    def test_unknown_pad_rejected(self):
        with pytest.raises(PowerError):
            make_pdn().pad("TP99")

    def test_nominal_voltage(self):
        assert make_pdn().nominal_voltage("VDD_CORE") == pytest.approx(0.8)

    def test_live_voltage_follows_pmic_input(self):
        pdn = make_pdn()
        assert pdn.live_voltage("VDD_CORE") == 0.0
        pdn.pmic.connect_input()
        assert pdn.live_voltage("VDD_CORE") == pytest.approx(0.8)
