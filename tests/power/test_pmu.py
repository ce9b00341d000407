"""PMU registration and startup sequencing."""

import numpy as np
import pytest

from repro.circuits.sram import SramArray
from repro.errors import PowerError
from repro.power.domain import PowerDomain
from repro.power.events import PowerEventLog
from repro.power.pmu import PowerManagementUnit


def make_pmu():
    log = PowerEventLog()
    pmu = PowerManagementUnit(log)
    loads = {}
    for index, name in enumerate(("VDD_CORE", "VDD_MEM")):
        domain = PowerDomain(name, name, 0.8 + 0.2 * index, log)
        load = SramArray(8 * 256, rng=np.random.default_rng(index), name=f"m{index}")
        domain.attach_load(load)
        pmu.add_domain(domain)
        loads[name] = load
    return pmu, loads


class TestRegistration:
    def test_duplicate_domain_rejected(self):
        pmu, _ = make_pmu()
        with pytest.raises(PowerError):
            pmu.add_domain(PowerDomain("VDD_CORE", "X", 1.0, pmu.log))

    def test_unknown_domain_rejected(self):
        pmu, _ = make_pmu()
        with pytest.raises(PowerError):
            pmu.domain("VDD_GPU")

    def test_domains_in_sequence_order(self):
        pmu, _ = make_pmu()
        assert [d.name for d in pmu.domains()] == ["VDD_CORE", "VDD_MEM"]


class TestSequencing:
    def test_power_up_brings_all_domains(self):
        pmu, _ = make_pmu()
        came_up = pmu.power_up_sequence({"VDD_CORE": 0.8, "VDD_MEM": 1.0})
        assert came_up == pmu.domains()
        assert all(d.powered for d in pmu.domains())

    def test_held_domain_survives_power_up(self):
        pmu, loads = make_pmu()
        pmu.power_up_sequence({})
        loads["VDD_CORE"].fill_bytes(0xAA)
        pmu.domain("VDD_CORE").hold_external(0.8, 0.6)
        pmu.domain("VDD_MEM").cut_power()
        came_up = pmu.power_up_sequence({"VDD_CORE": 0.8, "VDD_MEM": 1.0})
        # Only the dark domain re-powered; the held one kept its data.
        assert came_up == [pmu.domain("VDD_MEM")]
        assert loads["VDD_CORE"].read_bytes(0, 4) == b"\xaa" * 4
        assert not pmu.domain("VDD_CORE").held_externally
