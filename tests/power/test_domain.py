"""Power domains: transitions, external holds, load fan-out."""

import numpy as np
import pytest

from repro.circuits.dram import DramArray
from repro.circuits.sram import SramArray
from repro.errors import PowerError
from repro.power.domain import PowerDomain, PowerLoad
from repro.power.events import PowerEventKind, PowerEventLog


def make_domain(n_loads=2, nominal=0.8):
    log = PowerEventLog()
    domain = PowerDomain("VDD_TEST", "NET_TEST", nominal, log)
    loads = [
        SramArray(8 * 256, rng=np.random.default_rng(i), name=f"m{i}")
        for i in range(n_loads)
    ]
    for load in loads:
        domain.attach_load(load)
    return domain, loads


class TestComposition:
    def test_sram_satisfies_protocol(self):
        assert isinstance(SramArray(64), PowerLoad)
        assert isinstance(DramArray(64), PowerLoad)

    def test_double_attach_rejected(self):
        domain, loads = make_domain(1)
        with pytest.raises(PowerError):
            domain.attach_load(loads[0])

    def test_invalid_nominal_rejected(self):
        with pytest.raises(PowerError):
            PowerDomain("X", "N", 0.0)


class TestTransitions:
    def test_apply_power_energises_loads(self):
        domain, loads = make_domain()
        domain.apply_power()
        assert domain.powered
        assert all(load.powered for load in loads)
        assert domain.voltage == pytest.approx(0.8)

    def test_double_apply_rejected(self):
        domain, _ = make_domain()
        domain.apply_power()
        with pytest.raises(PowerError):
            domain.apply_power()

    def test_cut_power_darkens_loads(self):
        domain, loads = make_domain()
        domain.apply_power()
        domain.cut_power()
        assert not domain.powered
        assert all(not load.powered for load in loads)

    def test_cut_unpowered_rejected(self):
        domain, _ = make_domain()
        with pytest.raises(PowerError):
            domain.cut_power()

    def test_apply_returns_retention_per_load(self):
        domain, _ = make_domain()
        assert domain.apply_power() is None
        retained = domain.retained_fractions()
        assert set(retained) == {"m0", "m1"}
        assert all(0.0 <= v <= 1.0 for v in retained.values())

    def test_elapse_requires_dark(self):
        domain, _ = make_domain()
        domain.apply_power()
        with pytest.raises(PowerError):
            domain.elapse_unpowered(1.0, 300.0)


class TestExternalHold:
    def test_hold_preserves_data_through_logexternal(self):
        domain, loads = make_domain()
        domain.apply_power()
        loads[0].fill_bytes(0xAA)
        lost = domain.hold_external(voltage=0.79, surge_minimum_v=0.6)
        assert lost == 0
        assert domain.held_externally
        assert loads[0].read_bytes(0, 8) == b"\xaa" * 8

    def test_deep_surge_loses_cells(self):
        domain, loads = make_domain()
        domain.apply_power()
        loads[0].fill_bytes(0xAA)
        lost = domain.hold_external(voltage=0.79, surge_minimum_v=0.05)
        assert lost > 0

    def test_hold_requires_power(self):
        domain, _ = make_domain()
        with pytest.raises(PowerError):
            domain.hold_external(0.8, 0.6)

    def test_release_hands_back_to_pmic(self):
        domain, loads = make_domain()
        domain.apply_power()
        loads[1].fill_bytes(0x3C)
        domain.hold_external(0.79, 0.6)
        domain.release_external_hold(0.8)
        assert not domain.held_externally
        assert domain.voltage == pytest.approx(0.8)
        assert loads[1].read_bytes(0, 8) == b"\x3c" * 8

    def test_release_without_hold_rejected(self):
        domain, _ = make_domain()
        domain.apply_power()
        with pytest.raises(PowerError):
            domain.release_external_hold(0.8)

    def test_events_recorded(self):
        domain, _ = make_domain()
        domain.apply_power()
        domain.hold_external(0.79, 0.6)
        assert domain.log.last(PowerEventKind.DOMAIN_HELD).subject == "VDD_TEST"
