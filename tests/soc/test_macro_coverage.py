"""Every SRAM macro a built SoC holds is powered and MBIST-covered.

The macros are enumerated from the SoC's structure — per core the L1
data and tag RAMs, both register files, the TLB and the BTB; then the
L2 and the iRAM where fitted — not from the domain wiring under test.
"""

import pytest

from repro.circuits.sram import SramArray
from repro.devices import build_device


def _soc_macros(soc):
    macros = []
    for core in soc.cores:
        for cache in (core.l1d, core.l1i):
            macros.extend((*cache.data_rams, cache.tags.sram))
        for part in (core.gpr, core.vreg, core.tlb, core.btb):
            macros.append(part.sram)
    if soc.l2 is not None:
        macros.extend((*soc.l2.data_rams, soc.l2.tags.sram))
    if soc.iram is not None:
        macros.append(soc.iram.sram)
    return macros


@pytest.fixture(
    scope="module", params=["rpi4", "rpi3", "imx53", "glitch-rig"]
)
def soc(request):
    return build_device(request.param, seed=3).soc


def test_each_macro_sits_in_exactly_one_domain(soc):
    domains = soc.pmu.domains()
    for macro in _soc_macros(soc):
        homes = [
            domain.name for domain in domains
            if any(load is macro for load in domain.loads)
        ]
        assert len(homes) == 1, f"{macro.name} in {homes}"


def test_domains_hold_no_other_sram(soc):
    wired = [
        load for domain in soc.pmu.domains() for load in domain.loads
        if isinstance(load, SramArray)
    ]
    assert sorted(m.name for m in wired) == sorted(
        m.name for m in _soc_macros(soc)
    )


@pytest.mark.parametrize("device", ["rpi4", "rpi3", "imx53", "glitch-rig"])
def test_mbist_covers_every_macro(device):
    board = build_device(device, seed=3)
    board.soc.mbist.enabled = True
    macros = _soc_macros(board.soc)
    for macro in macros:
        macro.fill_bytes(0xFF)
    board.soc.mbist.run_boot_reset()
    for macro in macros:
        assert macro.read_bytes() == bytes(macro.n_bytes), macro.name
