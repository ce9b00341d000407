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


def test_mbist_covers_every_macro(soc):
    covered = soc.mbist.covered_arrays
    for macro in _soc_macros(soc):
        assert any(array is macro for array in covered), macro.name
