"""What importing ``repro`` loads: only the modules a run touches.

Package exports resolve on first use (:mod:`repro.lazy`) and the
experiment registry is a tuple of names, so importing one experiment
loads only what that experiment's modules import.  Every check runs in
a fresh interpreter, so modules this test process already imported
cannot hide a missing or a cyclic import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import EXPERIMENTS

SRC = Path(__file__).resolve().parents[1] / "src"

#: The ``repro`` modules that importing the end-to-end benchmark's three
#: experiments (table1, table4, glitch_campaign) loads.  A module added
#: here is paid for by every benchmark child before its first call.
BENCHMARK_IMPORTS = (
    "repro",
    "repro.analysis",
    "repro.analysis.hamming",
    "repro.analysis.patterns",
    "repro.circuits",
    "repro.circuits.dram",
    "repro.circuits.engine",
    "repro.circuits.engine.vector",
    "repro.circuits.leakage",
    "repro.circuits.manufacture",
    "repro.circuits.passives",
    "repro.circuits.pdn",
    "repro.circuits.pmic",
    "repro.circuits.sram",
    "repro.circuits.supply",
    "repro.circuits.waveform",
    "repro.core",
    "repro.core.coldboot",
    "repro.core.extraction",
    "repro.core.probe",
    "repro.core.voltboot",
    "repro.cpu",
    "repro.cpu.assembler",
    "repro.cpu.core",
    "repro.cpu.isa",
    "repro.cpu.programs",
    "repro.devices",
    "repro.devices.builders",
    "repro.errors",
    "repro.exec",
    "repro.exec.engine",
    "repro.exec.journal",
    "repro.exec.plan",
    "repro.exec.runtime",
    "repro.experiments",
    "repro.experiments.common",
    "repro.experiments.glitch_campaign",
    "repro.experiments.table1",
    "repro.experiments.table4",
    "repro.glitch",
    "repro.glitch.campaign",
    "repro.glitch.faultmodel",
    "repro.glitch.injector",
    "repro.glitch.waveform",
    "repro.lazy",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.timing",
    "repro.obs.trace",
    "repro.osim",
    "repro.osim.kernel",
    "repro.osim.noise",
    "repro.osim.process",
    "repro.power",
    "repro.power.domain",
    "repro.power.events",
    "repro.power.pmu",
    "repro.rng",
    "repro.soc",
    "repro.soc.board",
    "repro.soc.bootrom",
    "repro.soc.cache",
    "repro.soc.context",
    "repro.soc.cp15",
    "repro.soc.iram",
    "repro.soc.jtag",
    "repro.soc.mbist",
    "repro.soc.memory_map",
    "repro.soc.readnoise",
    "repro.soc.regfile",
    "repro.soc.soc",
    "repro.soc.tlb",
    "repro.soc.videocore",
    "repro.units",
)

#: Ceiling on the source lines of ``BENCHMARK_IMPORTS``, all of which
#: every benchmark child compiles before its first call (12,487 lines in
#: 75 modules before the test-only API and the OS-scheduled glitch
#: victim were deleted).  Growth shows here.
BENCHMARK_IMPORT_LINES = 11_938

#: Loaded only by the paths that use them: the process pool, a traced or
#: manifested run, and the first random draw (inside the timed call).
NOT_IMPORTED = (
    "multiprocessing",
    "socket",
    "numpy.random",
    "repro.exec.supervise",
    "repro.obs.manifest",
)

#: Every package that declares its exports through ``repro.lazy.attach``.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.applications",
    "repro.circuits",
    "repro.core",
    "repro.cpu",
    "repro.crypto",
    "repro.devices",
    "repro.exec",
    "repro.glitch",
    "repro.obs",
    "repro.osim",
    "repro.power",
    "repro.resilience",
    "repro.soc",
)


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter; return its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_benchmark_experiments_load_exactly_the_pinned_modules():
    out = fresh_python(
        "import json, sys\n"
        "import repro.experiments.table1, repro.experiments.table4\n"
        "import repro.experiments.glitch_campaign\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(out)
    assert sorted(m for m in loaded if m.startswith("repro")) == sorted(
        BENCHMARK_IMPORTS
    )
    assert not set(NOT_IMPORTED) & set(loaded)


def test_benchmark_imports_fit_under_the_line_ceiling():
    lines = 0
    for name in BENCHMARK_IMPORTS:
        path = SRC.joinpath(*name.split("."))
        source = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        lines += source.read_text().count("\n")
    assert lines <= BENCHMARK_IMPORT_LINES


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_each_experiment_imports_alone(name):
    module = f"repro.experiments.{name.replace('-', '_')}"
    out = fresh_python(f"import {module} as m\nprint(callable(m.run))\n")
    assert out.split() == ["True"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    out = fresh_python(
        f"import {package} as p\n"
        "names = p.__all__\n"
        "assert len(set(names)) == len(names), names\n"
        "assert set(names) <= set(dir(p))\n"
        "for name in names:\n"
        "    getattr(p, name)\n"
        "print(len(names))\n"
    )
    assert int(out) > 0


def test_quickstart_names_import():
    out = fresh_python(
        "from repro import devices, VoltBootAttack\n"
        "from repro.soc import BootMedia\n"
        "from repro.cpu import Core, assemble, programs\n"
        "print(VoltBootAttack.__module__, callable(devices.raspberry_pi_4))\n"
    )
    assert out.split() == ["repro.core.voltboot", "True"]


def test_an_exported_name_is_stored_after_first_use():
    from repro import soc

    board_class = soc.Board
    assert vars(soc)["Board"] is board_class
    assert "Board" in dir(soc) and "__version__" in dir(repro)


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name
    with pytest.raises(AttributeError):
        repro.exec.supervise_all
    with pytest.raises(ImportError):
        from repro.soc import NoSuchClass  # noqa: F401
