"""Shared fixtures and helpers for the test suite.

Board builds are expensive (megabytes of per-cell state), so unit tests
prefer small hand-built structures; only the integration tests build the
full paper devices.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import settings

from repro.circuits.sram import SramArray, SramParameters
from repro.soc.cache import CacheGeometry, SetAssociativeCache

#: CI runs ``pytest --hypothesis-profile=ci``: the same examples on
#: every run, no per-example deadline, and a failure prints the blob
#: that replays it locally (``@reproduce_failure``).
settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)


class DictBacking:
    """A trivial byte-addressed backing store for cache unit tests."""

    def __init__(self, size: int = 1 << 20, fill: int = 0x00) -> None:
        self.data = bytearray([fill]) * size
        self.reads = 0
        self.writes = 0

    def read_block(self, addr: int, size: int) -> bytes:
        self.reads += 1
        return bytes(self.data[addr : addr + size])

    def write_block(self, addr: int, data: bytes) -> None:
        self.writes += 1
        self.data[addr : addr + len(data)] = data


@pytest.fixture
def register_experiment(monkeypatch):
    """``register(name, module)``: run ``module`` as CLI experiment ``name``.

    The CLI imports ``repro.experiments.<name with - as _>`` by name, so
    the module is installed under that import path for the test.
    """
    from repro import cli

    def register(name: str, module) -> None:
        monkeypatch.setattr(cli, "EXPERIMENTS", (*cli.EXPERIMENTS, name))
        monkeypatch.setitem(
            sys.modules, f"repro.experiments.{name.replace('-', '_')}", module
        )

    return register


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for unit tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def sram_params() -> SramParameters:
    """Default SRAM process parameters."""
    return SramParameters()


@pytest.fixture
def small_sram(rng, sram_params) -> SramArray:
    """A powered 1 KiB SRAM array."""
    array = SramArray(8 * 1024, sram_params, rng, name="test-sram")
    array.power_up()
    return array


@pytest.fixture
def backing() -> DictBacking:
    """A fresh 1 MiB backing store."""
    return DictBacking()


def make_cache(
    backing,
    size_bytes: int = 4096,
    ways: int = 2,
    line_bytes: int = 64,
    seed: int = 99,
    enabled: bool = True,
    line_interleave: bool = False,
    replacement: str = "lru",
) -> SetAssociativeCache:
    """Build a small powered cache for unit tests."""
    rng = np.random.default_rng(seed)
    cache = SetAssociativeCache(
        "test-cache",
        CacheGeometry(size_bytes=size_bytes, ways=ways, line_bytes=line_bytes),
        backing,
        SramParameters(),
        rng,
        line_interleave=line_interleave,
        replacement=replacement,
    )
    for macro in cache.sram_macros():
        macro.power_up()
    if enabled:
        cache.invalidate_all()
        cache.enabled = True
    return cache


@pytest.fixture
def small_cache(backing) -> SetAssociativeCache:
    """A powered, enabled 4 KiB 2-way cache over a fresh backing store."""
    return make_cache(backing)
