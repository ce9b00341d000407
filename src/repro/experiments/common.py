"""Shared plumbing for the experiment modules.

Victim-preparation helpers (cache fills, NOP sleds, register fills) and
snapshot utilities used by several tables/figures.  Experiments capture
*pre-attack ground truth* by reading the raw SRAM images right before
the power cut — the experimenter wrote the data, so this mirrors the
paper's "compare to previously-stored binaries" methodology.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from typing import Any, Callable

from ..cpu.assembler import assemble
from ..cpu.core import Core
from ..cpu.programs import nop_fill, vector_fill
from ..exec import runtime as exec_runtime
from ..obs import OBS, RunManifest
from ..soc.board import Board
from ..soc.bootrom import BootMedia
from ..soc.soc import CoreUnit

#: Boot media used by victims and attackers in the experiments.
VICTIM_MEDIA = BootMedia("victim-os", kernel="victim")
ATTACKER_MEDIA = BootMedia("attacker-usb", kernel="extractor")

#: DRAM base address for per-core victim buffers (64 KB apart so cores
#: never alias in DRAM).
VICTIM_BASE = 0x40000
VICTIM_STRIDE = 0x10000

#: DRAM load address for victim program text, per core.
CODE_BASE = 0x8000
CODE_STRIDE = 0x1000


def victim_buffer_base(core_index: int) -> int:
    """Per-core victim data buffer base address."""
    return VICTIM_BASE + core_index * VICTIM_STRIDE


def victim_code_base(core_index: int) -> int:
    """Per-core victim program load address."""
    return CODE_BASE + core_index * CODE_STRIDE


def fill_dcache(board: Board, core_index: int, pattern: int = 0xAA) -> int:
    """Enable and completely fill one core's d-cache with ``pattern``.

    Streams cache-size bytes of the repeated pattern through the cache
    (write + allocate), touching every set of every way.  Returns the
    number of bytes written.
    """
    unit = board.soc.core(core_index)
    cache = unit.l1d
    if not cache.enabled:
        cache.invalidate_all()
        cache.enabled = True
    line = cache.geometry.line_bytes
    payload = bytes([pattern & 0xFF]) * line
    base = victim_buffer_base(core_index)
    total = cache.geometry.size_bytes
    for offset in range(0, total, line):
        cache.write(base + offset, payload)
    return total


def run_nop_fill(board: Board, core_index: int) -> bytes:
    """Run the NOP-sled victim on one core; returns its machine code."""
    unit = board.soc.core(core_index)
    program = assemble(nop_fill(unit.l1i.geometry.size_bytes))
    core = Core(unit, board.soc.memory_map)
    core.load_program(program.machine_code, victim_code_base(core_index))
    core.run(max_steps=len(program.machine_code) // 4 + 16)
    return program.machine_code


def run_vector_fill(board: Board, core_index: int) -> None:
    """Park the §7.2 register patterns on one core."""
    unit = board.soc.core(core_index)
    program = assemble(vector_fill())
    core = Core(unit, board.soc.memory_map)
    core.load_program(program.machine_code, victim_code_base(core_index))
    core.run()


def snapshot_l1d(unit: CoreUnit) -> list[bytes]:
    """Raw data-RAM images of every d-cache way (ground truth capture)."""
    return [
        unit.l1d.raw_way_image(way) for way in range(unit.l1d.geometry.ways)
    ]


def snapshot_l1i(unit: CoreUnit) -> list[bytes]:
    """Raw data-RAM images of every i-cache way."""
    return [
        unit.l1i.raw_way_image(way) for way in range(unit.l1i.geometry.ways)
    ]


# ----------------------------------------------------------------------
# Run manifests for experiments
# ----------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """Reduce a parameter/headline value to JSON-friendly primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_plain(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


def auto_headline(result: Any) -> dict[str, Any]:
    """A generic headline for experiments without a bespoke summariser.

    Lists report their row count; dataclasses and dicts surface their
    scalar fields — enough for trend tooling to chart something useful
    even before a module grows a curated summary.
    """
    if isinstance(result, (list, tuple)):
        return {"rows": len(result)}
    source: dict[str, Any] | None = None
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        source = {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
        }
    elif isinstance(result, dict):
        source = result
    if source is not None:
        return {
            str(k): v
            for k, v in source.items()
            if isinstance(v, (int, float, str, bool))
        }
    return {}


def manifested(
    experiment: str,
    device: str | None = None,
    headline: Callable[[Any], dict[str, Any]] | None = None,
) -> Callable:
    """Decorate an experiment ``run`` to record a run manifest.

    When observability is disabled the wrapper adds a single boolean
    check and nothing else, so undecorated behaviour (and RNG state) is
    preserved byte-for-byte.  When enabled, the run is wrapped in an
    ``experiment.<name>`` span and a :class:`~repro.obs.RunManifest` is
    recorded with the call's bound parameters, wall-clock timing, and a
    headline summary.

    Quarantined work units (a quarantine-enabled
    :class:`~repro.exec.SupervisionPolicy` turned poison units into
    partial results) surface as the manifest's ``partial`` section —
    the runtime incident ledger is cleared at run start so the section
    reflects only this run's incidents.
    """

    def decorate(run_fn: Callable) -> Callable:
        signature = inspect.signature(run_fn)

        @functools.wraps(run_fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not OBS.enabled:
                return run_fn(*args, **kwargs)
            exec_runtime.clear_incidents()
            bound = signature.bind_partial(*args, **kwargs)
            bound.apply_defaults()
            params = {k: _plain(v) for k, v in bound.arguments.items()}
            with OBS.span(f"experiment.{experiment}", device=device) as span:
                result = run_fn(*args, **kwargs)
            summarise = headline or auto_headline
            seed = bound.arguments.get("seed")
            OBS.record_manifest(
                RunManifest(
                    kind="experiment",
                    name=experiment,
                    seed=seed if isinstance(seed, int) else None,
                    device=device,
                    parameters=params,
                    phases=[{"name": "run", "wall_s": span.wall_s}],
                    headline=_plain(summarise(result)),
                    metrics=OBS.metrics.snapshot(),
                    partial=_partial_section(),
                )
            )
            return result

        return wrapper

    return decorate


def _partial_section() -> dict[str, Any] | None:
    """The manifest ``partial`` section from the run's incident ledger.

    Only quarantined units are listed — a journal degradation loses
    durability, not results, and is surfaced through the CLI exit-code
    contract instead (a timing accident must not change the manifest
    fingerprint).  Entries sort by unit index so the section is
    identical whatever dispatch order produced the incidents.
    """
    quarantined = sorted(
        (
            dict(incident.detail)
            for incident in exec_runtime.incidents()
            if incident.kind == "quarantined-unit"
        ),
        key=lambda entry: entry.get("unit", 0),
    )
    if not quarantined:
        return None
    return {"quarantined": quarantined}
