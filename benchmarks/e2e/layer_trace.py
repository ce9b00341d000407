"""Per-layer tracer for the end-to-end benchmark.

:class:`Tracer` wraps the public entry points of each layer of the
stack (one repo module each) from outside the program, while a
workload runs, and restores every original on exit.  Class methods are
patched on their class; a module-level function is patched at every
``repro.*`` module binding that holds it, so ``from ..devices import
raspberry_pi_4`` call sites are traced too.

Each wrapped call adds to its layer's exact call count and work count
(bytes, cells, rounds) and to its wall time.  Self time excludes the
time spent in nested calls of traced layers, so the self times of all
layers plus the untraced remainder (``trace.unattributed_s``) add up to
the traced wall time.  Coarse layers (board builds, boots, power
events, kernel runs, extraction, analysis, exec units, glitch attempts)
also record one span each, held in memory; fine-grained layers (SRAM
and cache access, CPU steps) are only aggregated.

Every clock read goes through :func:`repro.obs.timing.wall_clock`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.timing import wall_clock

#: Counts one call's work from its ``(args, kwargs, result)``.
WorkCount = Callable[[tuple, dict, Any], int]


def _bytes_moved(args: tuple, kwargs: dict, result: Any) -> int:
    """Bytes read (the returned data) or written (the ``data`` argument)."""
    if result is not None:
        return len(result)
    return len(kwargs["data"] if "data" in kwargs else args[2])


def _cells(args: tuple, kwargs: dict, result: Any) -> int:
    """Cells of the array the method ran on."""
    return args[0].n_bits


@dataclass(frozen=True)
class Layer:
    """One traced layer: the callables it wraps and what it counts.

    ``targets`` name ``"module:Class.method"`` or ``"module:function"``.
    The layer reports ``<name>.<calls>`` (calls made), ``<name>.<work
    name>`` (work counted by ``work``), ``<name>.self_s`` (self time)
    and ``<name>.s`` (total time, nested calls of the same layer
    counted once).
    """

    name: str
    targets: tuple[str, ...]
    calls: str = "calls"
    work: tuple[str, WorkCount] | None = None
    span: bool = False


_SRAM = "repro.circuits.sram:SramArray."
_DRAM = "repro.circuits.dram:DramArray."
_CACHE = "repro.soc.cache:SetAssociativeCache."
_BOARD = "repro.soc.board:Board."

LAYERS: tuple[Layer, ...] = (
    Layer(
        "devices",
        tuple(
            f"repro.devices.builders:{builder}"
            for builder in (
                "raspberry_pi_4", "raspberry_pi_3", "imx53_qsb", "glitch_rig"
            )
        ),
        calls="boards",
        span=True,
    ),
    Layer(
        "circuits.manufacture",
        (_SRAM + "__init__", _DRAM + "__init__"),
        calls="arrays",
        work=("cells", _cells),
    ),
    Layer(
        "circuits.sram.access",
        (_SRAM + "read_bytes", _SRAM + "write_bytes"),
        work=("bytes", _bytes_moved),
    ),
    Layer(
        "soc.cache.access",
        (_CACHE + "read", _CACHE + "write"),
        work=("bytes", _bytes_moved),
    ),
    Layer(
        "soc.cache.maint",
        tuple(
            _CACHE + method
            for method in (
                "invalidate_all",
                "clean_invalidate_all",
                "clean_invalidate_line",
                "zero_line",
            )
        ),
    ),
    Layer(
        "circuits.sram.power",
        tuple(
            _SRAM + method
            for method in (
                "power_up", "power_down", "elapse_unpowered", "restore_power"
            )
        ),
        work=("cells", _cells),
    ),
    Layer(
        "circuits.dram.power",
        tuple(
            _DRAM + method
            for method in ("power_down", "elapse_unpowered", "restore_power")
        ),
        work=("cells", _cells),
    ),
    Layer(
        "power",
        (_BOARD + "unplug", _BOARD + "plug_in", _BOARD + "wait"),
        calls="events",
        span=True,
    ),
    Layer("soc.boot", (_BOARD + "boot",), span=True),
    Layer("cpu", ("repro.cpu.core:Core.step",), calls="instructions"),
    Layer(
        "glitch",
        ("repro.glitch.injector:GlitchInjector.run",),
        calls="attempts",
        span=True,
    ),
    Layer(
        "osim",
        ("repro.osim.kernel:SimKernel.run",),
        calls="runs",
        work=("rounds", lambda args, kwargs, rounds: rounds),
        span=True,
    ),
    Layer(
        "core.extract",
        tuple(
            f"repro.core.extraction:{function}"
            for function in (
                "extract_l1_images", "extract_vector_registers", "extract_iram"
            )
        ),
        span=True,
    ),
    Layer(
        "analysis",
        (
            "repro.analysis.patterns:elements_present",
            "repro.analysis.hamming:bit_error_percent",
            "repro.analysis.hamming:fractional_hamming_distance",
        ),
        span=True,
    ),
    Layer(
        "exec",
        ("repro.exec.engine:execute",),
        calls="plans",
        work=("planned_units", lambda args, kwargs, result: len(args[0])),
    ),
    Layer("exec.unit", ("repro.exec.runtime:run_unit",), span=True),
)


class _Stats:
    __slots__ = ("calls", "work", "self_s", "total_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.work = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0


class Tracer:
    """Context manager that traces :data:`LAYERS` while it is open."""

    def __init__(self) -> None:
        self.stats = {layer.name: _Stats() for layer in LAYERS}
        self.spans: list[dict[str, Any]] = []
        self._frames: list[list[float]] = []  # nested time of open calls
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = 0.0

    def __enter__(self) -> "Tracer":
        self._origin = wall_clock()
        try:
            for layer in LAYERS:
                for target in layer.targets:
                    self._patch(layer, target)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def _patch(self, layer: Layer, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            original = owner.__dict__[attr]
            self._replace(owner, attr, original, self._wrap(layer, original))
            return
        original = getattr(owner, attr)
        wrapper = self._wrap(layer, original)
        for name in sorted(sys.modules):
            module = sys.modules[name]
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, binding, original, wrapper)

    def _replace(
        self, owner: object, attr: str, original: object, wrapper: object
    ) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stats = self.stats[layer.name]
        frames = self._frames
        count = layer.work[1] if layer.work else None
        open_span = self._open_span if layer.span else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            frames.append(frame)
            stats.depth += 1
            span = open_span(layer.name) if open_span else None
            start = wall_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = wall_clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                stats.depth -= 1
                if not stats.depth:
                    stats.total_s += elapsed
                if span is not None:
                    self._close_span(span, start, elapsed)
            if count is not None:
                stats.work += count(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def _open_span(self, name: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open_spans[-1] if self._open_spans else None,
        }
        self.spans.append(span)
        self._open_spans.append(span["id"])
        return span

    def _close_span(
        self, span: dict[str, Any], start: float, elapsed: float
    ) -> None:
        self._open_spans.pop()
        span["start"] = start - self._origin
        span["end"] = start + elapsed - self._origin

    def write_spans(self, path: Path, **header: Any) -> None:
        """Write the recorded spans, after ``header`` fields, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}) + "\n")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric of a traced call that took ``wall_s``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            stats = self.stats[layer.name]
            out[f"{layer.name}.{layer.calls}"] = stats.calls
            if layer.work:
                out[f"{layer.name}.{layer.work[0]}"] = stats.work
            out[f"{layer.name}.self_s"] = stats.self_s
            out[f"{layer.name}.s"] = stats.total_s
        out["exec.reattempts"] = (
            out["exec.unit.calls"] - out["exec.planned_units"]
        )
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(
            stats.self_s for stats in self.stats.values()
        )
        return out
