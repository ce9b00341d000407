"""Work-unit enumeration and shard planning.

A :class:`ShardPlan` is the deterministic half of the execution engine:
it enumerates an experiment's independent work units (sweep grid
points, trials, per-device runs) in one **stable order**, and sizes
the contiguous shards the engine dispatches.  Everything that affects
the *result* — which units exist, their arguments, their RNG streams,
and the order results merge back — is fixed at plan-build time in the
parent process, so running the same plan with ``jobs=1`` or ``jobs=N``
produces byte-identical output.

Per-unit RNG streams come from :func:`repro.rng.spawn` drawn in unit
order (:meth:`ShardPlan.with_spawned_streams`), so a trial axis that
consumes a parent generator stays stream-identical however the units
are later sharded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..errors import ExecError
from ..rng import spawn

#: Shards dispatched per worker: small enough to amortise
#: process startup, large enough that a slow unit does not serialise
#: the whole campaign behind it.
CHUNKS_PER_JOB = 4


def shard_unit(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Mark ``fn`` as a shard-unit entry point.

    The marker is declarative: it returns ``fn`` unchanged (no wrapper,
    so pool pickling still sees the original module-level function) and
    only tags it.  :class:`WorkUnit` refuses an unmarked ``fn``, and
    ``repro-lint`` roots its shard-race analysis (RL007) at every
    marked function, so no unit escapes the rule.  Unit functions must
    be pure in their arguments: state in through ``args``/``kwargs``,
    state out through the return value.
    """
    fn.__shard_unit__ = True
    return fn


@dataclass(frozen=True)
class WorkUnit:
    """One independent unit of experiment work.

    ``fn`` must be a module-level (picklable) callable marked
    :func:`shard_unit`; ``index`` is the unit's position in the merge
    order; ``label`` names the unit in shard errors and trace spans.

    Raises
    ------
    ExecError
        If ``fn`` is not marked :func:`shard_unit`.
    """

    index: int
    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self) -> None:
        if not getattr(self.fn, "__shard_unit__", False):
            raise ExecError(
                f"work unit {self.describe()!r}: {self.fn!r} is not "
                "marked @shard_unit"
            )

    def run(self) -> Any:
        """Execute the unit in the current process."""
        return self.fn(*self.args, **self.kwargs)

    def describe(self) -> str:
        """The unit's label, or a positional fallback."""
        return self.label or f"unit[{self.index}]"


class ShardPlan:
    """An ordered enumeration of work units plus their shard layout.

    The plan is immutable once built; the engine cuts it into
    contiguous shards of :meth:`chunk_size` units without reordering
    them, and merges results by unit index, so dispatch
    order (and completion order) cannot leak into the output.
    """

    def __init__(self, units: Sequence[WorkUnit]) -> None:
        for position, unit in enumerate(units):
            if unit.index != position:
                raise ExecError(
                    f"work unit {unit.describe()!r} has index {unit.index}, "
                    f"expected {position}: plans must be densely ordered"
                )
        self._units: tuple[WorkUnit, ...] = tuple(units)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def enumerate(
        cls,
        fn: Callable[..., Any],
        argument_sets: Iterable[tuple[Any, ...]],
        labels: Iterable[str] | None = None,
    ) -> "ShardPlan":
        """Plan one unit per argument tuple, in iteration order."""
        argument_sets = list(argument_sets)
        label_list = (
            list(labels) if labels is not None else [""] * len(argument_sets)
        )
        if len(label_list) != len(argument_sets):
            raise ExecError(
                f"{len(label_list)} labels for {len(argument_sets)} "
                "argument sets"
            )
        return cls(
            [
                WorkUnit(index=i, fn=fn, args=tuple(args), label=label)
                for i, (args, label) in enumerate(
                    zip(argument_sets, label_list)
                )
            ]
        )

    def with_spawned_streams(self, parent: np.random.Generator) -> "ShardPlan":
        """Attach a per-unit child generator, drawn via ``rng.spawn``, as
        the unit's ``rng`` keyword.

        Streams are spawned from ``parent`` in unit-enumeration order —
        *before* any sharding — so the parent's stream position after
        planning, and every child stream, are identical for every
        ``jobs`` setting.  The generators ship to workers inside the
        unit's ``kwargs`` (``numpy`` generators pickle losslessly).
        """
        units = [
            replace(unit, kwargs={**unit.kwargs, "rng": spawn(parent)})
            for unit in self._units
        ]
        return ShardPlan(units)

    # ------------------------------------------------------------------
    # Introspection and sharding
    # ------------------------------------------------------------------

    @property
    def units(self) -> tuple[WorkUnit, ...]:
        """The units in merge order."""
        return self._units

    def __len__(self) -> int:
        return len(self._units)

    def chunk_size(self, jobs: int) -> int:
        """Units per shard for a worker count.

        Chunked dispatch: each worker gets several smaller shards
        (:data:`CHUNKS_PER_JOB`) rather than one big one, so a slow grid
        point only delays its own chunk.
        """
        if jobs < 1:
            raise ExecError(f"jobs must be >= 1, got {jobs}")
        return max(1, -(-len(self._units) // (jobs * CHUNKS_PER_JOB)))
