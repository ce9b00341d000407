#!/usr/bin/env python3
"""Bound the cost of supervised dispatch against the bare exec engine.

Times one 64-unit plan of trivial work units through ``execute()``
twice per pair: bare, and with an empty chaos injector held on the
runtime hook, so every unit pays the ``runtime.run_unit`` choke point
plus a fault-table scan that matches nothing.  Pairs alternate which
leg runs first, and the gate is the median of the per-pair
supervised/bare ratios, so one noisy pair cannot fail it.

Usage::

    PYTHONPATH=src python tools/supervision_overhead.py

Exits 1 when the median ratio exceeds :data:`BOUND`.
"""

from __future__ import annotations

import statistics
import sys

from repro.chaos.inject import ChaosInjector
from repro.exec import ShardPlan, WorkUnit, execute, runtime, shard_unit
from repro.obs.timing import wall_clock

UNITS = 64
PAIRS = 31
BOUND = 1.05


@shard_unit
def _spin(token: int) -> int:
    """Module-level work unit (pool pickling requires it)."""
    total = 0
    for i in range(2000):
        total = (total + (token + i) * (token ^ i)) & 0xFFFFFFFF
    return total


def _plan() -> ShardPlan:
    return ShardPlan(
        [WorkUnit(index=i, fn=_spin, args=(i,), label=f"spin[{i}]")
         for i in range(UNITS)]
    )


def _bare() -> float:
    start = wall_clock()
    execute(_plan(), jobs=1)
    return wall_clock() - start


def _supervised() -> float:
    with runtime.injected(ChaosInjector((), state_dir="")):
        return _bare()


def main() -> int:
    _bare()  # warm imports and caches outside the timing
    _supervised()
    ratios = []
    for pair in range(PAIRS):
        if pair % 2:
            supervised, bare = _supervised(), _bare()
        else:
            bare, supervised = _bare(), _supervised()
        ratios.append(supervised / bare)
    median = statistics.median(ratios)
    p25, _, p75 = statistics.quantiles(ratios, n=4)
    print(
        f"supervised/bare over {PAIRS} pairs: median {median:.3f} "
        f"(p25-p75 {p25:.3f}-{p75:.3f}, bound {BOUND})"
    )
    return 0 if median <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
