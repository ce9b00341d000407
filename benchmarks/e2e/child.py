"""One benchmark sample: a fresh interpreter runs one workload once.

    python child.py <workload> <seed> <trace.json | ->

Prints one JSON line: the set-up time (importing ``repro`` and the
experiments), the time of the experiment call, the peak RSS, the result
digest, the shape-check problems and, when a trace path is given, the
per-layer metrics of a traced call (its spans go to that path).
``run.py`` starts it with ``src`` on ``PYTHONPATH``.

Both times are given twice: as the host clock read them
(``host_setup_s``, ``host_wall_s``) and in reference seconds
(``setup_s``, ``call_s``).  A shared host's speed drifts by half and
more within minutes as other tenants load it, and a whole run can fall
in a slow stretch.  So the child also times a fixed numpy calibration
pass, which slows with the host as the simulator does: before and after
the imports, and before, during and after the call.  A reference
second is a host second scaled by ``CAL_REF_S`` over the mean
calibration time of that stretch.
"""

from __future__ import annotations

import importlib.util
import json
import resource
import signal
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[2] / "src"

#: Mean calibration time that makes a reference second a host second.
#: It only scales the reported times; this value makes them read close
#: to the host seconds of a quiet 2.1 GHz Xeon vCPU (Python 3.11).
CAL_REF_S = 0.0021

#: Timed calibration passes per point; the fastest one counts, so a
#: blip shorter than a pass does not move the point.
CAL_PASSES = 3

#: Host seconds between calibration points during an untraced call.
CAL_INTERVAL_S = 0.25

# The pass writes into these buffers, allocated once here, so the memory
# it adds to the child's peak RSS does not depend on when it runs.
_CAL_X = np.linspace(0.0, 4.0, 1 << 19)
_CAL_WORK = np.empty_like(_CAL_X)
_CAL_MASK = np.empty(_CAL_X.size, dtype=bool)


def _calibration_pass() -> int:
    """Fixed random-generation and array work, independent of ``repro``."""
    np.random.default_rng(5).random(out=_CAL_WORK)
    np.multiply(_CAL_WORK, _CAL_X, out=_CAL_WORK)
    np.negative(_CAL_WORK, out=_CAL_WORK)
    np.exp(_CAL_WORK, out=_CAL_WORK)
    np.greater(_CAL_WORK, 0.5, out=_CAL_MASK)
    return int(np.count_nonzero(_CAL_MASK))


class Calibration:
    """Calibration points of one measured stretch.

    As a context manager it also takes a point every ``CAL_INTERVAL_S``
    while its block runs, from a timer signal, and adds the host time
    those points took to ``interrupted_s``.
    """

    def __init__(self, wall_clock) -> None:
        self.clock = wall_clock
        self.points: list[float] = []
        self.interrupted_s = 0.0

    def point(self) -> float:
        """Time ``CAL_PASSES`` passes now; record and return the fastest."""
        times = []
        for _ in range(CAL_PASSES):
            start = self.clock()
            _calibration_pass()
            times.append(self.clock() - start)
        self.points.append(min(times))
        return self.points[-1]

    def _tick(self, *_) -> None:
        start = self.clock()
        self.point()
        self.interrupted_s += self.clock() - start
        # Re-armed only now, so a slow point is never interrupted.
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S)

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _wall_clock():
    """``repro.obs.timing.wall_clock``, loaded without importing ``repro``.

    The set-up time measures the ``repro`` import itself, so the clock
    has to be read before the package is imported.
    """
    spec = importlib.util.spec_from_file_location(
        "e2e_clock", SRC / "repro" / "obs" / "timing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.wall_clock


def _reference_s(host_s: float, points: list[float]) -> float:
    return host_s * CAL_REF_S * len(points) / sum(points)


def main(argv: list[str]) -> int:
    name, seed, trace_path = argv[0], int(argv[1]), argv[2]
    wall_clock = _wall_clock()
    setup_cal = Calibration(wall_clock)
    setup_cal.point()
    start = wall_clock()
    import workloads  # imports repro and every workload's experiment

    host_setup_s = wall_clock() - start
    call_cal = Calibration(wall_clock)
    setup_cal.points.append(call_cal.point())
    workload = workloads.WORKLOADS[name]
    if trace_path == "-":
        start = wall_clock()
        with call_cal:
            result = workload.run(seed)
        host_wall_s = wall_clock() - start - call_cal.interrupted_s
    else:
        # The tracer times every layer, so no point interrupts the call.
        from layer_trace import Tracer

        with Tracer() as tracer:
            start = wall_clock()
            result = workload.run(seed)
            host_wall_s = wall_clock() - start
    call_cal.point()
    sample: dict[str, object] = {
        "setup_s": _reference_s(host_setup_s, setup_cal.points),
        "call_s": _reference_s(host_wall_s, call_cal.points),
        "host_setup_s": host_setup_s,
        "host_wall_s": host_wall_s,
    }
    if trace_path != "-":
        sample["layers"] = tracer.metrics(host_wall_s)
        tracer.write_spans(
            Path(trace_path), workload=name, seed=seed, wall_s=host_wall_s
        )
    # ru_maxrss is in KiB on Linux.
    sample["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) * 1024 / 1e6
    sample["digest"] = workloads.digest(result)
    sample["problems"] = workload.check(result)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
