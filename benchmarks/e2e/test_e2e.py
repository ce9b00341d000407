"""Tests of the end-to-end benchmark: tracer, digests, runner and compare.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import copy
import json
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

import child
import compare
import workloads
from layer_trace import LAYERS, Tracer

from repro import devices
from repro.experiments import figure10
from repro.obs.timing import wall_clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


@pytest.fixture(autouse=True)
def _observability():
    """Run as the benchmark does, with observability off.

    Overrides the ``benchmarks/`` conftest fixture that enables it.
    """
    yield


def _callables() -> dict[tuple[str, ...], object]:
    """Every function bound in a ``repro`` module or on one of its classes."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, types.FunctionType):
                found[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for method, function in vars(value).items():
                    if isinstance(function, types.FunctionType):
                        found[(name, attr, method)] = function
    return found


def test_tracer_restores_every_patched_attribute():
    before = _callables()
    builder = devices.raspberry_pi_4
    with Tracer() as tracer:
        assert devices.raspberry_pi_4 is not builder
        patched = {
            key for key, value in _callables().items() if before.get(key) is not value
        }
        figure10.run(3)
    after = _callables()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["circuits.manufacture"].calls > 0
    # Every target of every layer was patched, at least once each.
    assert len(patched) >= sum(len(layer.targets) for layer in LAYERS)


def test_tracer_leaves_figure10_digest_unchanged():
    untraced = workloads.digest(figure10.run(5))
    with Tracer() as tracer:
        traced = workloads.digest(figure10.run(5))
    assert traced == untraced
    metrics = tracer.metrics(1.0)
    assert metrics["exec.unit.calls"] == metrics["exec.planned_units"] > 0


def test_calibration_samples_the_block_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    calibration = child.Calibration(wall_clock)
    with calibration:
        end = wall_clock() + 4 * child.CAL_INTERVAL_S
        while wall_clock() < end:
            pass
    assert len(calibration.points) >= 2
    assert 0.0 < calibration.interrupted_s < 4 * child.CAL_INTERVAL_S
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _child(workload: str, trace_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload,
         str(EXPECTED["seed"]), str(trace_path)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_traced_runs_give_identical_counts(tmp_path):
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    first, second = (
        _child("glitch-campaign", tmp_path / f"trace{i}.json") for i in (1, 2)
    )
    for run in (first, second):
        assert run["digest"] == EXPECTED["digests"]["glitch-campaign"]
        assert run["problems"] == []
    counts = [
        {k: v for k, v in run["layers"].items() if units[k] in ("count", "B")}
        for run in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["devices.boards"] == 124
    assert counts[0]["glitch.attempts"] == 340
    spans = json.loads((tmp_path / "trace1.json").read_text())["spans"]
    assert sum(1 for span in spans if span["name"] == "glitch") == 340
    assert all(span["start"] <= span["end"] for span in spans)


def test_run_prints_every_metric_and_checks_output(tmp_path):
    out = tmp_path / "e2e.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "glitch-campaign",
         "--seed", str(EXPECTED["seed"]), "--seconds", "0", "--trace", "1",
         "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 4
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    record = json.loads(out.read_text())["workloads"]["glitch-campaign"]
    assert record["end_to_end"]["call_s"]["n"] == 3
    # Per-layer self times account for the traced wall time.
    layers = record["per_layer"]
    assert layers["trace.unattributed_s"] <= 0.1 * layers["trace.wall_s"]


def _doc(call: list[float], setup: float = 0.2, failed: int = 0) -> dict:
    def summary(values):
        ordered = sorted(values)
        return {"median": ordered[1], "p25": ordered[0], "p75": ordered[2],
                "n": 3, "samples": values}

    return {
        "workloads": {
            "w": {
                "attempted": 4,
                "failed": failed,
                "end_to_end": {
                    "call_s": summary(call),
                    "setup_s": summary([setup] * 3),
                    "peak_rss_mb": summary([100.0] * 3),
                },
                "per_layer": {"devices.boards": 4, "devices.s": 1.0},
            }
        }
    }


def _verdicts(a: dict, b: dict) -> dict[str, str]:
    return {row[1]: row[-1] for row in compare.compare(a, b, SPEC)}


def test_compare_verdicts():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "call_s")
    base = _doc([10.0, 10.0, 10.0])
    tight = lambda x: _doc([x * 0.999, x, x * 1.001])  # noqa: E731
    assert _verdicts(base, tight(10 * (1 + 2 * bound)))["call_s"] == "worse"
    assert _verdicts(base, tight(10 * (1 + bound / 2)))["call_s"] == "unchanged"
    assert _verdicts(base, tight(10 * (1 - 2 * bound)))["call_s"] == "better"
    wide = _doc([10 * (1 - bound), 10.0, 10 * (1 + bound)])
    assert _verdicts(base, wide)["call_s"] == "unresolved"
    # A wide spread whose every sample beats every baseline sample.
    assert _verdicts(base, _doc([5.0, 7.0, 9.0]))["call_s"] == "better"
    # ... and one whose every sample is worse by more than the bound.
    assert _verdicts(base, _doc([15.0, 20.0, 25.0]))["call_s"] == "worse"
    assert _verdicts(base, _doc([10.0] * 3, setup=0.24))["setup_s"] == "unchanged"
    assert _verdicts(base, _doc([10.0] * 3, setup=0.26))["setup_s"] == "worse"
    verdicts = _verdicts(base, _doc([10.0] * 3, failed=1))
    assert verdicts["failed_frac"] == "worse"
    assert verdicts["devices.boards"] == "unchanged"
    assert verdicts["devices.s"] == "-"
    changed = copy.deepcopy(base)
    changed["workloads"]["w"]["per_layer"]["devices.boards"] = 5
    assert _verdicts(base, changed)["devices.boards"] == "changed"
    assert _verdicts(base, {"workloads": {}})["-"] == "worse"


def test_compare_exit_code(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc([10.0, 10.0, 10.0])))
    b.write_text(json.dumps(_doc([10.0, 10.0, 10.0])))
    assert compare.main([str(a), str(b)]) == 0
    b.write_text(json.dumps(_doc([20.0, 20.0, 20.0])))
    assert compare.main([str(a), str(b)]) == 1
