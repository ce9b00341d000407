"""End-to-end benchmark runner: repeated whole-experiment runs per workload.

    python3 benchmarks/e2e/run.py --workload NAME|all --seed N \
        --seconds S --trace 0|1 [--out FILE]

For each workload, fresh child processes (``child.py``) run the
experiment call one at a time, each with ``jobs=1`` and observability
off, while the next child should end within ``--seconds`` and until at
least three have run; the
end-to-end metrics are the medians over those children, with times in
the reference seconds ``child.py`` defines (the host-clock times are
reported beside them, unbounded).  With
``--trace 1`` one more child then runs the call under the per-layer
tracer (``layer_trace.py``).  Every child's output is checked: its shape
checks must pass and its result digest must equal ``expected.json`` at
the pinned seed, and the other children's digests at any other seed.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json``, or its ``per_layer`` metrics with ``--trace 1``).
``--out`` also writes every sample, quartile and per-layer value to a
file that ``compare.py`` reads.  The exit code is 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fewest untraced children per workload, however short ``--seconds`` is.
MIN_CHILDREN = 3

#: A child that takes longer than this has hung.
CHILD_TIMEOUT_S = 120

#: The children's times as the host clock read them, before they are
#: turned into reference seconds (see ``child.py``); reported for
#: information, with no bound.
HOST_METRICS = ("host_wall_s", "host_setup_s")


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles (as ``statistics.quantiles`` gives them) and n."""
    if len(values) > 1:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {
        "median": statistics.median(values),
        "p25": p25,
        "p75": p75,
        "n": len(values),
        "samples": values,
    }


def run_child(
    name: str, seed: int, trace_path: Path | None
) -> tuple[dict[str, Any] | None, str | None]:
    """Run one child to completion; returns its sample or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # Keep each child on one core: numpy's thread pools stay single.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        name,
        str(seed),
        str(trace_path) if trace_path else "-",
    ]
    try:
        proc = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {proc.stderr.strip()}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: str | None,
    metrics: list[str],
    wall_clock: Callable[[], float],
) -> dict[str, Any]:
    """Run one workload's children and check every output."""
    runs: list[tuple[str, dict[str, Any] | None, str | None]] = []
    start = wall_clock()
    child_s = 0.0
    # Another child starts only if, as long as the last one, it ends in time.
    while len(runs) < MIN_CHILDREN or wall_clock() - start + child_s <= seconds:
        began = wall_clock()
        sample, error = run_child(name, seed, None)
        child_s = wall_clock() - began
        runs.append((f"run {len(runs)}", sample, error))
        if error:
            break
    if trace and all(error is None for _, _, error in runs):
        sample, error = run_child(
            name, seed, HERE / "out" / f"trace-{name}.json"
        )
        runs.append(("traced run", sample, error))

    reference = expected or next(
        (sample["digest"] for _, sample, _ in runs if sample), None
    )
    errors: list[str] = []
    good: list[dict[str, Any]] = []
    traced = None
    for label, sample, error in runs:
        problems = [error] if sample is None else list(sample["problems"])
        if sample is not None and sample["digest"] != reference:
            problems.append(f"digest {sample['digest']} != {reference}")
        if problems:
            errors.append(f"{label}: " + "; ".join(problems))
        elif "layers" in sample:
            traced = sample
        else:
            good.append(sample)

    record: dict[str, Any] = {
        "attempted": len(runs),
        "failed": len(errors),
        "errors": errors,
        "digest": reference,
        "end_to_end": {},
        "host": {},
        "per_layer": {},
    }
    if good:
        record["end_to_end"] = {
            metric: summarize([sample[metric] for sample in good])
            for metric in metrics
        }
        record["host"] = {
            metric: summarize([sample[metric] for sample in good])
            for metric in HOST_METRICS
        }
        if traced is not None:
            # Host times: the traced call takes no calibration points.
            record["per_layer"] = {
                **traced["layers"],
                "trace.overhead": traced["host_wall_s"]
                / record["host"]["host_wall_s"]["median"],
            }
    return record


def report(
    name: str, record: dict[str, Any], spec: dict[str, Any], trace: bool
) -> None:
    """Print every metric by name and unit, then the result JSON line."""
    print(
        f"{name}: {record['attempted']} runs, {record['failed']} failed, "
        f"digest {record['digest']}"
    )
    for error in record["errors"]:
        print(f"  FAILED {error}", file=sys.stderr)
    metrics = {}
    shown = [
        *((metric, record["end_to_end"]) for metric in spec["end_to_end"]),
        *(({"name": name, "unit": "s"}, record["host"]) for name in HOST_METRICS),
    ]
    for metric, summaries in shown:
        summary = summaries.get(metric["name"])
        if summary is None:
            continue
        print(
            f"  {metric['name']:<34} {summary['median']:>14.6g} "
            f"{metric['unit']:<6} p25 {summary['p25']:.6g}  "
            f"p75 {summary['p75']:.6g}  n={summary['n']}"
        )
        if summaries is record["end_to_end"] and not trace:
            metrics[metric["name"]] = {
                "value": summary["median"],
                "unit": metric["unit"],
            }
    for metric in spec["per_layer"] if record["per_layer"] else ():
        value = record["per_layer"][metric["name"]]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {metric['name']:<34} {shown:>14} {metric['unit']}")
        if trace:
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="untraced measuring time per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, help="full results file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"run.py: no src/repro under {ROOT}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.timing import wall_clock

    expected = json.loads((HERE / "expected.json").read_text())
    digests = expected["digests"] if args.seed == expected["seed"] else {}
    doc: dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    for name in names if args.workload == "all" else [args.workload]:
        record = measure(
            name,
            args.seed,
            args.seconds,
            bool(args.trace),
            digests.get(name),
            [metric["name"] for metric in spec["end_to_end"]],
            wall_clock,
        )
        doc["workloads"][name] = record
        report(name, record, spec, bool(args.trace))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    failed = any(record["failed"] for record in doc["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
