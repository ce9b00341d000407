"""Compare two ``run.py --out`` result files, metric by metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the baseline and B the change.  Every (metric, workload) pair
gets one verdict:

* end-to-end metrics (bounds from ``BENCHMARK.json``): ``worse`` when
  B's median is worse than A's by more than the bound, ``better`` when
  it is better by as much, else ``unchanged``; but when B's p25-p75
  spread is wider than the bound, ``worse`` only if every B sample is
  worse than every A sample by more than that, ``better`` if every B
  sample beats every A sample, else ``unresolved``;
* ``failed_frac`` (failed runs over attempted runs): ``worse`` on any
  increase;
* per-layer counts: diffed exactly, ``unchanged`` or ``changed``;
* per-layer times have no bound and are listed with ``-``.

The exit code is 1 if any verdict is ``worse`` (a workload missing
from B counts as worse), else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer units that are exact counts rather than times.
COUNT_UNITS = ("count", "B")


def bounded_verdict(
    a: dict[str, Any], b: dict[str, Any], metric: dict[str, Any]
) -> str:
    """Verdict for one end-to-end metric's summaries in A and B."""
    sign = 1 if metric["better"] == "lower" else -1
    allowed = metric["bound"] * abs(a["median"])
    if b["p75"] - b["p25"] > metric["bound"] * abs(b["median"]):
        # Too noisy for medians: only a complete separation decides.
        worsenings = [
            sign * (new - old) for new in b["samples"] for old in a["samples"]
        ]
        if min(worsenings) > allowed:
            return "worse"
        if max(worsenings) < 0:
            return "better"
        return "unresolved"
    worsening = sign * (b["median"] - a["median"])
    if worsening > allowed:
        return "worse"
    if worsening < -allowed:
        return "better"
    return "unchanged"


def compare(
    a_doc: dict[str, Any], b_doc: dict[str, Any], spec: dict[str, Any]
) -> list[tuple[str, str, str, Any, Any, str]]:
    """Rows of (workload, metric, unit, A value, B value, verdict)."""
    rows = []
    for workload, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(workload)
        if b is None:
            rows.append((workload, "-", "-", "-", "missing", "worse"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                rows.append((workload, name, metric["unit"], "-", "-", "worse"))
                continue
            rows.append(
                (
                    workload,
                    name,
                    metric["unit"],
                    a["end_to_end"][name]["median"],
                    b["end_to_end"][name]["median"],
                    bounded_verdict(
                        a["end_to_end"][name], b["end_to_end"][name], metric
                    ),
                )
            )
        a_frac = a["failed"] / a["attempted"]
        b_frac = b["failed"] / b["attempted"]
        rows.append(
            (
                workload,
                "failed_frac",
                "ratio",
                a_frac,
                b_frac,
                "worse" if b_frac > a_frac
                else "better" if b_frac < a_frac
                else "unchanged",
            )
        )
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name not in a["per_layer"] or name not in b["per_layer"]:
                continue
            old, new = a["per_layer"][name], b["per_layer"][name]
            if metric["unit"] in COUNT_UNITS:
                verdict = "unchanged" if old == new else "changed"
            else:
                verdict = "-"
            rows.append((workload, name, metric["unit"], old, new, verdict))
    return rows


def _cell(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(a_doc, b_doc, spec)
    for workload, metric, unit, old, new, verdict in rows:
        print(
            f"{workload:<16} {metric:<32} {unit:<6} {_cell(old):>12} "
            f"{_cell(new):>12}  {verdict}"
        )
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
