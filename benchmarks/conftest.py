"""Benchmark-harness plumbing.

Every bench regenerates one table or figure of the paper: it calls the
experiment once at its paper seed, asserts the paper's shape, and
emits the rendered rows both to stdout and to
``benchmarks/results/<name>.txt`` so the numbers survive the run.

These benches check the paper's claims and time nothing; timing claims
are made with the end-to-end benchmark in ``benchmarks/e2e``
(``docs/perf.md``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_report():
    """Persist and display a rendered experiment report."""

    def _record(name: str, rendered: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")
        print()
        print(rendered)

    return _record
