"""Benchmark-harness plumbing.

Every bench regenerates one table or figure of the paper: it runs the
experiment once under ``pytest-benchmark`` timing (single round —
these are whole-system simulations, not microbenchmarks), asserts the
paper's shape, and emits the rendered rows both to stdout and to
``benchmarks/results/<name>.txt`` so the numbers survive the run.

These benches check the paper's claims; timing claims are made with
the end-to-end benchmark in ``benchmarks/e2e`` (``docs/perf.md``).
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


@pytest.fixture
def run_once(benchmark):
    """Run a whole-experiment callable exactly once under timing."""

    def _run(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return _run
