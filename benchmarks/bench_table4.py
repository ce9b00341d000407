"""Regenerates paper Table 4: Volt Boot vs a Linux victim, size sweep."""

from repro.experiments import table4


def test_table4_array_size_sweep(record_report):
    cells = table4.run(
        seed=44,
        array_sizes_kib=table4.TABLE4_ARRAY_KIB,
        trials=table4.TRIALS,
    )
    record_report("table4", table4.report(cells).render())
    by_size = {}
    for cell in cells:
        by_size.setdefault(cell.array_kib, []).append(cell.percent_extracted)
    # Shape: ~100% while the array fits comfortably, ~86-95% at full size.
    for size in (4, 8, 16):
        assert min(by_size[size]) > 98.0
    assert 80.0 < min(by_size[32]) < 97.0
    assert max(by_size[32]) < 98.0
    # Duplication across ways: per-way sums exceed the union somewhere.
    duplicated = any(
        sum(cell.way_counts) > cell.union_count + 1 for cell in cells
    )
    assert duplicated
