"""Regenerates paper section 7.2: vector-register retention."""

from repro.experiments import registers


def test_registers_vector_file_retention(record_report):
    results = registers.run(seed=72)
    record_report("registers", registers.report(results).render())
    # Shape: every v-register of every core on both devices retained.
    for result in results:
        assert result.fully_retained
        assert result.registers_total == 128
