"""Regenerates paper Figure 10: spatial Hamming profile over the iRAM."""

from repro.experiments import figure10


def test_figure10_hamming_profile(run_once, record_report):
    result = run_once(figure10.run, seed=1010)
    record_report("figure10", figure10.report(result).render())
    # Shape: exactly two clusters (start-of-iRAM scratchpad + tail), the
    # largest spanning the paper's 0x083C-0x18CC region.
    assert len(result.clusters) == 2
    largest = result.largest_cluster
    assert largest.start_addr < 0xF8001000
    assert 0xF8001800 < largest.end_addr < 0xF8002000
    # Everything outside the clusters is error-free.
    import numpy as np

    assert int(np.count_nonzero(result.profile == 0)) > result.profile.size * 0.9
