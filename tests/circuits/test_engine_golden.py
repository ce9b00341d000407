"""Golden manifest fingerprints: whole experiments pinned at seed 1234.

The kernel-level differential tests (``test_engine.py``) prove each
vector kernel bit-equal to the per-cell scalar oracle in isolation;
these pins prove that whole paper experiments still produce the same
results.  A manifest fingerprint hashes the seed, every recorded
metric and every result row, with wall-clock timings excluded by
construction, so a refactor that changes no physics leaves every value
below untouched.  The sharded experiments are pinned at ``--jobs 1``
and ``--jobs 4``: a 4-worker shard pool must give the serial bytes.

A pin moves only when the physics itself changes, which must be a
deliberate, documented decision (update ``docs/physics.md`` in the
same change).
"""

import pytest

from repro import obs
from repro.experiments import (
    accessibility,
    countermeasures,
    dram_coldboot,
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    microarch_leak,
    noisy_rig,
    platforms,
    policy_ablation,
    probe_sweep,
    registers,
    retention_sweep,
    standby_retention,
    table1,
    table4,
)

SEED = 1234


def _run_fingerprint(run, **kwargs) -> str:
    """Manifest fingerprint of ``run(seed=SEED, **kwargs)``."""
    with obs.capture() as o:
        run(seed=SEED, **kwargs)
        manifest = o.last_manifest
        assert manifest is not None
        manifest.validate()
        return manifest.fingerprint()


class TestGoldenStability:
    """The vector engine reproduces the pre-engine fingerprints.

    The retention-sweep, figure10 and table1 constants were produced by
    the implementation that predates the engine package (commit
    5fd9081), so they pin the claim that moving the physics into bulk
    kernels changed no result.
    """

    RETENTION_SWEEP_FP = (
        "ebcd1df2d9e8276a806b5581029497bc2c94070a022b4712f486fbbe72cc99d7"
    )
    FIGURE10_FP = (
        "e51d5f81821dd7186c1348b4d11e5d103c69c210df8ca5714e6bab873d2054db"
    )
    TABLE1_FP = (
        "e0e648cfd3b126582885c3247c34b62014a34841f6a6bc9237c92aef9768639a"
    )

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_retention_sweep_pin(self, jobs):
        fingerprint = _run_fingerprint(retention_sweep.run, jobs=jobs)
        assert fingerprint == self.RETENTION_SWEEP_FP

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_figure10_pin(self, jobs):
        assert _run_fingerprint(figure10.run, jobs=jobs) == self.FIGURE10_FP

    def test_table1_pin(self):
        assert _run_fingerprint(table1.run, jobs=1) == self.TABLE1_FP


class TestEnginePathStability:
    """Pins for the other experiments whose physics runs on the engine.

    DRAM charge decay (dram_coldboot), the SRAM cold-boot and Volt
    Boot dumps (figure3, figure9), the vector register file
    (registers), and debug-read bit flips with majority-vote decoding
    (noisy_rig, the only experiment that drives ``flip_mask`` and
    ``vote_counts`` end to end).  Recorded before the engine switch was
    removed, which left them unchanged.
    """

    DRAM_COLDBOOT_FP = (
        "5a4af186d0429c1e3628eed3c58e93528f0f65fef6227ccf607f2475012672bf"
    )
    FIGURE3_FP = (
        "149bfb34f033a0c6c2b1ce34cf29c37c5e154053b535e0fd27cc11f4b042199d"
    )
    FIGURE9_FP = (
        "b324a73e6d1468c13880ac803a6aff58d63354aa6caa0ab2e3dcc98322e0d149"
    )
    REGISTERS_FP = (
        "e147efa9355547ecfb6b21dc9fa7a9e15c170553e1d9f440d90a736706a85170"
    )
    NOISY_RIG_FP = (
        "577e3210776ccd91ac5dabf46d46047105037b1d5e990309b4ce270fedf01331"
    )

    def test_dram_coldboot_pin(self):
        assert _run_fingerprint(dram_coldboot.run) == self.DRAM_COLDBOOT_FP

    def test_figure3_pin(self):
        assert _run_fingerprint(figure3.run) == self.FIGURE3_FP

    def test_figure9_pin(self):
        assert _run_fingerprint(figure9.run) == self.FIGURE9_FP

    def test_registers_pin(self):
        assert _run_fingerprint(registers.run) == self.REGISTERS_FP

    def test_noisy_rig_pin(self):
        assert _run_fingerprint(noisy_rig.run) == self.NOISY_RIG_FP


class TestCacheExperimentStability:
    """Pins for the experiments that stream through the cache model.

    Table 4 and the replacement-policy ablation exercise SRAM byte
    access, tag lookups (round-robin and random victims included),
    bulk invalidation and the element scan.  These values predate the
    packed SRAM storage and bulk tag operations, which left them
    unchanged; like the pins above, they move only with the physics.

    The other four cover the rest of the cache surface: Figure 8 runs
    the interleaved i-cache through the interpreter; countermeasures
    issue DC ZVA, purges and MBIST writes to the tag RAM; accessibility
    writes the L2 data RAM directly and dumps over CP15; microarch_leak
    reads the TLB and BTB over CP15.  They were recorded before the tag
    mirror and the line-batched Table 4 victim, which left them
    unchanged.
    """

    TABLE4_FP = (
        "627ba813b96652852aa16c56a79aca89b138e60603836b97b57121047b3caebd"
    )
    POLICY_ABLATION_FP = (
        "11cb7353353f2399b3b509cac68a23f1fc2429945f28b9615120366879d48cb0"
    )
    FIGURE8_FP = (
        "0ee1aeacf97de0bcc19102e6508ab351e2da233c068df6450cfd8ec548adc671"
    )
    COUNTERMEASURES_FP = (
        "a520185602d0c0e13838f462530ec0a87c10bd60204df3ded9b219340fe8a44c"
    )
    ACCESSIBILITY_FP = (
        "4ac28abc3b71401c04b23d79be1d86befffd48ba6cff982c8eed289bc5997f0a"
    )
    MICROARCH_LEAK_FP = (
        "772223412d60e9152057105d806460a824072d08f33ac0b88f7fa996fa1189be"
    )

    def test_table4_pin(self):
        fingerprint = _run_fingerprint(
            table4.run, array_sizes_kib=(4, 32), trials=1
        )
        assert fingerprint == self.TABLE4_FP

    def test_policy_ablation_pin(self):
        assert _run_fingerprint(policy_ablation.run) == self.POLICY_ABLATION_FP

    def test_figure8_pin(self):
        assert _run_fingerprint(figure8.run) == self.FIGURE8_FP

    def test_countermeasures_pin(self):
        assert _run_fingerprint(countermeasures.run) == self.COUNTERMEASURES_FP

    def test_accessibility_pin(self):
        assert _run_fingerprint(accessibility.run) == self.ACCESSIBILITY_FP

    def test_microarch_leak_pin(self):
        assert _run_fingerprint(microarch_leak.run) == self.MICROARCH_LEAK_FP


class TestRemainingExperimentStability:
    """Pins for the last four ``list-experiments`` names.

    ``probe-sweep`` is sharded, so like the sweeps above it is pinned
    at ``--jobs 1`` and ``--jobs 4``.  Figure 7's power-domain
    traces, the platform survey and the standby-retention sweep run
    serially.  Together with the classes above and the glitch-campaign
    pin in ``tests/exec/test_jobs_equivalence.py``, every experiment the
    CLI lists now has a committed fingerprint.
    """

    FIGURE7_FP = (
        "23a6b79c2fe3bc5892bc0346bd419129ffeca5961dfb849746d32c50fde6bd38"
    )
    PLATFORMS_FP = (
        "90892a518adce52e0cebb760f351f4834ee8435aa67dbea0c9f6c512aa404251"
    )
    PROBE_SWEEP_FP = (
        "f17738bc6b3802566bc88feb1c57114c899217eb05f73e0590ca0012997b04ae"
    )
    STANDBY_RETENTION_FP = (
        "be94d2477ae846967ec53bc144065dc94b7a2fbbbb523f18bb366025da55cfcd"
    )

    def test_figure7_pin(self):
        assert _run_fingerprint(figure7.run) == self.FIGURE7_FP

    def test_platforms_pin(self):
        assert _run_fingerprint(platforms.run) == self.PLATFORMS_FP

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_probe_sweep_pin(self, jobs):
        fingerprint = _run_fingerprint(probe_sweep.run, jobs=jobs)
        assert fingerprint == self.PROBE_SWEEP_FP

    def test_standby_retention_pin(self):
        fingerprint = _run_fingerprint(standby_retention.run)
        assert fingerprint == self.STANDBY_RETENTION_FP
