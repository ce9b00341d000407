"""Golden-manifest equivalence: scalar and vector engines per experiment.

The kernel-level differential tests prove each kernel pair bit-equal in
isolation; these tests prove the property **composes** through whole
paper experiments: the manifest fingerprint — which hashes the seed,
every recorded metric, and every result row, with wall-clock timings
excluded by construction — is byte-identical whichever engine ran the
physics, serially and across a 4-worker shard pool.

The scalar legs select the engine via the ``REPRO_SCALAR_PHYSICS``
environment variable rather than ``forced_engine()`` because worker
processes inherit the environment but not module state.

``table1`` is the heaviest experiment (~300M cell-ops; minutes on the
scalar engine), so its scalar/vector equivalence legs carry the ``slow``
marker and run in the dedicated physics-goldens CI job.  Its vector-only
pin takes seconds and runs in tier-1.
"""

import pytest

from repro import obs
from repro.circuits.engine import SCALAR_ENV
from repro.experiments import (
    accessibility,
    countermeasures,
    figure8,
    figure10,
    microarch_leak,
    policy_ablation,
    retention_sweep,
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


def _fingerprint(experiment, jobs: int) -> str:
    return _run_fingerprint(experiment.run, jobs=jobs)


def _engine_fingerprints(experiment, jobs: int, monkeypatch) -> tuple[str, str]:
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    vector = _fingerprint(experiment, jobs)
    monkeypatch.setenv(SCALAR_ENV, "1")
    scalar = _fingerprint(experiment, jobs)
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    return vector, scalar


@pytest.mark.parametrize("jobs", [1, 4])
class TestGoldenEquivalence:
    def test_retention_sweep_engines_match(self, jobs, monkeypatch):
        vector, scalar = _engine_fingerprints(
            retention_sweep, jobs, monkeypatch
        )
        assert vector == scalar

    def test_figure10_engines_match(self, jobs, monkeypatch):
        vector, scalar = _engine_fingerprints(figure10, jobs, monkeypatch)
        assert vector == scalar

    @pytest.mark.slow
    def test_table1_engines_match(self, jobs, monkeypatch):
        vector, scalar = _engine_fingerprints(table1, jobs, monkeypatch)
        assert vector == scalar


class TestGoldenStability:
    """The vector engine reproduces the pre-engine fingerprints.

    These constants were produced by the pre-refactor scalar-free
    implementation (commit 5fd9081) at seed 1234 — the refactor's
    "results are byte-identical" claim, pinned.  They will only change
    if the physics itself changes, which must be a deliberate,
    documented decision (update docs/physics.md in the same PR).
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

    def test_retention_sweep_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _fingerprint(retention_sweep, 1) == self.RETENTION_SWEEP_FP

    def test_figure10_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _fingerprint(figure10, 1) == self.FIGURE10_FP

    def test_table1_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _fingerprint(table1, 1) == self.TABLE1_FP


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

    def test_table4_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        fingerprint = _run_fingerprint(
            table4.run, array_sizes_kib=(4, 32), trials=1
        )
        assert fingerprint == self.TABLE4_FP

    def test_policy_ablation_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _run_fingerprint(policy_ablation.run) == self.POLICY_ABLATION_FP

    def test_figure8_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _run_fingerprint(figure8.run) == self.FIGURE8_FP

    def test_countermeasures_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _run_fingerprint(countermeasures.run) == self.COUNTERMEASURES_FP

    def test_accessibility_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _run_fingerprint(accessibility.run) == self.ACCESSIBILITY_FP

    def test_microarch_leak_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _run_fingerprint(microarch_leak.run) == self.MICROARCH_LEAK_FP
