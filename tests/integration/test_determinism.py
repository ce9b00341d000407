"""Determinism regression: observability must never perturb the physics.

Two guarantees are locked in here:

* the same seed produces byte-identical extraction images run-to-run,
  and the recorded run manifests fingerprint identically (wall-clock
  timings are excluded from the fingerprint by construction);
* enabling observability — spans, metrics, a streamed trace — changes
  nothing about what the attack extracts.
"""

import pytest

from repro import VoltBootAttack, obs
from repro.devices import raspberry_pi_4
from repro.soc.bootrom import BootMedia

VICTIM = BootMedia("victim-os")
ATTACKER = BootMedia("attacker-usb")
SEED = 0xD0_0D


def _run_attack(seed: int):
    """One full rpi4 cache attack; returns the extraction images."""
    board = raspberry_pi_4(seed=seed)
    board.boot(VICTIM)
    unit = board.soc.core(0)
    unit.l1d.invalidate_all()
    unit.l1d.enabled = True
    unit.l1d.write(0x40000, b"\x5a" * 64)
    attack = VoltBootAttack(board, target="l1-caches", boot_media=ATTACKER,
                            icache=True)
    return attack.execute().cache_images


def _image_bytes(images) -> list[bytes]:
    """Flatten the cache images into a canonical list of way images."""
    out: list[bytes] = []
    for core in sorted(images.l1d):
        out.extend(images.l1d[core])
    for core in sorted(images.l1i):
        out.extend(images.l1i[core])
    return out


class TestRepeatRuns:
    def test_same_seed_gives_byte_identical_images(self):
        first = _image_bytes(_run_attack(SEED))
        second = _image_bytes(_run_attack(SEED))
        assert first == second

    def test_different_seed_changes_images(self):
        # Sanity check that the comparison above has teeth: power-up
        # fingerprints are seed-dependent, so images must differ.
        first = _image_bytes(_run_attack(SEED))
        other = _image_bytes(_run_attack(SEED + 1))
        assert first != other

    def test_same_seed_gives_identical_manifests(self):
        fingerprints = []
        for _ in range(2):
            with obs.capture() as o:
                _run_attack(SEED)
                manifest = o.last_manifest
                assert manifest is not None
                manifest.validate()
                fingerprints.append(manifest.fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_manifest_reports_the_user_seed(self):
        with obs.capture() as o:
            _run_attack(SEED)
            assert o.last_manifest.seed == SEED


class TestObservabilityIsInert:
    def test_enabled_observability_does_not_change_extraction(self, tmp_path):
        plain = _image_bytes(_run_attack(SEED))
        trace_path = tmp_path / "trace.jsonl"
        with obs.capture(trace_path=str(trace_path)):
            observed = _image_bytes(_run_attack(SEED))
        assert plain == observed
        # The trace really was collected — one span per §6.1 step.
        records = obs.read_jsonl(trace_path)
        span_names = {r["name"] for r in records if r.get("type") == "span"}
        for step in ("identify", "attach", "power-cycle", "reboot", "extract"):
            assert f"attack.{step}" in span_names

    @pytest.mark.parametrize("order", ["plain-first", "observed-first"])
    def test_order_of_runs_is_irrelevant(self, order):
        if order == "plain-first":
            a = _image_bytes(_run_attack(SEED))
            with obs.capture():
                b = _image_bytes(_run_attack(SEED))
        else:
            with obs.capture():
                a = _image_bytes(_run_attack(SEED))
            b = _image_bytes(_run_attack(SEED))
        assert a == b
