"""Schema-versioned export round-trips (JSON and JSONL)."""

import json

import pytest

from repro.obs.export import (
    MANIFEST_KINDS,
    SCHEMA_VERSION,
    JsonlWriter,
    SchemaError,
    dumps,
    read_jsonl,
    stamp,
    validate_manifest,
)
from repro.obs.manifest import RunManifest, manifest_fingerprint


def _manifest(**overrides) -> RunManifest:
    fields = dict(
        kind="attack",
        name="voltboot",
        seed=2022,
        device="rpi4",
        parameters={"target": "l1-caches", "off_time_s": 10.0},
        phases=[{"name": "identify", "wall_s": 0.01}],
        headline={"surge_clean": True},
        metrics={"power.events{kind=boot}": 2},
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestSchemaVersion:
    def test_every_dumps_document_is_stamped(self):
        doc = json.loads(dumps({"command": "attack"}))
        assert doc["schema_version"] == SCHEMA_VERSION

    def test_stamp_preserves_existing_version(self):
        assert stamp({"schema_version": 99})["schema_version"] == 99

    def test_manifest_carries_schema_version(self):
        assert _manifest().to_dict()["schema_version"] == SCHEMA_VERSION


class TestJsonRoundTrip:
    def test_manifest_survives_write_and_reload_field_by_field(self):
        manifest = _manifest()
        loaded = json.loads(dumps(manifest.to_dict()))
        original = manifest.to_dict()
        assert set(loaded) == set(original)
        for field in original:
            assert loaded[field] == original[field], field
        validate_manifest(loaded)

    def test_bytes_values_serialise_as_hex(self):
        doc = json.loads(dumps({"image": b"\xaa\xbb"}))
        assert doc["image"] == "aabb"

    def test_reloaded_manifest_fingerprint_matches(self):
        manifest = _manifest()
        loaded = json.loads(dumps(manifest.to_dict()))
        rebuilt = RunManifest(
            kind=loaded["kind"],
            name=loaded["name"],
            seed=loaded["seed"],
            device=loaded["device"],
            parameters=loaded["parameters"],
            phases=loaded["phases"],
            headline=loaded["headline"],
            metrics=loaded["metrics"],
            schema_version=loaded["schema_version"],
        )
        assert rebuilt.fingerprint() == manifest.fingerprint()


class TestJsonlRoundTrip:
    def test_header_record_comes_first_and_is_versioned(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlWriter(path)
        writer.write({"type": "span", "name": "attack.extract"})
        writer.close()
        records = read_jsonl(path)
        assert records[0]["type"] == "header"
        assert records[0]["producer"] == "repro.obs"
        assert all(r["schema_version"] == SCHEMA_VERSION for r in records)
        assert records[1]["name"] == "attack.extract"

    def test_write_after_close_is_a_noop(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = JsonlWriter(path)
        writer.close()
        writer.write({"type": "span"})
        assert len(read_jsonl(path)) == 1


class TestValidateManifest:
    def test_valid_manifest_passes(self):
        _manifest().validate()

    def test_all_kinds_accepted(self):
        for kind in MANIFEST_KINDS:
            _manifest(kind=kind).validate()

    def test_missing_field_named_in_error(self):
        doc = _manifest().to_dict()
        del doc["headline"]
        with pytest.raises(SchemaError, match="headline"):
            validate_manifest(doc)

    def test_bad_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            _manifest(kind="rumour").validate()

    def test_wrong_schema_version_rejected(self):
        doc = _manifest().to_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            validate_manifest(doc)

    def test_malformed_phase_rejected(self):
        doc = _manifest().to_dict()
        doc["phases"] = [{"wall_s": 1.0}]
        with pytest.raises(SchemaError, match="phase"):
            validate_manifest(doc)

    def test_error_lists_every_problem(self):
        doc = _manifest().to_dict()
        del doc["seed"]
        doc["kind"] = "rumour"
        with pytest.raises(SchemaError, match="seed.*kind|kind.*seed"):
            validate_manifest(doc)


class TestFingerprint:
    def test_wall_clock_excluded(self):
        a = _manifest(phases=[{"name": "run", "wall_s": 0.1}])
        b = _manifest(phases=[{"name": "run", "wall_s": 9.9}])
        assert a.fingerprint() == b.fingerprint()

    def test_physics_included(self):
        a = _manifest(headline={"surge_clean": True})
        b = _manifest(headline={"surge_clean": False})
        assert a.fingerprint() != b.fingerprint()


class TestFingerprintImmunity:
    def test_timing_never_reaches_the_fingerprint(self):
        base = RunManifest(
            kind="experiment", name="x", seed=1,
            phases=[{"name": "run", "wall_s": 0.5}],
            metrics={"sram.cells_decayed": 10},
        ).to_dict()
        noisy = RunManifest(
            kind="experiment", name="x", seed=1,
            phases=[{"name": "run", "wall_s": 7.5}],
            metrics={
                "sram.cells_decayed": 10,
                "exec.shard_wall_s": {"count": 2, "mean": 1.0,
                                      "min": 0.5, "max": 1.5},
            },
        ).to_dict()
        assert manifest_fingerprint(base) == manifest_fingerprint(noisy)

    def test_perf_metrics_are_fingerprinted(self):
        # Only exec.* is stripped: a perf.* metric is physics to the
        # fingerprint, so a new emitter must extend the stripped prefixes.
        base = RunManifest(kind="experiment", name="x", seed=1)
        perf = RunManifest(
            kind="experiment", name="x", seed=1,
            metrics={"perf.exec.units.per_s": 123.0},
        )
        assert base.fingerprint() != perf.fingerprint()
