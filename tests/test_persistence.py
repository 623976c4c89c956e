from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf_ensemble import (
    BuildConfig,
    ManifestDigestError,
    ManifestVersionError,
    RuntimeConfig,
    build_ensemble,
    load_manifest,
    save_csv,
    save_manifest,
)
from conf_ensemble.cli import EXIT_STORAGE, main
from conf_ensemble.persist import FORMAT_VERSION, WEIGHTS_FILE, WEIGHTS_MAGIC

from conftest import (
    JSON_VALUES,
    MLP_ARCH,
    TRAIN,
    json_leaves,
    member_with_uncertainty,
    set_leaf,
    stub_manifest,
)
from oracles import artifact_digests, manifests_equal


@pytest.fixture(scope="module")
def built(blobs3):
    cfg = BuildConfig(num_members=2, training_thresholds=(0.05,),
                      **MLP_ARCH, train_config=TRAIN,
                      selection_rule="rebased")
    manifest, _ = build_ensemble(
        blobs3, cfg,
        default_runtime=RuntimeConfig(thresholds=(0.2, 0.1), consensus="last_member"),
    )
    return manifest


class TestRoundTrip:
    def test_identity(self, built, tmp_path):
        save_manifest(built, tmp_path)
        loaded = load_manifest(tmp_path)
        assert manifests_equal(built, loaded)
        for a, b in zip(built.members, loaded.members):
            assert np.array_equal(a.parameters, b.parameters)
            assert a.spec == b.spec
            assert a.training_fingerprint == b.training_fingerprint

    def test_stub_round_trip(self, tmp_path):
        manifest = stub_manifest(
            [member_with_uncertainty(0.3), member_with_uncertainty(0.1, top_class=1)]
        )
        save_manifest(manifest, tmp_path)
        assert manifests_equal(manifest, load_manifest(tmp_path))

    def test_save_twice_identical_bytes(self, built, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        save_manifest(built, a)
        save_manifest(built, b)
        assert artifact_digests(a) == artifact_digests(b)

    def test_every_manifest_saves_the_version_it_loads(self, built, tmp_path):
        # The format version is the store's constant, not a manifest field:
        # no manifest can be saved under a version load_manifest rejects.
        with pytest.raises(TypeError):
            replace(built, format_version=2)
        save_manifest(built, tmp_path)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        weights = (tmp_path / WEIGHTS_FILE).read_bytes()
        assert doc["format_version"] == FORMAT_VERSION
        assert struct.unpack_from("<I", weights, len(WEIGHTS_MAGIC))[0] == FORMAT_VERSION
        assert manifests_equal(built, load_manifest(tmp_path))


class TestCorruption:
    def test_flipped_weight_byte_detected(self, built, tmp_path):
        save_manifest(built, tmp_path)
        weights_path = tmp_path / WEIGHTS_FILE
        raw = bytearray(weights_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        weights_path.write_bytes(bytes(raw))
        with pytest.raises(ManifestDigestError):
            load_manifest(tmp_path)

    def test_unknown_format_version(self, built, tmp_path):
        save_manifest(built, tmp_path)
        manifest_path = tmp_path / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["format_version"] = 99
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestVersionError):
            load_manifest(tmp_path)

    def test_bad_magic_detected(self, built, tmp_path):
        import hashlib

        save_manifest(built, tmp_path)
        weights_path = tmp_path / WEIGHTS_FILE
        raw = bytearray(weights_path.read_bytes())
        raw[0] ^= 0xFF
        weights_path.write_bytes(bytes(raw))
        # keep the digest consistent so the magic check itself must fire
        manifest_path = tmp_path / "manifest.json"
        doc = json.loads(manifest_path.read_text())
        doc["weights_digest"] = hashlib.sha256(bytes(raw)).hexdigest()
        manifest_path.write_text(json.dumps(doc))
        with pytest.raises(ManifestDigestError, match="magic"):
            load_manifest(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(OSError):
            load_manifest(tmp_path / "nope")

    def test_malformed_manifest_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{broken")
        with pytest.raises(ManifestDigestError, match="malformed"):
            load_manifest(tmp_path)

    def test_manifest_missing_fields(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"format_version": 1}')
        with pytest.raises(ManifestDigestError, match="weights_file"):
            load_manifest(tmp_path)


def _top_level_list(directory):
    (directory / "manifest.json").write_text("[]")


def _string_input_dim(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["members"][0]["input_dim"] = "4"
    manifest_path.write_text(json.dumps(doc))


def _fractional_hidden_units(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["members"][0]["hidden_units"] += 0.9  # param_count still matches
    manifest_path.write_text(json.dumps(doc))


def _fractional_seed(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["members"][1]["seed"] += 0.7
    manifest_path.write_text(json.dumps(doc))


def _negative_seed(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["members"][0]["seed"] = -1
    manifest_path.write_text(json.dumps(doc))


def _unknown_selection_rule(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["selection_rule"] = "shuffled"
    manifest_path.write_text(json.dumps(doc))


def _string_training_threshold(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["training_thresholds"] = [str(t) for t in doc["training_thresholds"]]
    manifest_path.write_text(json.dumps(doc))


def _runtime_threshold_out_of_range(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["default_runtime"]["thresholds"][0] = 0.9
    manifest_path.write_text(json.dumps(doc))


def _weights_file_elsewhere(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["weights_file"] = ""  # the directory itself
    manifest_path.write_text(json.dumps(doc))


def _weights_shorter_than_header(directory):
    raw = WEIGHTS_MAGIC + b"\x01\x00"  # the version/count header needs 8 bytes
    (directory / WEIGHTS_FILE).write_bytes(raw)
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["weights_digest"] = hashlib.sha256(raw).hexdigest()  # digest still matches
    manifest_path.write_text(json.dumps(doc))


class TestMalformedManifest:
    """Valid JSON of the wrong shape is a storage error, not a crash."""

    @pytest.mark.parametrize(
        "corrupt",
        [
            _top_level_list,
            _string_input_dim,
            _weights_shorter_than_header,
            _fractional_hidden_units,
            _fractional_seed,
            _negative_seed,
            _unknown_selection_rule,
            _string_training_threshold,
            _runtime_threshold_out_of_range,
            _weights_file_elsewhere,
        ],
    )
    def test_typed_error_and_storage_exit(self, built, blobs3, tmp_path, corrupt):
        store = tmp_path / "store"
        save_manifest(built, store)
        corrupt(store)
        with pytest.raises(ManifestDigestError):
            load_manifest(store)
        # a loadable ensemble would evaluate this data and exit 0
        data_csv = tmp_path / "data.csv"
        save_csv(blobs3, data_csv)
        code = main(["evaluate", "--ensemble", str(store), "--data", str(data_csv),
                     "--out", str(tmp_path / "eval")])
        assert code == EXIT_STORAGE


@pytest.fixture(scope="module")
def stored(built, tmp_path_factory):
    store = tmp_path_factory.mktemp("stored")
    save_manifest(built, store)
    return store, (store / "manifest.json").read_text(encoding="utf-8")


class TestEveryManifestField:
    """Whatever value one field of a stored manifest holds, loading either
    succeeds or raises a storage error; nothing else escapes."""

    @settings(max_examples=200, deadline=None)
    @given(st.data(), JSON_VALUES)
    def test_load_succeeds_or_raises_storage_error(self, stored, data, value):
        store, original = stored
        doc = json.loads(original)
        set_leaf(doc, data.draw(st.sampled_from(list(json_leaves(doc)))), value)
        (store / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        try:
            load_manifest(store)
        except (ManifestDigestError, ManifestVersionError):
            pass


class TestBuildDeterminism:
    def test_two_builds_same_digests(self, blobs3, tmp_path):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                          **MLP_ARCH, train_config=TRAIN)
        for name in ("run1", "run2"):
            manifest, _ = build_ensemble(blobs3, cfg)
            save_manifest(manifest, tmp_path / name)
        assert artifact_digests(tmp_path / "run1") == artifact_digests(tmp_path / "run2")
