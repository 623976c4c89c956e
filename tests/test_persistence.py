from __future__ import annotations

import hashlib
import json
import re
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
from conf_ensemble.cli import main
from conf_ensemble.errors import EXIT_STORAGE
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
                      **MLP_ARCH, training=TRAIN,
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


def _set_thresholds(directory, training, runtime):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["training_thresholds"] = training
    doc["default_runtime"]["thresholds"] = runtime
    manifest_path.write_text(json.dumps(doc))


def _scalar_training_thresholds(directory):
    _set_thresholds(directory, "0.05", [0.2, 0.2])
    return ManifestDigestError, "training thresholds must be a list of numbers, got '0.05'"


def _scalar_runtime_thresholds(directory):
    _set_thresholds(directory, [0.05], 0.2)
    return ManifestDigestError, "runtime thresholds must be a list of numbers, got 0.2"


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


def _rewrite_weights(directory, edit):
    """weights.bin replaced by edit(its bytes), under a digest that matches."""
    weights_path = directory / WEIGHTS_FILE
    raw = edit(weights_path.read_bytes())
    weights_path.write_bytes(raw)
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    doc["weights_digest"] = hashlib.sha256(raw).hexdigest()
    manifest_path.write_text(json.dumps(doc))


def _nan_last_weight(directory):
    _rewrite_weights(directory, lambda raw: raw[:-8] + struct.pack("<d", float("nan")))


# The bytes after the magic: u32 version, u32 member count, then the first
# member's u64 parameter count.
_VERSION_AT = len(WEIGHTS_MAGIC)
_COUNT_AT = _VERSION_AT + 4
_FIRST_MEMBER_AT = _COUNT_AT + 4


def _weights_version_ahead(directory):
    _rewrite_weights(directory, lambda raw: (
        raw[:_VERSION_AT] + struct.pack("<I", FORMAT_VERSION + 1) + raw[_COUNT_AT:]))
    return ManifestVersionError, f"weights format version {FORMAT_VERSION + 1}, expected"


def _cut_member_header(directory):
    # the version and count promise two members; the file ends 4 bytes
    # into the first one's parameter count
    _rewrite_weights(directory, lambda raw: raw[:_FIRST_MEMBER_AT + 4])
    return ManifestDigestError, "truncated weights header"


def _trailing_weights_byte(directory):
    _rewrite_weights(directory, lambda raw: raw + b"\x00")
    return ManifestDigestError, "1 trailing bytes in weights"


def _one_weight_block_for_two_members(directory):
    def first_block_only(raw):
        (size,) = struct.unpack_from("<Q", raw, _FIRST_MEMBER_AT)
        return (raw[:_COUNT_AT] + struct.pack("<I", 1)
                + raw[_FIRST_MEMBER_AT:_FIRST_MEMBER_AT + 8 + 8 * size])

    _rewrite_weights(directory, first_block_only)
    return ManifestDigestError, "1 weight blocks for 2 members"


def _members_of_different_shapes(directory):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    member = doc["members"][1]
    # 12 * 8 + 8 + 8 * 3 + 3 = 131 = 4 * 16 + 16 + 16 * 3 + 3 parameters
    assert (member["input_dim"], member["hidden_units"], member["param_count"]) == (4, 16, 131)
    member.update(input_dim=12, hidden_units=8)
    manifest_path.write_text(json.dumps(doc))
    return ManifestDigestError, "all members must share input_dim and num_classes"


def _add_key(directory, pick):
    manifest_path = directory / "manifest.json"
    doc = json.loads(manifest_path.read_text())
    pick(doc)["score_kind"] = "uncertainty"  # a field a later version might add
    manifest_path.write_text(json.dumps(doc))


def _added_member_key(directory):
    _add_key(directory, lambda doc: doc["members"][1])


def _added_runtime_key(directory):
    _add_key(directory, lambda doc: doc["default_runtime"])


def _added_top_level_key(directory):
    _add_key(directory, lambda doc: doc)


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
            _scalar_training_thresholds,
            _scalar_runtime_thresholds,
            _runtime_threshold_out_of_range,
            _weights_file_elsewhere,
            _nan_last_weight,
            _added_member_key,
            _added_runtime_key,
            _added_top_level_key,
            _weights_version_ahead,
            _cut_member_header,
            _trailing_weights_byte,
            _one_weight_block_for_two_members,
            _members_of_different_shapes,
        ],
    )
    def test_typed_error_and_storage_exit(self, built, blobs3, tmp_path, corrupt):
        store = tmp_path / "store"
        save_manifest(built, store)
        # a corruption that names its error returns (error class, message part)
        error, message = corrupt(store) or (ManifestDigestError, None)
        with pytest.raises(error, match=message and re.escape(message)):
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


def _leaf(doc, path):
    for key in path:
        doc = doc[key]
    return doc


class TestMistypedManifestField:
    """A string field of a stored manifest holding another value, or an
    integer field a boolean or a float, is a storage error: the CLI exits
    with EXIT_STORAGE."""

    @pytest.mark.parametrize("path, value", [
        (("format_version",), True),
        (("format_version",), 1.0),
        (("members", 0, "level"), False),
        (("members", 1, "param_count"), 131.0),
        (("dataset_digest",), 12),
        (("dataset_id",), ["x"]),
        (("members", 0, "training_fingerprint"), {"a": 1}),
    ], ids=lambda v: json.dumps(v))
    def test_evaluate_exits_with_storage_code(self, built, blobs3, tmp_path, path, value):
        store = save_manifest(built, tmp_path / "store")
        doc = json.loads((store / "manifest.json").read_text(encoding="utf-8"))
        old = _leaf(doc, path)  # an integer edited to an equal value of another type
        assert old == value if type(old) is int else isinstance(old, str)
        set_leaf(doc, path, value)
        (store / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        data_csv = tmp_path / "data.csv"
        save_csv(blobs3, data_csv)
        assert main(["evaluate", "--ensemble", str(store), "--data", str(data_csv),
                     "--out", str(tmp_path / "eval")]) == EXIT_STORAGE

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_load_fails(self, stored, data):
        store, original = stored
        doc = json.loads(original)
        typed = [path for path in json_leaves(doc) if type(_leaf(doc, path)) in (str, int)]
        path = data.draw(st.sampled_from(typed))
        old = _leaf(doc, path)
        if type(old) is str:
            value = data.draw(JSON_VALUES.filter(lambda v: not isinstance(v, str)))
        else:
            value = data.draw(st.booleans() | st.just(float(old))
                              | st.floats(allow_nan=False, allow_infinity=False))
        set_leaf(doc, path, value)
        (store / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises((ManifestDigestError, ManifestVersionError)):
            load_manifest(store)


class TestManifestKeys:
    """A member entry or default_runtime with a key dropped, and a member
    entry, default_runtime or the top level with a key added, fail to
    load, naming the key."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dropped_or_added_key_fails_naming_it(self, stored, data):
        store, original = stored
        doc = json.loads(original)
        blocks = {"default_runtime": doc["default_runtime"],
                  **{f"members[{i}]": entry for i, entry in enumerate(doc["members"])}}
        if data.draw(st.booleans()):
            block = blocks[data.draw(st.sampled_from(sorted(blocks)))]
            key = data.draw(st.sampled_from(sorted(block)))
            del block[key]
            message = re.escape(f"missing field {key!r}")
        else:
            where = data.draw(st.sampled_from(sorted(blocks) + ["manifest"]))
            block = doc if where == "manifest" else blocks[where]
            key = data.draw(st.text(max_size=12).filter(lambda k: k not in block))
            block[key] = data.draw(JSON_VALUES)
            message = re.escape(f"malformed manifest: unknown key {where}.{key}") + r"\Z"
        (store / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ManifestDigestError, match=message):
            load_manifest(store)


class TestDamagedWeights:
    """weights.bin cut short or with one byte flipped, under a digest that
    matches it, so that the file's own checks must run.  Only a storage
    error may escape; a cut file and a damaged header always fail."""

    HEADER = len(WEIGHTS_MAGIC) + 8 + 8  # magic, version and count, first size

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_load_succeeds_or_raises_storage_error(self, stored, data):
        store, original = stored
        weights_path = store / WEIGHTS_FILE
        intact = weights_path.read_bytes()
        position = data.draw(st.integers(min_value=0, max_value=len(intact) - 1))
        truncate = data.draw(st.booleans())
        if truncate:
            raw = intact[:position]
        else:
            flipped = intact[position] ^ data.draw(st.integers(min_value=1, max_value=255))
            raw = intact[:position] + bytes([flipped]) + intact[position + 1:]
        doc = json.loads(original)
        doc["weights_digest"] = hashlib.sha256(raw).hexdigest()
        (store / "manifest.json").write_text(json.dumps(doc), encoding="utf-8")
        weights_path.write_bytes(raw)
        try:
            if truncate or position < self.HEADER:
                with pytest.raises((ManifestDigestError, ManifestVersionError)):
                    load_manifest(store)
            else:
                try:
                    load_manifest(store)
                except (ManifestDigestError, ManifestVersionError):
                    pass
        finally:
            weights_path.write_bytes(intact)


class TestBuildDeterminism:
    def test_two_builds_same_digests(self, blobs3, tmp_path):
        cfg = BuildConfig(num_members=2, training_thresholds=(0.1,),
                          **MLP_ARCH, training=TRAIN)
        for name in ("run1", "run2"):
            manifest, _ = build_ensemble(blobs3, cfg)
            save_manifest(manifest, tmp_path / name)
        assert artifact_digests(tmp_path / "run1") == artifact_digests(tmp_path / "run2")
