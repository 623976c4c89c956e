"""Durable storage for ensembles.

An ensemble directory holds:

  manifest.json — the EnsembleManifest's fields, each member written as
                  its ClassifierSpec's fields plus level, param_count
                  and training_fingerprint, and the store's own
                  format_version, weights_file and the sha256 of
                  the weights file;
  weights.bin   — little-endian binary: 8-byte magic, u32 FORMAT_VERSION,
                  u32 member count, then per member a u64 parameter count
                  followed by that many float64 values.

FORMAT_VERSION is the only version written or read.  Loading re-validates
everything (magic, version, field types, counts against the spec shapes,
the recorded digest), so silent corruption cannot pass, and builds each
record back from the JSON keys its dataclass fields name (_from_fields),
so the written and the read schema of a member spec, the default runtime
and the manifest are one list each: the dataclass's fields, plus the keys
the store writes beside them; any other key is a storage error naming it.

read_json reads every JSON file (a config, a --data block, a manifest),
and known_keys is the one rule for a key a block does not name, in a
config and a manifest alike; write_json writes the small artifacts (a
dataclass record as its fields).
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .builder import EnsembleManifest
from .cascade import RuntimeConfig
from .classifiers import ClassifierSpec, TrainedModel
from .errors import InvalidInputError, ManifestDigestError, ManifestVersionError, require_int

FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.bin"
WEIGHTS_MAGIC = b"CEWEIGHT"


def _pack_weights(manifest: EnsembleManifest) -> bytes:
    parts = [
        WEIGHTS_MAGIC,
        struct.pack("<II", FORMAT_VERSION, len(manifest.members)),
    ]
    for member in manifest.members:
        params = np.ascontiguousarray(member.parameters, dtype="<f8")
        parts.append(struct.pack("<Q", params.size))
        parts.append(params.tobytes())
    return b"".join(parts)


def _unpack_weights(raw: bytes, path: Path) -> list[np.ndarray]:
    if raw[: len(WEIGHTS_MAGIC)] != WEIGHTS_MAGIC:
        raise ManifestDigestError(f"{path}: bad weights magic")
    offset = len(WEIGHTS_MAGIC)
    version, count = struct.unpack_from("<II", raw, offset)
    offset += 8
    if version != FORMAT_VERSION:
        raise ManifestVersionError(
            f"{path}: weights format version {version}, expected {FORMAT_VERSION}"
        )
    vectors = []
    for _ in range(count):
        if offset + 8 > len(raw):
            raise ManifestDigestError(f"{path}: truncated weights header")
        (size,) = struct.unpack_from("<Q", raw, offset)
        offset += 8
        end = offset + 8 * size
        if end > len(raw):
            raise ManifestDigestError(f"{path}: truncated weights payload")
        vectors.append(np.frombuffer(raw, dtype="<f8", count=size, offset=offset).copy())
        offset = end
    if offset != len(raw):
        raise ManifestDigestError(f"{path}: {len(raw) - offset} trailing bytes in weights")
    return vectors


def manifest_to_json_dict(manifest: EnsembleManifest, weights_digest: str) -> dict:
    members = [
        dict(vars(m.spec), level=level, param_count=m.spec.param_count(),
             training_fingerprint=m.training_fingerprint)
        for level, m in enumerate(manifest.members)
    ]
    return dict(vars(manifest), members=members, format_version=FORMAT_VERSION,
                weights_file=WEIGHTS_FILE, weights_digest=weights_digest)


def _record_fields(record) -> dict:
    """json's hook for a dataclass record: its fields, less any declared
    field(compare=False), whose value another field stands for (as
    MemberBuildRecord.index_digest does for subset_indices)."""
    if not is_dataclass(record):
        raise TypeError(f"{type(record).__name__} is not JSON serializable")
    return {f.name: getattr(record, f.name) for f in fields(record) if f.compare}


def write_json(path, doc) -> None:
    """A JSON artifact: indented, keys sorted, newline-terminated; a
    dataclass anywhere in doc is written as its fields (_record_fields)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_record_fields)
        fh.write("\n")


def read_json(path: Path, error: type[Exception]):
    """The parsed JSON document at path; undecodable bytes, bad syntax or
    nesting too deep to parse raise error naming the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc


def known_keys(block, allowed, where: str, error: type[Exception]) -> dict:
    """block, once it is an object whose every key is in allowed; anything
    else raises error naming where, the block's path in its document."""
    if not isinstance(block, dict):
        raise error(f"{where} block must be an object")
    for key in block:
        if key not in allowed:
            raise error(f"unknown key {where}.{key}")
    return block


def save_manifest(manifest: EnsembleManifest, directory) -> Path:
    """Write manifest.json and weights.bin; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    weights = _pack_weights(manifest)
    digest = hashlib.sha256(weights).hexdigest()
    (directory / WEIGHTS_FILE).write_bytes(weights)
    write_json(directory / MANIFEST_FILE, manifest_to_json_dict(manifest, digest))
    return directory


def load_manifest(directory) -> EnsembleManifest:
    """Load and re-validate a stored ensemble."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    doc = read_json(manifest_path, ManifestDigestError)
    if not isinstance(doc, dict):
        raise ManifestDigestError(f"{manifest_path}: top level must be a JSON object")

    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ManifestVersionError(
            f"{manifest_path}: format_version {version}, expected {FORMAT_VERSION}"
        )

    try:
        return _reconstruct(doc, directory, manifest_path)
    except KeyError as exc:
        raise ManifestDigestError(f"{manifest_path}: missing field {exc}") from exc
    except (InvalidInputError, TypeError, ValueError, struct.error) as exc:
        raise ManifestDigestError(f"{manifest_path}: malformed manifest: {exc}") from exc


def _reconstruct(doc, directory: Path, manifest_path: Path) -> EnsembleManifest:
    if doc["weights_file"] != WEIGHTS_FILE:
        raise ManifestDigestError(
            f"{manifest_path}: weights_file {doc['weights_file']!r}, expected {WEIGHTS_FILE!r}"
        )
    weights_path = directory / WEIGHTS_FILE
    raw = weights_path.read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != doc["weights_digest"]:
        raise ManifestDigestError(
            f"{weights_path}: sha256 {digest} does not match recorded "
            f"{doc['weights_digest']}"
        )
    vectors = _unpack_weights(raw, weights_path)
    entries = doc["members"]
    if len(vectors) != len(entries):
        raise ManifestDigestError(
            f"{weights_path}: {len(vectors)} weight blocks for {len(entries)} members"
        )

    members = []
    for level, (entry, params) in enumerate(zip(entries, vectors)):
        if require_int("level", entry["level"]) != level:
            raise ManifestDigestError(
                f"{manifest_path}: member levels not contiguous at position {level}"
            )
        spec = _from_fields(ClassifierSpec, entry, f"members[{level}]",
                            ("level", "param_count", "training_fingerprint"))
        count = require_int("param_count", entry["param_count"])
        if params.size != spec.param_count() or count != spec.param_count():
            raise ManifestDigestError(
                f"{weights_path}: member {level} has {params.size} parameters, "
                f"spec requires {spec.param_count()}"
            )
        members.append(
            TrainedModel(
                spec=spec,
                parameters=params,
                training_fingerprint=entry["training_fingerprint"],
            )
        )

    runtime = _from_fields(RuntimeConfig, doc["default_runtime"], "default_runtime")
    return _from_fields(EnsembleManifest, dict(doc, members=tuple(members),
                                               default_runtime=runtime),
                        "manifest", ("format_version", "weights_file", "weights_digest"))


def _from_fields(cls, block, where: str, stored=()):
    """cls built from the entries of block that its fields name.  The
    block may hold those and the keys stored beside them (stored); any
    other key is an InvalidInputError naming it (known_keys), and a
    missing field is a KeyError."""
    names = [f.name for f in fields(cls)]
    known_keys(block, (*names, *stored), where, InvalidInputError)
    return cls(**{name: block[name] for name in names})
