"""Durable storage for ensembles.

An ensemble directory holds:

  manifest.json — format_version, member specs, schedules, provenance,
                  and the sha256 of the weights file;
  weights.bin   — little-endian binary: 8-byte magic, u32 FORMAT_VERSION,
                  u32 member count, then per member a u64 parameter count
                  followed by that many float64 values.

FORMAT_VERSION is the only version written or read.  Loading re-validates
everything (magic, version, counts against the spec shapes, the recorded
digest), so silent corruption cannot pass.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .cascade import RuntimeConfig
from .classifiers import ClassifierSpec, TrainedModel
from .errors import InvalidInputError, ManifestDigestError, ManifestVersionError
from .manifest import EnsembleManifest

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
    return {
        "format_version": FORMAT_VERSION,
        "selection_rule": manifest.selection_rule,
        "training_thresholds": list(manifest.training_thresholds),
        "default_runtime": {
            "thresholds": list(manifest.default_runtime.thresholds),
            "consensus": manifest.default_runtime.consensus,
        },
        "dataset_id": manifest.dataset_id,
        "dataset_digest": manifest.dataset_digest,
        "weights_file": WEIGHTS_FILE,
        "weights_digest": weights_digest,
        "members": [
            {
                "level": level,
                "kind": m.spec.kind,
                "input_dim": m.spec.input_dim,
                "num_classes": m.spec.num_classes,
                "hidden_units": m.spec.hidden_units,
                "seed": m.spec.seed,
                "param_count": m.spec.param_count(),
                "training_fingerprint": m.training_fingerprint,
            }
            for level, m in enumerate(manifest.members)
        ],
    }


def write_json(path, doc) -> None:
    """A JSON artifact: indented, keys sorted, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestDigestError(f"{manifest_path}: malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestDigestError(f"{manifest_path}: top level must be a JSON object")

    version = doc.get("format_version")
    if version != FORMAT_VERSION:
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
        if entry["level"] != level:
            raise ManifestDigestError(
                f"{manifest_path}: member levels not contiguous at position {level}"
            )
        spec = ClassifierSpec(
            kind=entry["kind"],
            input_dim=entry["input_dim"],
            num_classes=entry["num_classes"],
            hidden_units=entry["hidden_units"],
            seed=entry["seed"],
        )
        if params.size != spec.param_count() or entry["param_count"] != spec.param_count():
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

    return EnsembleManifest(
        members=tuple(members),
        selection_rule=doc["selection_rule"],
        training_thresholds=tuple(doc["training_thresholds"]),
        default_runtime=RuntimeConfig(
            thresholds=tuple(doc["default_runtime"]["thresholds"]),
            consensus=doc["default_runtime"]["consensus"],
        ),
        dataset_id=doc["dataset_id"],
        dataset_digest=doc["dataset_digest"],
    )
