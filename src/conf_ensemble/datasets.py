"""Datasets with stable indices, subset views, generators, and loaders.

A Dataset is immutable after construction: features are an (n, M) float64
matrix, labels an (n,) int64 vector.  Subsets are views over a parent
dataset rather than copies, a read-only int64 array of increasing row
indices, so nesting of training pools is set inclusion on indices.

Supported external formats:
  * CSV — header row naming feature columns plus a final "label" column.
  * IDX — the classic big-endian ubyte container (magic 0x00000803 for
    images, 0x00000801 for labels); pixels are scaled to [0, 1].
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DatasetParseError,
    InvalidInputError,
    InvalidViewError,
    require_float,
    require_int,
    require_seed,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Centre spacing in units of cluster std: 8 sigma at overlap=0 keeps the
# classes linearly separable with overwhelming probability, 0.5 sigma at
# overlap=1 makes most of the mass ambiguous.
_BLOB_SEPARATION_MAX = 8.0
_BLOB_SEPARATION_MIN = 0.5


class Dataset:
    """Immutable collection of samples with a stable per-sample index."""

    def __init__(self, features, labels, num_classes: int, id: str):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        labs = np.asarray(labels, dtype=np.int64)
        if feats.ndim != 2:
            raise InvalidInputError(f"features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise InvalidInputError("labels must be a vector matching the sample count")
        if not np.all(np.isfinite(feats)):
            raise InvalidInputError("features contain non-finite entries")
        if num_classes < 2:
            raise InvalidInputError(f"num_classes must be >= 2, got {num_classes}")
        if labs.size and (labs.min() < 0 or labs.max() >= num_classes):
            raise InvalidInputError("labels must lie in [0, num_classes)")
        feats.setflags(write=False)
        labs.setflags(write=False)
        self.features = feats
        self.labels = labs
        self.num_classes = int(num_classes)
        self.id = id

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def all_indices(self) -> "SubsetView":
        return SubsetView(parent_id=self.id, indices=np.arange(len(self)))

    def digest(self) -> str:
        """Content hash over features, labels, and class count."""
        h = hashlib.sha256()
        h.update(struct.pack("<qqq", len(self), self.feature_dim, self.num_classes))
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()


@dataclass(frozen=True, eq=False)
class SubsetView:
    """Non-negative, strictly increasing row indices into a parent dataset,
    held as a read-only int64 array."""

    parent_id: str
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        idx = np.array(self.indices, dtype=np.int64)
        if idx.ndim != 1 or np.any(idx != self.indices):
            raise InvalidInputError("subset indices must be a vector of integers")
        if idx.size and (idx[0] < 0 or np.any(idx[1:] <= idx[:-1])):
            raise InvalidInputError("subset indices must be non-negative and strictly increasing")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def materialize(view: SubsetView, parent: Dataset) -> Dataset:
    """Copy out the viewed samples, preserving index order."""
    if view.parent_id != parent.id:
        raise InvalidViewError(
            f"view targets dataset {view.parent_id!r}, got {parent.id!r}"
        )
    idx = view.indices
    if idx.size and idx[-1] >= len(parent):
        raise InvalidViewError(
            f"view index {idx[-1]} out of range for {len(parent)} samples"
        )
    tag = hashlib.sha256(idx.tobytes()).hexdigest()[:8]
    return Dataset(
        features=parent.features[idx],
        labels=parent.labels[idx],
        num_classes=parent.num_classes,
        id=f"{parent.id}[{len(idx)}:{tag}]",
    )


def generate_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    overlap: float,
    seed: int,
) -> Dataset:
    """Gaussian clusters with a tunable ambiguous fraction.

    Cluster centres sit on a circle (a line for dim=1) whose spacing
    shrinks linearly as overlap grows from 0 to 1, so higher overlap puts
    more samples in regions where classes mix.  Deterministic in seed.
    """
    num_classes = require_int("num_classes", num_classes)
    per_class = require_int("per_class", per_class)
    dim = require_int("dim", dim)
    spread = require_float("spread", spread)
    overlap = require_float("overlap", overlap)
    seed = require_seed("seed", seed)
    if num_classes < 2:
        raise InvalidInputError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise InvalidInputError(f"per_class must be >= 1, got {per_class}")
    if dim < 1:
        raise InvalidInputError(f"dim must be >= 1, got {dim}")
    if spread <= 0:
        raise InvalidInputError(f"spread must be > 0, got {spread}")
    if not 0.0 <= overlap <= 1.0:
        raise InvalidInputError(f"overlap must be in [0, 1], got {overlap}")

    spacing = spread * (
        _BLOB_SEPARATION_MIN
        + (_BLOB_SEPARATION_MAX - _BLOB_SEPARATION_MIN) * (1.0 - overlap)
    )
    centers = np.zeros((num_classes, dim))
    if dim == 1:
        centers[:, 0] = spacing * np.arange(num_classes)
    else:
        # Adjacent centres on the circle are exactly `spacing` apart.
        radius = spacing / (2.0 * np.sin(np.pi / num_classes))
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)

    rng = np.random.default_rng(seed)
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for k in range(num_classes):
        block = slice(k * per_class, (k + 1) * per_class)
        features[block] = centers[k] + spread * rng.standard_normal((per_class, dim))
        labels[block] = k
    return Dataset(
        features=features,
        labels=labels,
        num_classes=num_classes,
        id=f"blobs-k{num_classes}-n{per_class}-d{dim}-o{overlap:g}-s{seed}",
    )


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Load a dataset from CSV: feature columns then a final "label" column.

    num_classes declares the label range; when omitted it is inferred as
    max(label) + 1.  Malformed rows raise DatasetParseError naming the line.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetParseError(f"{path}: empty file") from None
            if not header or header[-1].strip() != "label":
                raise DatasetParseError(f"{path}: last header column must be 'label'")
            dim = len(header) - 1
            if dim < 1:
                raise DatasetParseError(f"{path}: no feature columns")

            feats: list[list[float]] = []
            labels: list[int] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != dim + 1:
                    raise DatasetParseError(
                        f"{path}: line {lineno}: expected {dim + 1} fields, got {len(row)}"
                    )
                try:
                    feats.append([float(v) for v in row[:dim]])
                    label = int(row[dim])
                except ValueError as exc:
                    raise DatasetParseError(f"{path}: line {lineno}: {exc}") from None
                if label < 0:
                    raise DatasetParseError(f"{path}: line {lineno}: negative label {label}")
                if num_classes is not None and label >= num_classes:
                    raise DatasetParseError(
                        f"{path}: line {lineno}: label {label} >= num_classes {num_classes}"
                    )
                labels.append(label)
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text: {exc}") from None
    if not labels:
        raise DatasetParseError(f"{path}: no data rows")
    inferred = num_classes if num_classes is not None else max(labels) + 1
    return Dataset(
        features=np.asarray(feats),
        labels=np.asarray(labels),
        num_classes=max(inferred, 2),
        id=path.stem,
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the CSV format load_csv reads back."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.feature_dim)] + ["label"])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _read_idx(path, expected_magic: int, expected_dims: int) -> tuple[np.ndarray, tuple[int, ...]]:
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 * (1 + expected_dims):
        raise DatasetParseError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise DatasetParseError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{expected_dims}I", raw[4 : 4 + 4 * expected_dims])
    offset = 4 + 4 * expected_dims
    count = int(np.prod(dims))
    body = np.frombuffer(raw, dtype=np.uint8, offset=offset)
    if body.size != count:
        raise DatasetParseError(
            f"{path}: payload holds {body.size} bytes, header promises {count}"
        )
    return body, dims


def load_idx(images_path, labels_path, num_classes: int | None = None) -> Dataset:
    """Load an IDX ubyte image/label pair; pixels scaled to [0, 1]."""
    pixels, (n_images, rows, cols) = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    labels, (n_labels,) = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if n_images != n_labels:
        raise DatasetParseError(
            f"{labels_path}: {n_labels} labels for {n_images} images"
        )
    if n_images == 0:
        raise DatasetParseError(f"{images_path}: no images")
    features = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    labs = labels.astype(np.int64)
    inferred = num_classes if num_classes is not None else int(labs.max()) + 1
    return Dataset(
        features=features,
        labels=labs,
        num_classes=max(inferred, 2),
        id=Path(images_path).stem,
    )
