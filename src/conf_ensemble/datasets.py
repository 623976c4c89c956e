"""Datasets with stable indices, generators, and loaders.

A Dataset is immutable after construction: features are an (n, M) float64
matrix, labels an (n,) int64 vector.  A training pool is an int64 array of
increasing row indices into a dataset, so nesting of pools is set
inclusion on indices; materialize copies a pool's rows out.

Supported external formats:
  * CSV — header row naming feature columns plus a final "label" column.
    The data rows are parsed in one np.loadtxt pass; the csv-module row
    loop reads whatever that pass refuses and is the only error reporter,
    naming the first faulty line.
  * IDX — the classic big-endian ubyte container (magic 0x00000803 for
    images, 0x00000801 for labels); pixels are scaled to [0, 1].
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import math
import re
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np

from .errors import (
    DatasetParseError,
    InvalidInputError,
    require_float,
    require_int,
)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Centre spacing in units of cluster std: 8 sigma at overlap=0 keeps the
# classes linearly separable with overwhelming probability, 0.5 sigma at
# overlap=1 makes most of the mass ambiguous.
_BLOB_SEPARATION_MAX = 8.0
_BLOB_SEPARATION_MIN = 0.5

# The largest label a CSV may hold: labels are stored as int64.
_MAX_LABEL = 2**63 - 1

# The bytes CSV data rows may hold for the one-pass parse: numbers in plain
# notation, commas, spaces, tabs and line ends.  Over these np.loadtxt reads
# a cell exactly as float() and int() do; beyond them it is laxer (it reads
# "1\x1c" as 1), so any other byte sends the file to the row loop.
_TABLE_BYTES = b"0123456789+-.eE, \t\r\n"

# Rows per fh.write of write_rows, the row writer of save_csv, EvaluationRecord's
# writers and ScoreHistogram.write_csv (not of subsets/level_K.idx, whose text
# is also its digest's payload, nor of the sweep's csv.DictWriter): each chunk
# of a column becomes Python values with one .tolist() call.  A constant, not
# a setting: the bytes written do not depend on it.
CHUNK_ROWS = 1024


def write_rows(fh, templates: np.ndarray, columns, separator: str = "") -> None:
    """Write one row per entry of the (n,) object array templates: its
    %-template filled with the row's value in each equal-length column,
    rows joined by separator, one fh.write per CHUNK_ROWS chunk of rows."""
    for start in range(0, len(templates), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        chunk = map(str.__mod__, templates[rows].tolist(),
                    zip(*(column[rows].tolist() for column in columns)))
        fh.write((separator if start else "") + separator.join(chunk))


class Dataset:
    """Immutable collection of samples with a stable per-sample index."""

    def __init__(self, features, labels, num_classes: int, id: str):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        labs = np.asarray(labels)
        if labs.size and labs.dtype.kind not in "iu":  # bool is kind "b"
            raise InvalidInputError(f"labels must be integers, got dtype {labs.dtype}")
        labs = np.asarray(labs, dtype=np.int64)
        num_classes = require_int("num_classes", num_classes, 2)
        if not isinstance(id, str):
            raise InvalidInputError(f"dataset id must be a string, got {id!r}")
        if feats.ndim != 2:
            raise InvalidInputError(f"features must be 2-d, got shape {feats.shape}")
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise InvalidInputError("labels must be a vector matching the sample count")
        if not np.all(np.isfinite(feats)):
            raise InvalidInputError("features contain non-finite entries")
        if labs.size and (labs.min() < 0 or labs.max() >= num_classes):
            raise InvalidInputError("labels must lie in [0, num_classes)")
        feats.setflags(write=False)
        labs.setflags(write=False)
        self.features = feats
        self.labels = labs
        self.num_classes = num_classes
        self.id = id

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def all_indices(self) -> np.ndarray:
        return np.arange(len(self))

    def digest(self) -> str:
        """Content hash over features, labels, and class count."""
        h = hashlib.sha256()
        h.update(struct.pack("<qqq", len(self), self.feature_dim, self.num_classes))
        h.update(self.features.tobytes())
        h.update(self.labels.tobytes())
        return h.hexdigest()


def materialize(indices: np.ndarray, parent: Dataset) -> Dataset:
    """Copy out the rows of parent at indices, in index order."""
    return Dataset(
        features=parent.features[indices],
        labels=parent.labels[indices],
        num_classes=parent.num_classes,
        id=f"{parent.id}[{len(indices)}]",
    )


def generate_blobs(
    num_classes: int,
    per_class: int,
    dim: int = 2,
    spread: float = 1.0,
    overlap: float = 0.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian clusters with a tunable ambiguous fraction.

    Cluster centres sit on a circle (a line for dim=1) whose spacing
    shrinks linearly as overlap grows from 0 to 1, so higher overlap puts
    more samples in regions where classes mix.  Class k fills per_class
    consecutive rows: centre k plus spread times those rows of one
    standard-normal draw in row order, deterministic in seed.
    """
    num_classes = require_int("num_classes", num_classes, 2)
    per_class = require_int("per_class", per_class, 1)
    dim = require_int("dim", dim, 1)
    spread = require_float("spread", spread)
    overlap = require_float("overlap", overlap)
    seed = require_int("seed", seed, 0)
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

    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    features = spread * np.random.default_rng(seed).standard_normal((num_classes, per_class, dim))
    features += centers[:, None, :]
    return Dataset(
        features=features.reshape(len(labels), dim),
        labels=labels,
        num_classes=num_classes,
        id=f"blobs-k{num_classes}-n{per_class}-d{dim}-o{overlap:g}-s{seed}",
    )


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Load a dataset from CSV: feature columns then a final "label" column.

    num_classes declares the label range; when omitted it is inferred as
    max(label) + 1.  The data rows are parsed in one np.loadtxt pass, whose
    table is used only when it is exactly what the row loop would return;
    otherwise the row loop reads them and raises DatasetParseError naming
    the first faulty line.  The csv module's field limit (131,072
    characters) binds the row loop only: an over-long cell that is a plain
    number loads, one the np.loadtxt pass refuses is a parse error.
    """
    path = Path(path)
    num_classes = None if num_classes is None else require_int("num_classes", num_classes, 2)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetParseError(f"{path}: empty file") from None
            if not header or header[-1].strip() != "label":
                raise DatasetParseError(f"{path}: last header column must be 'label'")
            if len(header) < 2:
                raise DatasetParseError(f"{path}: no feature columns")
            table = _parse_table(path, len(header) - 1, reader.line_num, num_classes)
            features, labels = table or _parse_rows(reader, path, header, num_classes)
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DatasetParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return Dataset(
        features=features,
        labels=labels,
        num_classes=_class_count(labels, num_classes),
        id=path.stem,
    )


def _class_count(labels: np.ndarray, declared: int | None) -> int:
    """A loaded dataset's class count: declared (which the loader checked
    is >= 2 before reading any file), else max(label) + 1 raised to 2."""
    return declared if declared is not None else max(int(labels.max()) + 1, 2)


def _parse_table(path: Path, dim: int, header_lines: int,
                 num_classes: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The data rows parsed in one np.loadtxt call, or None unless they are
    exactly what _parse_rows would return."""
    raw = path.read_bytes()
    header = re.match(rb"(?:[^\r\n]*(?:\r\n|\r|\n)){%d}" % header_lines, raw)
    if header is None or raw[header.end():].translate(None, _TABLE_BYTES):
        return None
    with warnings.catch_warnings():
        # Any warning means the table is not to be trusted: numpy 1.2x reads
        # a "1.0" label as 1 with only a DeprecationWarning, and an input
        # with no data rows warns too.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=header_lines, comments=None,
                               encoding="utf-8", ndmin=1,
                               dtype=[("f", np.float64, (dim,)), ("y", np.int64)])
        except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
            return None
    features, labels = table["f"], np.ascontiguousarray(table["y"])
    if not (np.isfinite(features).all() and labels.min() >= 0
            and (num_classes is None or labels.max() < num_classes)):
        return None
    return features, labels


def _parse_rows(reader, path: Path, header: list[str],
                num_classes: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The reference parser: the rows left in reader, one at a time,
    raising DatasetParseError at the first faulty line."""
    dim = len(header) - 1
    feats: list[list[float]] = []
    labels: list[int] = []
    for row in reader:
        if not row:
            continue
        if len(row) != dim + 1:
            raise DatasetParseError(f"{path}: line {reader.line_num}: "
                                    f"expected {dim + 1} fields, got {len(row)}")
        try:
            values = [float(v) for v in row[:dim]]
            label = int(row[dim])
        except ValueError as exc:
            raise DatasetParseError(f"{path}: line {reader.line_num}: {exc}") from None
        if label < 0:
            raise DatasetParseError(f"{path}: line {reader.line_num}: negative label {label}")
        if num_classes is not None and label >= num_classes:
            raise DatasetParseError(f"{path}: line {reader.line_num}: "
                                    f"label {label} >= num_classes {num_classes}")
        if label > _MAX_LABEL:
            raise DatasetParseError(f"{path}: line {reader.line_num}: "
                                    f"label {label} > {_MAX_LABEL}")
        for name, value in zip(header, values):
            if not math.isfinite(value):
                raise DatasetParseError(f"{path}: line {reader.line_num}: "
                                        f"non-finite feature {value} in column {name!r}")
        feats.append(values)
        labels.append(label)
    if not labels:
        raise DatasetParseError(f"{path}: no data rows")
    return np.asarray(feats), np.asarray(labels, dtype=np.int64)


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the CSV format load_csv reads back: a header
    f0..f{M-1},label, then, streamed by write_rows, per sample the repr of
    each feature and the label, with \\r\\n row ends, as csv.writer would."""
    dim = dataset.feature_dim
    template = ",".join(["%r"] * dim + ["%d"]) + "\r\n"
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"f{i}" for i in range(dim)] + ["label"]) + "\r\n")
        write_rows(fh, np.full(len(dataset), template, dtype=object),
                   (*dataset.features.T, dataset.labels))


def _read_idx(path, expected_magic: int, expected_dims: int) -> tuple[np.ndarray, tuple[int, ...]]:
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rb") as fh:
            raw = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DatasetParseError(f"{path}: bad gzip stream: {exc}") from None
    if len(raw) < 4 * (1 + expected_dims):
        raise DatasetParseError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise DatasetParseError(
            f"{path}: bad IDX magic 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{expected_dims}I", raw[4 : 4 + 4 * expected_dims])
    offset = 4 + 4 * expected_dims
    count = math.prod(dims)  # a Python int: np.prod would wrap at 2**64
    body = np.frombuffer(raw, dtype=np.uint8, offset=offset)
    if body.size != count:
        raise DatasetParseError(
            f"{path}: payload holds {body.size} bytes, header promises {count}"
        )
    return body, dims


def load_idx(images, labels, num_classes: int | None = None) -> Dataset:
    """Load an IDX ubyte image/label pair (the paths images and labels);
    pixels scaled to [0, 1].  No images, or images of 0 rows or 0 columns,
    is a parse error."""
    num_classes = None if num_classes is None else require_int("num_classes", num_classes, 2)
    pixels, (n_images, rows, cols) = _read_idx(images, IDX_IMAGE_MAGIC, 3)
    raw_labels, (n_labels,) = _read_idx(labels, IDX_LABEL_MAGIC, 1)
    if n_images != n_labels:
        raise DatasetParseError(
            f"{labels}: {n_labels} labels for {n_images} images"
        )
    if n_images == 0:
        raise DatasetParseError(f"{images}: no images")
    if rows == 0 or cols == 0:
        raise DatasetParseError(f"{images}: images of {rows} x {cols} pixels")
    features = pixels.reshape(n_images, rows * cols).astype(np.float64) / 255.0
    labs = raw_labels.astype(np.int64)
    if num_classes is not None and labs.max() >= num_classes:
        record = int(np.argmax(labs >= num_classes))
        raise DatasetParseError(f"{labels}: record {record}: label {labs[record]} "
                                f">= num_classes {num_classes}")
    return Dataset(
        features=features,
        labels=labs,
        num_classes=_class_count(labs, num_classes),
        id=Path(images).stem,
    )
