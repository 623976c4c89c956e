from __future__ import annotations

import gzip
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conf_ensemble import (
    Dataset,
    DatasetParseError,
    InvalidInputError,
    InvalidViewError,
    SubsetView,
    generate_blobs,
    load_csv,
    load_idx,
    materialize,
    save_csv,
)


class TestGenerateBlobs:
    def test_size_and_shape(self):
        data = generate_blobs(num_classes=3, per_class=100, dim=2, spread=1.0,
                              overlap=0.0, seed=0)
        assert len(data) == 300
        assert data.feature_dim == 2
        assert data.num_classes == 3

    def test_deterministic(self):
        kwargs = dict(num_classes=3, per_class=50, dim=3, spread=1.0, overlap=0.4, seed=9)
        a = generate_blobs(**kwargs)
        b = generate_blobs(**kwargs)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.digest() == b.digest()

    def test_overlap_shrinks_spacing(self):
        tight = generate_blobs(num_classes=2, per_class=50, dim=2, spread=1.0,
                               overlap=0.9, seed=1)
        wide = generate_blobs(num_classes=2, per_class=50, dim=2, spread=1.0,
                              overlap=0.0, seed=1)

        def center_gap(data):
            c0 = data.features[data.labels == 0].mean(axis=0)
            c1 = data.features[data.labels == 1].mean(axis=0)
            return np.linalg.norm(c0 - c1)

        assert center_gap(tight) < center_gap(wide)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=1, per_class=10, dim=2, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=2, per_class=0, dim=2, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=2, per_class=10, dim=0, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=2, per_class=10, dim=2, spread=0.0, overlap=0.0, seed=0),
            dict(num_classes=2, per_class=10, dim=2, spread=1.0, overlap=1.5, seed=0),
            # non-integers are rejected, not truncated or read as 0/1
            dict(num_classes=3, per_class=2.5, dim=2, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=3, per_class=2, dim=2.9, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=3, per_class="4", dim=2, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=0.0, seed=2.7),
            dict(num_classes=3.0, per_class=2, dim=2, spread=1.0, overlap=0.0, seed=0),
            dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=True, seed=0),
            dict(num_classes=3, per_class=2, dim=2, spread="1", overlap=0.0, seed=0),
            dict(num_classes=3, per_class=2, dim=2, spread=float("inf"), overlap=0.0, seed=0),
            dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=float("nan"), seed=0),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidInputError):
            generate_blobs(**kwargs)

    def test_one_dimensional_supported(self):
        data = generate_blobs(num_classes=4, per_class=10, dim=1, spread=0.5,
                              overlap=0.0, seed=3)
        assert data.feature_dim == 1


class TestCsv:
    def test_load_small_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
        data = load_csv(path)
        assert len(data) == 3
        assert data.feature_dim == 2
        assert data.num_classes == 2
        assert np.array_equal(data.labels, [0, 1, 1])
        assert data.features[1][0] == -1.0

    def test_round_trip(self, tmp_path):
        original = generate_blobs(num_classes=3, per_class=20, dim=4, spread=1.0,
                                  overlap=0.3, seed=5)
        path = tmp_path / "blobs.csv"
        save_csv(original, path)
        loaded = load_csv(path, num_classes=3)
        assert np.array_equal(loaded.features, original.features)
        assert np.array_equal(loaded.labels, original.labels)

    def test_missing_label_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,target\n1,2,0\n")
        with pytest.raises(DatasetParseError):
            load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load_csv(path)

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,0\n")
        with pytest.raises(DatasetParseError, match="line 2"):
            load_csv(path)

    def test_label_beyond_declared_classes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,5\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load_csv(path, num_classes=3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError):
            load_csv(path)


def write_idx_images(path, images: np.ndarray, magic=0x00000803, compress=False):
    n, rows, cols = images.shape
    payload = struct.pack(">IIII", magic, n, rows, cols) + images.astype(np.uint8).tobytes()
    if compress:
        path.write_bytes(gzip.compress(payload))
    else:
        path.write_bytes(payload)


def write_idx_labels(path, labels: np.ndarray, magic=0x00000801):
    payload = struct.pack(">II", magic, labels.shape[0]) + labels.astype(np.uint8).tobytes()
    path.write_bytes(payload)


class TestIdx:
    def test_load_images_and_labels(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10, dtype=np.uint8)
        write_idx_images(tmp_path / "img.idx", images)
        write_idx_labels(tmp_path / "lab.idx", labels)
        data = load_idx(tmp_path / "img.idx", tmp_path / "lab.idx", num_classes=10)
        assert len(data) == 10
        assert data.feature_dim == 784
        assert data.features.min() >= 0.0 and data.features.max() <= 1.0
        assert data.features[0][0] == images[0, 0, 0] / 255.0
        assert np.array_equal(data.labels, labels)

    def test_gzip_transparent(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        labels = np.array([0, 1, 1], dtype=np.uint8)
        write_idx_images(tmp_path / "img.idx.gz", images, compress=True)
        write_idx_labels(tmp_path / "lab.idx", labels)
        data = load_idx(tmp_path / "img.idx.gz", tmp_path / "lab.idx")
        assert len(data) == 3

    def test_label_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((4, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(3, dtype=np.uint8))
        with pytest.raises(DatasetParseError):
            load_idx(tmp_path / "img.idx", tmp_path / "lab.idx", num_classes=2)

    def test_bad_magic(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((2, 2, 2), dtype=np.uint8),
                         magic=0x00000901)
        write_idx_labels(tmp_path / "lab.idx", np.zeros(2, dtype=np.uint8))
        with pytest.raises(DatasetParseError, match="magic"):
            load_idx(tmp_path / "img.idx", tmp_path / "lab.idx", num_classes=2)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "img.idx"
        payload = struct.pack(">IIII", 0x00000803, 5, 28, 28) + b"\x00" * 100
        path.write_bytes(payload)
        write_idx_labels(tmp_path / "lab.idx", np.zeros(5, dtype=np.uint8))
        with pytest.raises(DatasetParseError):
            load_idx(path, tmp_path / "lab.idx", num_classes=2)


class TestMaterialize:
    @pytest.fixture
    def parent(self):
        return generate_blobs(num_classes=2, per_class=5, dim=2, spread=1.0,
                              overlap=0.0, seed=2)

    def test_full_view_copies_parent(self, parent):
        out = materialize(parent.all_indices(), parent)
        assert np.array_equal(out.features, parent.features)
        assert np.array_equal(out.labels, parent.labels)

    def test_empty_view(self, parent):
        out = materialize(SubsetView(parent_id=parent.id, indices=()), parent)
        assert len(out) == 0
        assert out.feature_dim == parent.feature_dim

    def test_preserves_order(self, parent):
        out = materialize(SubsetView(parent_id=parent.id, indices=(0, 2)), parent)
        assert len(out) == 2
        assert np.array_equal(out.features[0], parent.features[0])
        assert np.array_equal(out.features[1], parent.features[2])

    def test_stale_parent_rejected(self, parent):
        view = SubsetView(parent_id="something-else", indices=(0,))
        with pytest.raises(InvalidViewError):
            materialize(view, parent)

    def test_out_of_range_rejected(self, parent):
        view = SubsetView(parent_id=parent.id, indices=(0, 99))
        with pytest.raises(InvalidViewError):
            materialize(view, parent)

    def test_indices_must_increase(self):
        with pytest.raises(InvalidInputError):
            SubsetView(parent_id="x", indices=(3, 1))
        with pytest.raises(InvalidInputError):
            SubsetView(parent_id="x", indices=(1, 1))
        with pytest.raises(InvalidInputError):
            SubsetView(parent_id="x", indices=(-1, 0))

    @pytest.mark.parametrize("indices", [(0.5, 1.9, 3.2), [[0, 1]], 3])
    def test_indices_must_be_an_integer_vector(self, indices):
        with pytest.raises(InvalidInputError):
            SubsetView(parent_id="x", indices=indices)

    @given(st.sets(st.integers(min_value=0, max_value=9)))
    def test_materialized_rows_match_parent(self, index_set):
        parent = generate_blobs(num_classes=2, per_class=5, dim=2, spread=1.0,
                                overlap=0.0, seed=2)
        indices = tuple(sorted(index_set))
        out = materialize(SubsetView(parent_id=parent.id, indices=indices), parent)
        for k, i in enumerate(indices):
            assert np.array_equal(out.features[k], parent.features[i])
            assert out.labels[k] == parent.labels[i]


class TestDatasetValidation:
    def test_rejects_non_finite_features(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[np.nan, 1.0]]), np.array([0]), num_classes=2, id="x")

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[1.0, 1.0]]), np.array([2]), num_classes=2, id="x")

    def test_features_are_read_only(self):
        data = generate_blobs(num_classes=2, per_class=3, dim=2, spread=1.0,
                              overlap=0.0, seed=0)
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
