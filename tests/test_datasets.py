from __future__ import annotations

import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conf_ensemble import (
    Dataset,
    DatasetParseError,
    InvalidInputError,
    generate_blobs,
    load_csv,
    load_idx,
    save_csv,
)
from conf_ensemble import datasets
from conf_ensemble.datasets import CHUNK_ROWS, materialize

from conftest import (
    idx_files,
    write_bad_gzip_images,
    write_idx_images,
    write_idx_labels,
    write_overflowing_idx_images,
)
from oracles import dataset_csv_text, reference_blobs


@st.composite
def well_formed_csv(draw):
    """CSV text load_csv must accept, with its declared class count or None:
    widths 1-6, LF, CRLF or CR line ends, blank lines, whitespace around
    cells, float literals in several forms and +-signed labels."""
    dim = draw(st.integers(1, 6))
    classes = draw(st.integers(2, 5))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    pad = st.sampled_from(["", " ", "\t", "  "])
    value = st.floats(-1e300, 1e300)  # finite in every form below
    forms = st.sampled_from(["{!r}", "{:.3e}", "{:g}", "{:+.17g}", "{:f}"])
    lines = [",".join([f"f{i}" for i in range(dim)] + ["label"])]
    for _ in range(draw(st.integers(1, 8))):
        cells = [draw(forms).format(draw(value)) for _ in range(dim)]
        label = draw(st.integers(0, classes - 1))
        cells.append(draw(st.sampled_from(["{}", "+{}"])).format(label))
        lines.append(",".join(draw(pad) + cell + draw(pad) for cell in cells))
        lines.extend([""] * draw(st.integers(0, 2)))
    return end.join(lines) + end, draw(st.sampled_from([None, classes]))


@st.composite
def damaged_csv(draw):
    """A well-formed CSV with any one character inserted anywhere."""
    content, num_classes = draw(well_formed_csv())
    at = draw(st.integers(0, len(content)))
    return content[:at] + draw(st.characters(codec="utf-8")) + content[at:], num_classes


def csv_outcome(path, num_classes):
    """The loaded dataset's digest, or the DatasetParseError message."""
    try:
        return load_csv(path, num_classes=num_classes).digest()
    except DatasetParseError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "data.csv"


_BAD_BLOBS = [
    (dict(num_classes=1, per_class=10, dim=2, spread=1.0, overlap=0.0, seed=0),
     "num_classes must be >= 2, got 1"),
    (dict(num_classes=2, per_class=0, dim=2, spread=1.0, overlap=0.0, seed=0),
     "per_class must be >= 1, got 0"),
    (dict(num_classes=2, per_class=10, dim=0, spread=1.0, overlap=0.0, seed=0),
     "dim must be >= 1, got 0"),
    (dict(num_classes=2, per_class=10, dim=2, spread=0.0, overlap=0.0, seed=0),
     "spread must be > 0, got 0.0"),
    (dict(num_classes=2, per_class=10, dim=2, spread=1.0, overlap=1.5, seed=0),
     "overlap must be in [0, 1], got 1.5"),
    # non-integers are rejected, not truncated or read as 0/1
    (dict(num_classes=3, per_class=2.5, dim=2, spread=1.0, overlap=0.0, seed=0),
     "per_class must be an integer, got 2.5"),
    (dict(num_classes=3, per_class=2, dim=2.9, spread=1.0, overlap=0.0, seed=0),
     "dim must be an integer, got 2.9"),
    (dict(num_classes=3, per_class="4", dim=2, spread=1.0, overlap=0.0, seed=0),
     "per_class must be an integer, got '4'"),
    (dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=0.0, seed=2.7),
     "seed must be an integer, got 2.7"),
    (dict(num_classes=3.0, per_class=2, dim=2, spread=1.0, overlap=0.0, seed=0),
     "num_classes must be an integer, got 3.0"),
    (dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=True, seed=0),
     "overlap must be a finite number, got True"),
    (dict(num_classes=3, per_class=2, dim=2, spread="1", overlap=0.0, seed=0),
     "spread must be a finite number, got '1'"),
    (dict(num_classes=3, per_class=2, dim=2, spread=float("inf"), overlap=0.0, seed=0),
     "spread must be a finite number, got inf"),
    (dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=float("nan"), seed=0),
     "overlap must be a finite number, got nan"),
    (dict(num_classes=3, per_class=2, dim=2, spread=1.0, overlap=0.0, seed=-1),
     "seed must be >= 0, got -1"),
]


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

    # ids name the kwargs column only, as pytest would for it alone
    @pytest.mark.parametrize("kwargs, message", _BAD_BLOBS,
                             ids=[f"kwargs{i}" for i in range(len(_BAD_BLOBS))])
    def test_invalid_parameters(self, kwargs, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            generate_blobs(**kwargs)

    def test_one_dimensional_supported(self):
        data = generate_blobs(num_classes=4, per_class=10, dim=1, spread=0.5,
                              overlap=0.0, seed=3)
        assert data.feature_dim == 1

    @settings(max_examples=40, deadline=None)
    @given(num_classes=st.integers(2, 6), per_class=st.integers(1, 60), dim=st.integers(1, 5),
           spread=st.floats(1e-3, 1e3), overlap=st.floats(0.0, 1.0),
           seed=st.integers(min_value=0))
    def test_one_draw_matches_the_per_class_oracle(self, num_classes, per_class, dim, spread,
                                                   overlap, seed):
        data = generate_blobs(num_classes=num_classes, per_class=per_class, dim=dim,
                              spread=spread, overlap=overlap, seed=seed)
        features, labels = reference_blobs(num_classes, per_class, dim, spread, overlap, seed)
        for got, want in ((data.features, features), (data.labels, labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_save_csv_matches_the_oracle(self, tmp_path, n, dim):
        # save_csv formats chunks of rows from one template; the oracle
        # writes one csv.writer row per sample.  Magnitudes from 1e-20 to
        # 1e20, integral values and -0.0 cover every float repr form.
        rng = np.random.default_rng(10 * n + dim)
        features = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-20, 21, (n, dim))
        features[rng.random((n, dim)) < 0.05] = -0.0
        features[rng.random((n, dim)) < 0.05] = 3.0
        data = Dataset(features, rng.integers(0, 12, size=n), num_classes=12, id="wide")
        save_csv(data, tmp_path / "data.csv")
        assert (tmp_path / "data.csv").read_bytes() == dataset_csv_text(data).encode("utf-8")

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

    def test_line_numbers_count_lines_not_records(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text('f0,label\n"1.5\n",0\n\n1.0,oops\n')
        with pytest.raises(DatasetParseError, match=f"^{re.escape(str(path))}: line 5: "):
            load_csv(path)

    def test_label_beyond_declared_classes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,5\n")
        with pytest.raises(DatasetParseError, match="line 3"):
            load_csv(path, num_classes=3)

    def test_declared_class_count_below_two_is_rejected(self, tmp_path):
        # A declared count passes through unchanged; only an inferred one
        # (every label 0) is raised to 2.
        path = tmp_path / "zeros.csv"
        path.write_text("f0,label\n1.0,0\n2.0,0\n")
        with pytest.raises(InvalidInputError, match=r"^num_classes must be >= 2, got 1$"):
            load_csv(path, num_classes=1)
        assert load_csv(path).num_classes == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetParseError):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, line, cell",
        [
            ("f0,f1,label\n1.0,2.0,0\n1.0,nan,1\n", 3, "nan in column 'f1'"),
            ("f0,f1,label\n\n1.0,2.0,0\n\n\n-inf,2.0,1\n", 6, "-inf in column 'f0'"),
            ("f0,f1,label\n\n1.0,1e999,0\n\n2.0,nan,1\n", 3, "inf in column 'f1'"),
            ('f0,label\n"1.5\n",0\n2.0,0\nnan,1\n', 5, "nan in column 'f0'"),
        ],
        ids=["nan", "after-blank-lines", "overflow", "after-quoted-newline"],
    )
    def test_non_finite_feature_names_line(self, tmp_path, text, line, cell):
        # Blank lines are skipped but still counted in the line number, and
        # so is each line of a quoted cell that spans lines.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        message = f"{path}: line {line}: non-finite feature {cell}"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_csv(path)

    def test_first_faulty_line_wins(self, tmp_path):
        # A non-finite feature is found on its own line, not after every
        # row has been read, so the bad label on line 5 is never reached.
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,nan,1\n1.0,2.0,1\n1.0,2.0,7\n")
        message = f"{path}: line 3: non-finite feature nan in column 'f1'"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_csv(path, num_classes=3)

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n2.0,99999999999999999999\n")
        message = f"{path}: line 3: label 99999999999999999999 > {2**63 - 1}"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_csv(path)

    def test_cell_beyond_the_csv_field_limit_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\n" + "x" * 200_000 + ",1\n")
        message = f"{path}: line 3: field larger than field limit (131072)"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_csv(path)

    def test_long_numeric_cell_loads(self, tmp_path):
        # The field limit is the csv module's: the one-pass parse has none.
        path = tmp_path / "long.csv"
        path.write_text("f0,label\n0.5" + "0" * 200_000 + ",1\n")
        data = load_csv(path)
        assert data.features.tolist() == [[0.5]]
        assert data.labels.tolist() == [1]

    @pytest.mark.parametrize(
        "content, num_classes, expected",
        [
            ("f0,f1,label\n1.0,nan,0\n", None,
             "line 2: non-finite feature nan in column 'f1'"),
            ("f0,f1,label\ninf,2.0,0\n", None,
             "line 2: non-finite feature inf in column 'f0'"),
            ("f0,f1,label\n1.0,1e400,0\n", None,
             "line 2: non-finite feature inf in column 'f1'"),
            ("f0,f1,label\n1.0,-Infinity,0\n", None,
             "line 2: non-finite feature -inf in column 'f1'"),
            ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,-1\n", None, "line 3: negative label -1"),
            ("f0,f1,label\n1.0,2.0,0\n1.0,2.0,2\n", 2, "line 3: label 2 >= num_classes 2"),
            ("f0,f1,label\n", None, "no data rows"),
            ("f0,f1,label\r\n", None, "no data rows"),
            ("f0,f1,label\n1.0,2.0,0\n   \n", None, "line 3: expected 3 fields, got 1"),
            ("f0,f1,label\n# c\n1.0,2.0,0\n", None, "line 2: expected 3 fields, got 1"),
            ("f0,f1,label\n1.5#x,2.0,0\n", None,
             "line 2: could not convert string to float: '1.5#x'"),
            ("f0,f1,label\n1.5,2.0,0#x\n", None,
             "line 2: invalid literal for int() with base 10: '0#x'"),
            ("f0,f1,label\n1.5,2.0,1.0\n", None,
             "line 2: invalid literal for int() with base 10: '1.0'"),
            ("f0,f1,label\n1.0,2.0\x1c,1\n", None,
             "line 2: could not convert string to float: '2.0\\x1c'"),
            ("f0,f1,label\n1.0,2.0,1ロ\n", None,
             "line 2: invalid literal for int() with base 10: '1ロ'"),
            ("f0,f1,label\n1_0,2.0,1\n", None, ([[10.0, 2.0]], [1])),
            ("f0,f1,label\n\u0661,2.0,\u0661\n", None, ([[1.0, 2.0]], [1])),
            ('f0,f1,label\n"1.5",2.0,"1"\n', None, ([[1.5, 2.0]], [1])),
            ('f0,f1,label\n"1.5\n",2.0,1\n3.0,4.0,0\n', None, ([[1.5, 2.0], [3.0, 4.0]], [1, 0])),
            ('"f0\n",f1,label\n1.5,2.0,1\n', None, ([[1.5, 2.0]], [1])),
            ("f0,f1,label\n1.0,0\n", None, "line 2: expected 3 fields, got 2"),
            ("f0,f1,label\n1.0,2.0,0,\n", None, "line 2: expected 3 fields, got 4"),
            (b"f0,f1,label\n1.0,2.0,\xff\n", None,
             "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 20: "
             "invalid start byte"),
            ("\ufefff0,f1,label\n1.0,2.0,1\n", None, ([[1.0, 2.0]], [1])),
            ("label\n1\n", None, "no feature columns"),
        ],
        ids=["nan", "inf", "1e400", "Infinity", "negative-label", "label-beyond-classes",
             "header-only", "header-only-crlf", "whitespace-line", "comment-line",
             "hash-in-feature", "hash-in-label", "float-label", "control-character",
             "non-ascii-suffix", "underscore", "unicode-digits",
             "quoted-cells", "quoted-newline", "quoted-header-newline", "ragged",
             "trailing-comma", "not-utf8", "bom", "label-only"],
    )
    def test_edge_cases(self, tmp_path, content, num_classes, expected):
        """Each file loads to the values, or fails with the message, that the
        row loop gives, whichever parse reads it."""
        path = tmp_path / "edge.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8", newline="")
        if isinstance(expected, str):
            message = f"{path}: {expected}"
            with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
                load_csv(path, num_classes=num_classes)
        else:
            data = load_csv(path, num_classes=num_classes)
            assert (data.features.tolist(), data.labels.tolist()) == expected

    def test_round_trip_takes_the_one_pass_parse(self, tmp_path):
        original = generate_blobs(num_classes=3, per_class=20, dim=4, spread=1.0,
                                  overlap=0.3, seed=5)
        path = tmp_path / "blobs.csv"
        save_csv(original, path)
        with mock.patch.object(datasets, "_parse_rows", side_effect=AssertionError):
            loaded = load_csv(path, num_classes=3)
        assert loaded.digest() == original.digest()

    @settings(max_examples=60, deadline=None)
    @given(well_formed_csv())
    def test_one_pass_parse_matches_the_row_loop(self, csv_path, case):
        content, num_classes = case
        csv_path.write_text(content, encoding="utf-8", newline="")
        with mock.patch.object(datasets, "_parse_rows", side_effect=AssertionError):
            fast = load_csv(csv_path, num_classes=num_classes)
        with mock.patch.object(datasets, "_parse_table", return_value=None):
            rows = load_csv(csv_path, num_classes=num_classes)
        assert fast.digest() == rows.digest()

    @settings(max_examples=100, deadline=None)
    @given(damaged_csv())
    def test_one_pass_parse_never_changes_the_outcome(self, csv_path, case):
        # Whatever a cell holds, load_csv loads what the row loop loads, or
        # fails with its message.
        content, num_classes = case
        csv_path.write_text(content, encoding="utf-8", newline="")
        with mock.patch.object(datasets, "_parse_table", return_value=None):
            rows = csv_outcome(csv_path, num_classes)
        assert csv_outcome(csv_path, num_classes) == rows


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

    @pytest.mark.parametrize("fault", ["truncated", "corrupt", "not-gzip"])
    def test_bad_gzip_stream_names_the_file(self, tmp_path, fault):
        path = tmp_path / "img.idx.gz"
        write_bad_gzip_images(path, fault)
        write_idx_labels(tmp_path / "lab.idx", np.zeros(3, dtype=np.uint8))
        with pytest.raises(DatasetParseError, match=f"^{re.escape(f'{path}: bad gzip stream: ')}"):
            load_idx(path, tmp_path / "lab.idx", num_classes=2)

    def test_label_beyond_declared_classes_names_the_record(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.array([0, 2, 1], dtype=np.uint8))
        message = f"{tmp_path / 'lab.idx'}: record 1: label 2 >= num_classes 2"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_idx(tmp_path / "img.idx", tmp_path / "lab.idx", num_classes=2)

    def test_declared_class_count_below_two_is_rejected(self, tmp_path):
        write_idx_images(tmp_path / "img.idx", np.zeros((3, 2, 2), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(3, dtype=np.uint8))
        with pytest.raises(InvalidInputError, match=r"^num_classes must be >= 2, got 1$"):
            load_idx(tmp_path / "img.idx", tmp_path / "lab.idx", num_classes=1)
        assert load_idx(tmp_path / "img.idx", tmp_path / "lab.idx").num_classes == 2

    def test_header_size_beyond_int64_names_the_file(self, tmp_path):
        # 2**16 * 2**24 * 2**24 = 2**64 bytes, which an int64 product wraps
        # to 0; one label per image, so the count check passes.
        path = tmp_path / "img.idx.gz"
        write_overflowing_idx_images(path)
        write_idx_labels(tmp_path / "lab.idx", np.zeros(2**16, dtype=np.uint8))
        message = f"{path}: payload holds 0 bytes, header promises {2**64}"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_idx(path, tmp_path / "lab.idx", num_classes=2)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_images_without_pixels_name_the_file(self, tmp_path, rows, cols):
        path = tmp_path / "img.idx"
        write_idx_images(path, np.zeros((30, rows, cols), dtype=np.uint8))
        write_idx_labels(tmp_path / "lab.idx", np.zeros(30, dtype=np.uint8))
        message = f"{path}: images of {rows} x {cols} pixels"
        with pytest.raises(DatasetParseError, match=f"^{re.escape(message)}$"):
            load_idx(path, tmp_path / "lab.idx")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "img.idx"
        payload = struct.pack(">IIII", 0x00000803, 5, 28, 28) + b"\x00" * 100
        path.write_bytes(payload)
        write_idx_labels(tmp_path / "lab.idx", np.zeros(5, dtype=np.uint8))
        with pytest.raises(DatasetParseError):
            load_idx(path, tmp_path / "lab.idx", num_classes=2)


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx-property")


class TestIdxProperty:
    @settings(max_examples=100, deadline=None)
    @given(files=idx_files(), num_classes=st.none() | st.integers(1, 12))
    def test_loads_or_raises_a_data_error(self, idx_dir, files, num_classes):
        paths = []
        for name, (content, suffix) in zip(("img.idx", "lab.idx"), files):
            paths.append(idx_dir / (name + suffix))
            paths[-1].write_bytes(content)
        try:
            data = load_idx(*paths, num_classes=num_classes)
        except DatasetParseError:
            return
        except InvalidInputError as exc:  # a declared count of 1, before any file is read
            assert num_classes == 1 and str(exc) == "num_classes must be >= 2, got 1"
            return
        assert len(data) > 0 and data.feature_dim > 0
        assert np.all((data.features >= 0.0) & (data.features <= 1.0))


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
        out = materialize(np.empty(0, dtype=np.int64), parent)
        assert len(out) == 0
        assert out.feature_dim == parent.feature_dim

    def test_preserves_order(self, parent):
        out = materialize(np.array([0, 2]), parent)
        assert len(out) == 2
        assert np.array_equal(out.features[0], parent.features[0])
        assert np.array_equal(out.features[1], parent.features[2])

    @given(st.sets(st.integers(min_value=0, max_value=9)))
    def test_materialized_rows_match_parent(self, index_set):
        parent = generate_blobs(num_classes=2, per_class=5, dim=2, spread=1.0,
                                overlap=0.0, seed=2)
        indices = np.array(sorted(index_set), dtype=np.int64)
        out = materialize(indices, parent)
        for k, i in enumerate(indices.tolist()):
            assert np.array_equal(out.features[k], parent.features[i])
            assert out.labels[k] == parent.labels[i]


class TestDatasetValidation:
    def test_rejects_non_finite_features(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[np.nan, 1.0]]), np.array([0]), num_classes=2, id="x")

    def test_rejects_label_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[1.0, 1.0]]), np.array([2]), num_classes=2, id="x")

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 1.0], [0.0, 1.0, 1.0], [True, False, True]])
    def test_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(InvalidInputError, match="^labels must be integers, got dtype "):
            Dataset(np.zeros((3, 2)), labels, num_classes=2, id="x")

    @pytest.mark.parametrize("num_classes", [2.9, 2.0, "3", True])
    def test_rejects_a_class_count_that_is_not_an_integer(self, num_classes):
        with pytest.raises(InvalidInputError, match="^num_classes must be an integer, got "):
            Dataset(np.zeros((3, 2)), [0, 1, 1], num_classes=num_classes, id="x")

    @pytest.mark.parametrize("id", [5, None, ["x"]])
    def test_rejects_an_id_that_is_not_a_string(self, id):
        # the id becomes a manifest's dataset_id, which must be a string
        with pytest.raises(InvalidInputError, match="^dataset id must be a string, got "):
            Dataset(np.zeros((3, 2)), [0, 1, 1], num_classes=2, id=id)

    def test_integer_labels_of_any_width_load_as_int64(self):
        data = Dataset(np.zeros((3, 2)), np.array([0, 1, 1], dtype=np.uint8),
                       num_classes=np.int32(2), id="x")
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [0, 1, 1]
        assert type(data.num_classes) is int

    def test_features_are_read_only(self):
        data = generate_blobs(num_classes=2, per_class=3, dim=2, spread=1.0,
                              overlap=0.0, seed=0)
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
