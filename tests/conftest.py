"""Shared fixtures: stub members with controlled outputs, the training
objective's loss pass and SGD-step gradient for a spec, the overlap-heavy
blob dataset the end-to-end tests build on, generated JSON values for the
field-mutation properties, IDX file writers and generated IDX files, a
counter of the builder's fits, and a loader for the scripts outside the
package."""

from __future__ import annotations

import gzip
import importlib.util
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from conf_ensemble import (
    ClassifierRecipe,
    ClassifierSpec,
    EnsembleManifest,
    RuntimeConfig,
    TrainConfig,
    TrainedModel,
    fit,
    generate_blobs,
    init_model,
)
from conf_ensemble import builder, classifiers

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SCRIPT = ROOT / "scripts" / "run_threshold_sweep.py"


def load_script(path: Path):
    """Import a file that is not on sys.path, as a fresh module named
    after the file."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def objective(spec, params, X, y, weight_decay) -> float:
    """The training objective at params: objective_and_gradient's
    forward-only loss pass."""
    layers = classifiers._unpack(spec, params)
    return classifiers.objective_and_gradient(params, layers, X, y, weight_decay)


def gradient(spec, params, X, y, weight_decay) -> np.ndarray:
    """The gradient an SGD step's objective_and_gradient call writes into
    its buffer at params."""
    flat = np.full_like(params, np.nan)  # every entry must be written
    layers = classifiers._unpack(spec, params)
    grad = (flat, classifiers._unpack(spec, flat))
    assert classifiers.objective_and_gradient(params, layers, X, y, weight_decay, grad) is None
    return flat


# One blob recipe used across builder/cascade/acceptance tests; seeds are
# frozen so subset sizes recorded as regression values stay stable.
BLOBS = dict(num_classes=3, per_class=1000, dim=4, spread=1.0, overlap=0.55, seed=42)
MLP_SPEC = ClassifierSpec(kind="mlp", input_dim=4, num_classes=3, hidden_units=16, seed=1)
# The same classifier as a BuildConfig's recipe; a build takes the shape from its data.
MLP_ARCH = dict(classifier=ClassifierRecipe(kind="mlp", hidden_units=16, seed=1))
TRAIN = TrainConfig(epochs=30, batch_size=64, learning_rate=0.05, weight_decay=1e-4, seed=9)


@pytest.fixture(scope="session")
def blobs3():
    return generate_blobs(**BLOBS)


@pytest.fixture(scope="session")
def trained_m0(blobs3):
    return fit(init_model(MLP_SPEC), blobs3, TRAIN)


@pytest.fixture
def fitted(monkeypatch):
    """The fits build_ensemble runs during the test, as (model, data, cfg)
    argument tuples."""
    calls = []
    real_fit = builder.fit

    def counting_fit(*args):
        calls.append(args)
        return real_fit(*args)

    monkeypatch.setattr(builder, "fit", counting_fit)
    return calls


def constant_member(
    top_class: int,
    top_logit: float,
    num_classes: int = 2,
    input_dim: int = 2,
) -> TrainedModel:
    """Linear model with zero weights: emits the same logits for any input."""
    spec = ClassifierSpec(
        kind="linear", input_dim=input_dim, num_classes=num_classes, seed=0
    )
    params = np.zeros(spec.param_count())
    params[input_dim * num_classes + top_class] = top_logit
    return TrainedModel(spec=spec, parameters=params)


def member_with_uncertainty(
    u: float,
    top_class: int = 0,
    num_classes: int = 2,
    input_dim: int = 2,
) -> TrainedModel:
    """Stub whose prediction has uncertainty ~u (exact up to float round),
    for u in (0, 0.5]."""
    assert 0.0 < u <= 0.5
    a = math.log((1.0 - u) * (num_classes - 1) / u)
    return constant_member(top_class, a, num_classes, input_dim)


def identity_member(num_classes: int) -> TrainedModel:
    """Linear model whose logits equal its input features."""
    spec = ClassifierSpec(
        kind="linear", input_dim=num_classes, num_classes=num_classes, seed=0
    )
    params = np.zeros(spec.param_count())
    w = params[: num_classes * num_classes].reshape(num_classes, num_classes)
    np.fill_diagonal(w, 1.0)
    return TrainedModel(spec=spec, parameters=params)


def logits_for_uncertainty(u: float, top_class: int = 0, num_classes: int = 2) -> list[float]:
    """Feature row that makes identity_member predict with uncertainty ~u."""
    assert 0.0 < u <= 0.5
    row = [0.0] * num_classes
    row[top_class] = math.log((1.0 - u) * (num_classes - 1) / u)
    return row


def stub_manifest(
    members,
    runtime: RuntimeConfig | None = None,
    selection_rule: str = "nested",
) -> EnsembleManifest:
    members = tuple(members)
    return EnsembleManifest(
        members=members,
        selection_rule=selection_rule,
        training_thresholds=(0.1,) * (len(members) - 1),
        default_runtime=runtime or RuntimeConfig.for_members((0.2,), len(members)),
        dataset_id="stub",
        dataset_digest="stub",
    )


def json_leaves(node, path=()):
    """Paths to every scalar in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from json_leaves(value, path + (index,))
    else:
        yield path


def json_nodes(node, path=()):
    """Paths to every value below the root of a JSON document: each
    scalar, list and object."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield path + (key,)
        yield from json_nodes(value, path + (key,))


def set_leaf(doc, path, value) -> None:
    """Replace the value at ``path`` (keys and list indices) in ``doc``."""
    *blocks, name = path
    for key in blocks:
        doc = doc[key]
    doc[name] = value


# Scalars a JSON document can hold, plus short lists and small objects.
# Integers stay small because a leaf may be a sample or feature count the
# dataset allocates.
# Finite floats stay below 1e6: a spread near the float limit overflows
# numpy's arithmetic, which warns (an error under this suite's
# filterwarnings) before Dataset rejects the non-finite features.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=6),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.text(max_size=4),
    st.sampled_from(["blobs", "csv", "mlp", "linear", "nested", "rebased",
                     "last_member", "0.2", "2"]),
)
# Whole blocks draw their keys from names config blocks take, so that a
# drawn block is sometimes close to valid.  No file option is drawn: a
# config naming a file that is not there is a storage error by design.
JSON_BLOCKS = st.dictionaries(
    st.sampled_from(["kind", "num_classes", "per_class", "seed", "threshold", "epochs",
                     "num_members", "training_thresholds", "hidden_units", "consensus"]),
    JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3), max_size=4)
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3) | JSON_BLOCKS


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


@st.composite
def idx_file(draw, magic: int, dims: tuple[int, ...]):
    """(content, suffix) of a generated IDX file with this header, mostly
    well formed.  Otherwise its magic is wrong, its payload a byte off
    the size the header promises, its bytes cut short, or it is named
    ".gz" without being gzipped."""
    fault = draw(st.sampled_from([None, None, None, None, "magic", "size", "cut", "gzip"]))
    if fault == "magic":
        magic = draw(st.sampled_from([0x00000801, 0x00000803, 0xDEADBEEF]).filter(
            lambda other: other != magic))
    size = math.prod(dims) + (draw(st.sampled_from([-1, 1])) if fault == "size" else 0)
    content = struct.pack(f">{1 + len(dims)}I", magic, *dims)
    content += draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    if fault == "cut":
        content = content[: draw(st.integers(0, len(content) - 1))]
    suffix = ".gz" if fault == "gzip" else draw(st.sampled_from(["", ".gz"]))
    return (gzip.compress(content) if suffix and fault != "gzip" else content), suffix


@st.composite
def idx_files(draw):
    """Generated IDX image and label files, each as idx_file gives it:
    up to 4 images of up to 4 x 4 pixels, and mostly as many labels."""
    n, rows, cols = (draw(st.integers(0, 4)) for _ in range(3))
    labels = n if draw(st.integers(0, 3)) else draw(st.integers(0, 4))
    return (draw(idx_file(0x00000803, (n, rows, cols))),
            draw(idx_file(0x00000801, (labels,))))


def write_overflowing_idx_images(path):
    """A gzipped IDX image header of 2**16 images of 2**24 x 2**24 pixels,
    2**64 bytes in all, with no payload."""
    path.write_bytes(gzip.compress(struct.pack(">IIII", 0x00000803, 2**16, 2**24, 2**24)))


def write_bad_gzip_images(path, fault: str):
    """A three-image IDX file behind a damaged .gz: cut in half
    ("truncated"), with its deflate stream overwritten ("corrupt"), or not
    compressed at all ("not-gzip")."""
    payload = struct.pack(">IIII", 0x00000803, 3, 4, 4) + bytes(48)
    stream = gzip.compress(payload)
    damaged = {
        "truncated": stream[: len(stream) // 2],
        "corrupt": stream[:10] + b"\xff" * 8 + stream[18:],
        "not-gzip": payload,
    }
    path.write_bytes(damaged[fault])
