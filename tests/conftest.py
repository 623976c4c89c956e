"""Shared fixtures: stub members with controlled outputs, the
overlap-heavy blob dataset the end-to-end tests build on, generated
JSON values for the field-mutation properties, and a loader for the
scripts outside the package."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from conf_ensemble import (
    ClassifierSpec,
    EnsembleManifest,
    RuntimeConfig,
    TrainConfig,
    TrainedModel,
    fit,
    generate_blobs,
    init_model,
)

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SCRIPT = ROOT / "scripts" / "run_threshold_sweep.py"


def load_script(path: Path):
    """Import a file that is not on sys.path, as a fresh module named
    after the file."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# One blob recipe used across builder/cascade/acceptance tests; seeds are
# frozen so subset sizes recorded as regression values stay stable.
BLOBS = dict(num_classes=3, per_class=1000, dim=4, spread=1.0, overlap=0.55, seed=42)
MLP_SPEC = ClassifierSpec(kind="mlp", input_dim=4, num_classes=3, hidden_units=16, seed=1)
# The same classifier as BuildConfig fields; a build takes the shape from its data.
MLP_ARCH = dict(classifier_kind="mlp", hidden_units=16, classifier_seed=1)
TRAIN = TrainConfig(epochs=30, batch_size=64, learning_rate=0.05, weight_decay=1e-4, seed=9)


@pytest.fixture(scope="session")
def blobs3():
    return generate_blobs(**BLOBS)


@pytest.fixture(scope="session")
def trained_m0(blobs3):
    return fit(init_model(MLP_SPEC), blobs3, TRAIN)


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
        default_runtime=runtime or RuntimeConfig.homogeneous(0.2, len(members)),
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


def set_leaf(doc, path, value) -> None:
    """Replace the value at ``path`` (keys and list indices) in ``doc``."""
    *blocks, name = path
    for key in blocks:
        doc = doc[key]
    doc[name] = value


# Scalars a JSON document can hold, plus short lists.  Integers stay small
# because a leaf may be a sample or feature count the dataset allocates.
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
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)
