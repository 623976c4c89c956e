"""Confidence-gated sequential ensembles.

Train a chain of classifiers where each member specializes on the samples
its predecessor classified with low confidence, then answer queries by
cascading through the members until one is confident enough, with
consensus fallbacks and calibration/accuracy reporting.
"""

from .builder import (
    BuildConfig,
    BuildReport,
    build_ensemble,
    member_prediction_arrays,
)
from .cascade import (
    CONSENSUS_LAST_MEMBER,
    CONSENSUS_MOST_CONFIDENT,
    CascadeTrace,
    EvaluationRecord,
    Prediction,
    RuntimeConfig,
    batch_evaluate,
    cascade_predict,
)
from .classifiers import (
    ClassifierSpec,
    TrainConfig,
    TrainedModel,
    fit,
    init_model,
    predict_logits_batch,
)
from .config import (
    DEFAULT_RUNTIME_THRESHOLD_GRID,
    DEFAULT_TRAINING_THRESHOLD_GRID,
    DatasetSource,
    ExperimentConfig,
    load_dataset,
    load_experiment_config,
)
from .datasets import (
    Dataset,
    SubsetView,
    generate_blobs,
    load_csv,
    load_idx,
    materialize,
    save_csv,
)
from .errors import (
    ConfEnsembleError,
    ConfigError,
    DatasetParseError,
    DegenerateSubsetError,
    EmptyTrainingSetError,
    InvalidInputError,
    InvalidViewError,
    ManifestDigestError,
    ManifestVersionError,
)
from .manifest import SELECTION_NESTED, SELECTION_REBASED, EnsembleManifest
from .metrics import (
    CalibrationReport,
    ScoreHistogram,
    expected_calibration_error,
    score_histogram,
)
from .persist import load_manifest, save_manifest, write_json

__version__ = "0.1.0"
