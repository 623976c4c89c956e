"""Confidence-gated sequential ensembles.

Train a chain of classifiers where each member specializes on the samples
its predecessor classified with low confidence, then answer queries by
cascading through the members until one is confident enough, with
consensus fallbacks and calibration/accuracy reporting.
"""

from .builder import (
    SELECTION_NESTED,
    SELECTION_REBASED,
    BuildConfig,
    BuildReport,
    EnsembleManifest,
    build_ensemble,
)
from .cascade import (
    CONSENSUS_LAST_MEMBER,
    CONSENSUS_MOST_CONFIDENT,
    CascadeTrace,
    EvaluationRecord,
    Prediction,
    RuntimeConfig,
    ScoreMemo,
    batch_evaluate,
    cascade_predict,
    member_prediction_arrays,
)
from .classifiers import (
    ClassifierRecipe,
    ClassifierSpec,
    TrainConfig,
    TrainedModel,
    fit,
    init_model,
    predict_logits_batch,
)
from .config import DatasetSource, ExperimentConfig, load_dataset, load_experiment_config
from .datasets import (
    Dataset,
    generate_blobs,
    load_csv,
    load_idx,
    save_csv,
)
from .errors import (
    ConfEnsembleError,
    ConfigError,
    DatasetParseError,
    DegenerateSubsetError,
    EmptyTrainingSetError,
    InvalidInputError,
    ManifestDigestError,
    ManifestVersionError,
    TrainingDivergedError,
)
from .metrics import (
    CalibrationReport,
    ScoreHistogram,
    expected_calibration_error,
    score_histogram,
)
from .persist import load_manifest, save_manifest, write_json

__version__ = "0.1.0"
