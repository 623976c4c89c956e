"""Sequential ensemble construction.

Member 0 trains on the full dataset.  Each later member trains on the
samples its predecessor scored as uncertain (uncertainty strictly above
the level's training threshold).  Two ways to pick that pool:

  * nested  — filter the predecessor's own training pool, so pools can
              only shrink level over level;
  * rebased — filter the original full pool with the predecessor's
              scores, trading pool purity for pool size.

The two rules coincide at level 1.  Pools are int64 index arrays.  Each
member is scored once over the full dataset; the scores feed both its
report entry (accuracy, ECE, histograms) and the next pool.  Member 0's
entry is the single-model reference.  Builds are deterministic: member s
derives its init and shuffling seeds from the configured seeds plus s.
A BuildConfig names no dataset: each member's input dimension and class
count are the dataset's.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import RuntimeConfig, member_prediction_arrays
from .classifiers import (
    ClassifierSpec,
    TrainConfig,
    TrainedModel,
    check_architecture,
    fit,
    init_model,
)
from .datasets import Dataset, SubsetView, materialize
from .errors import DegenerateSubsetError, require_int, require_seed
from .manifest import SELECTION_NESTED, EnsembleManifest, check_schedule
from .metrics import (
    SCORE_KIND_TOP_PROBABILITY,
    SCORE_KIND_UNCERTAINTY,
    ScoreHistogram,
    expected_calibration_error,
    score_histogram,
)

DEFAULT_RUNTIME_THRESHOLD = 0.2


@dataclass(frozen=True)
class BuildConfig:
    """The build schedule and one classifier recipe; member k is a
    classifier_kind model seeded classifier_seed + k."""

    num_members: int
    training_thresholds: tuple[float, ...]
    classifier_kind: str
    train_config: TrainConfig
    hidden_units: int | None = None
    classifier_seed: int = 0
    selection_rule: str = SELECTION_NESTED

    def __post_init__(self):
        num_members = require_int("num_members", self.num_members)
        object.__setattr__(self, "num_members", num_members)
        thresholds = check_schedule(num_members, self.selection_rule, self.training_thresholds)
        object.__setattr__(self, "training_thresholds", thresholds)
        if self.hidden_units is not None:
            hidden = require_int("hidden_units", self.hidden_units)
            object.__setattr__(self, "hidden_units", hidden)
        seed = require_seed("classifier_seed", self.classifier_seed)
        object.__setattr__(self, "classifier_seed", seed)
        check_architecture(self.classifier_kind, self.hidden_units)


def _filter_pool(pool: SubsetView, unc: np.ndarray, threshold: float) -> SubsetView:
    """Keep the samples of ``pool`` the predecessor is uncertain about;
    ``unc`` holds its uncertainty for every row of the dataset.

    The selection rule is the choice of ``pool``: the previous level's
    pool for nested, the full pool for rebased.
    """
    # strict: boundary samples are not forwarded
    return SubsetView(pool.parent_id, pool.indices[unc[pool.indices] > threshold])


def indices_file_content(indices: np.ndarray) -> str:
    """Newline-delimited integers; also the payload behind index digests."""
    return "".join(f"{i}\n" for i in indices.tolist())


def _indices_digest(indices: np.ndarray) -> str:
    return hashlib.sha256(indices_file_content(indices).encode()).hexdigest()


@dataclass(frozen=True)
class MemberBuildRecord:
    level: int
    subset_size: int
    subset_indices: np.ndarray = field(compare=False)  # compared via index_digest
    index_digest: str
    train_seconds: float
    final_loss: float
    accuracy: float  # this and the rest: member's scores over the full dataset
    ece: float
    uncertainty_histogram: ScoreHistogram
    probability_histogram: ScoreHistogram

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "subset_size": self.subset_size,
            "index_digest": self.index_digest,
            "train_seconds": self.train_seconds,
            "final_loss": self.final_loss,
            "accuracy": self.accuracy,
            "ece": self.ece,
            "uncertainty_histogram": self.uncertainty_histogram.to_json_dict(),
            "probability_histogram": self.probability_histogram.to_json_dict(),
        }


@dataclass(frozen=True)
class BuildReport:
    selection_rule: str
    dataset_id: str
    dataset_digest: str
    members: tuple[MemberBuildRecord, ...]

    def subset_sizes(self) -> tuple[int, ...]:
        return tuple(m.subset_size for m in self.members)

    def to_json_dict(self) -> dict:
        return {
            "selection_rule": self.selection_rule,
            "dataset_id": self.dataset_id,
            "dataset_digest": self.dataset_digest,
            "subset_sizes": list(self.subset_sizes()),
            "members": [m.to_json_dict() for m in self.members],
        }


def member_report(
    level: int,
    pool: SubsetView,
    model: TrainedModel,
    scores: tuple[np.ndarray, np.ndarray, np.ndarray],
    labels: np.ndarray,
    train_seconds: float,
) -> MemberBuildRecord:
    """Build-report entry for one member from its full-dataset scores."""
    predicted, top, unc = scores
    correct = predicted == labels
    return MemberBuildRecord(
        level=level,
        subset_size=len(pool),
        subset_indices=pool.indices,
        index_digest=_indices_digest(pool.indices),
        train_seconds=train_seconds,
        final_loss=model.final_loss if model.final_loss is not None else float("nan"),
        accuracy=float(correct.mean()),
        ece=expected_calibration_error(top, correct).ece,
        uncertainty_histogram=score_histogram(unc, correct, kind=SCORE_KIND_UNCERTAINTY),
        probability_histogram=score_histogram(top, correct, kind=SCORE_KIND_TOP_PROBABILITY),
    )


def build_ensemble(
    data: Dataset,
    cfg: BuildConfig,
    default_runtime: RuntimeConfig | None = None,
) -> tuple[EnsembleManifest, BuildReport]:
    """Train the full member chain.

    Raises DegenerateSubsetError as soon as a selected pool falls below
    max(2 * num_classes, 10) samples, naming the level; nothing is
    silently truncated.  An empty dataset fails in member 0's fit.
    """
    min_size = max(2 * data.num_classes, 10)

    full_pool = data.all_indices()
    pool = full_pool
    members: list[TrainedModel] = []
    records: list[MemberBuildRecord] = []
    for level in range(cfg.num_members):
        if level > 0:
            source = pool if cfg.selection_rule == SELECTION_NESTED else full_pool
            pool = _filter_pool(source, scores[2], cfg.training_thresholds[level - 1])
            if len(pool) < min_size:
                raise DegenerateSubsetError(level=level, size=len(pool), minimum=min_size)
        spec = ClassifierSpec(cfg.classifier_kind, data.feature_dim, data.num_classes,
                              cfg.hidden_units, cfg.classifier_seed + level)
        member_train = replace(cfg.train_config, seed=cfg.train_config.seed + level)
        started = time.perf_counter()
        model = fit(init_model(spec), materialize(pool, data), member_train)
        elapsed = time.perf_counter() - started
        scores = member_prediction_arrays(model, data.features)
        members.append(model)
        records.append(member_report(level, pool, model, scores, data.labels, elapsed))

    runtime = default_runtime or RuntimeConfig.for_members((DEFAULT_RUNTIME_THRESHOLD,),
                                                           cfg.num_members)
    manifest = EnsembleManifest(
        members=tuple(members),
        selection_rule=cfg.selection_rule,
        training_thresholds=cfg.training_thresholds,
        default_runtime=runtime,
        dataset_id=data.id,
        dataset_digest=data.digest(),
    )
    report = BuildReport(
        selection_rule=cfg.selection_rule,
        dataset_id=data.id,
        dataset_digest=manifest.dataset_digest,
        members=tuple(records),
    )
    return manifest, report
