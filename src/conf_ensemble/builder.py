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
A BuildConfig nests as a config's build block does (the schedule, a
ClassifierRecipe and a TrainConfig), so each of its fields is a config
key, and it names no dataset: each member's input dimension and class
count are the dataset's.

check_schedule states the build-schedule rules (member count, selection
rule, a training threshold per later member) once, for both BuildConfig
and EnsembleManifest, the built chain, so a stored manifest obeys them too.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cascade import RuntimeConfig, check_thresholds, member_prediction_arrays
from .classifiers import (
    ClassifierRecipe,
    ClassifierSpec,
    TrainConfig,
    TrainedModel,
    fit,
    init_model,
    training_fingerprint,
)
from .datasets import Dataset, materialize
from .errors import (
    DegenerateSubsetError,
    InvalidInputError,
    TrainingDivergedError,
    require_int,
)
from .metrics import (
    SCORE_KIND_TOP_PROBABILITY,
    SCORE_KIND_UNCERTAINTY,
    ScoreHistogram,
    expected_calibration_error,
    score_histogram,
)

# Every member's stored runtime threshold when a build is given no runtime.
UNSET_RUNTIME_THRESHOLD = 0.2

SELECTION_NESTED = "nested"
SELECTION_REBASED = "rebased"
SELECTION_RULES = (SELECTION_NESTED, SELECTION_REBASED)


def check_schedule(
    num_members: int, selection_rule: str, training_thresholds
) -> tuple[float, ...]:
    """The build schedule's rules: at least one member, a known selection
    rule, and one training threshold (see check_thresholds) per level >= 1.
    Returns the thresholds as floats."""
    if num_members < 1:
        raise InvalidInputError(f"num_members must be >= 1, got {num_members}")
    if selection_rule not in SELECTION_RULES:
        raise InvalidInputError(f"unknown selection rule {selection_rule!r}")
    thresholds = check_thresholds("training threshold", training_thresholds)
    if len(thresholds) != num_members - 1:
        raise InvalidInputError(
            f"{len(thresholds)} training thresholds for {num_members} members; "
            f"need one per level >= 1"
        )
    return thresholds


@dataclass(frozen=True, eq=False)
class EnsembleManifest:
    """Ordered members plus the schedules and provenance needed to rerun
    or audit them.  Member position in the tuple is its cascade level."""

    members: tuple[TrainedModel, ...]
    selection_rule: str
    training_thresholds: tuple[float, ...]
    default_runtime: RuntimeConfig
    dataset_id: str
    dataset_digest: str

    def __post_init__(self):
        object.__setattr__(
            self,
            "training_thresholds",
            check_schedule(len(self.members), self.selection_rule, self.training_thresholds),
        )
        self.default_runtime.validate_for(len(self.members))
        for name in ("dataset_id", "dataset_digest"):
            if not isinstance(getattr(self, name), str):
                raise InvalidInputError(f"{name} must be a string, got {getattr(self, name)!r}")
        shapes = {(m.spec.input_dim, m.spec.num_classes) for m in self.members}
        if len(shapes) > 1:
            raise InvalidInputError("all members must share input_dim and num_classes")

    @property
    def num_members(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class BuildConfig:
    """The build schedule, one classifier recipe and one trainer, nested
    as a config's build block nests them: member k is a classifier.kind
    model seeded classifier.seed + k, trained under training with its
    seed + k."""

    num_members: int
    training_thresholds: tuple[float, ...]
    classifier: ClassifierRecipe
    training: TrainConfig = TrainConfig()
    selection_rule: str = SELECTION_NESTED

    def __post_init__(self):
        num_members = require_int("num_members", self.num_members)
        object.__setattr__(self, "num_members", num_members)
        thresholds = check_schedule(num_members, self.selection_rule, self.training_thresholds)
        object.__setattr__(self, "training_thresholds", thresholds)


def _filter_pool(pool: np.ndarray, unc: np.ndarray, threshold: float) -> np.ndarray:
    """Keep the samples of ``pool`` the predecessor is uncertain about;
    ``unc`` holds its uncertainty for every row of the dataset.

    The selection rule is the choice of ``pool``: the previous level's
    pool for nested, the full pool for rebased.
    """
    # strict: boundary samples are not forwarded
    return pool[unc[pool] > threshold]


def indices_file_content(indices: np.ndarray) -> str:
    """Newline-delimited integers; also the payload behind index digests."""
    return "".join(f"{i}\n" for i in indices.tolist())


def _indices_digest(indices: np.ndarray) -> str:
    return hashlib.sha256(indices_file_content(indices).encode()).hexdigest()


@dataclass(frozen=True)
class MemberBuildRecord:
    level: int
    subset_size: int
    # Compared via index_digest and written to subsets/, not to the report.
    subset_indices: np.ndarray = field(compare=False)
    index_digest: str
    train_seconds: float
    final_loss: float
    loss_history: tuple[float, ...]  # the fit's loss after each epoch
    accuracy: float  # this and the rest: member's scores over the full dataset
    ece: float
    uncertainty_histogram: ScoreHistogram
    probability_histogram: ScoreHistogram


@dataclass(frozen=True)
class BuildReport:
    selection_rule: str
    dataset_id: str
    dataset_digest: str
    members: tuple[MemberBuildRecord, ...]

    def subset_sizes(self) -> tuple[int, ...]:
        return tuple(m.subset_size for m in self.members)

    def to_json_dict(self) -> dict:
        """build_report.json: the report's fields plus subset_sizes."""
        return dict(vars(self), subset_sizes=self.subset_sizes())


def member_report(
    level: int,
    pool: np.ndarray,
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
        subset_indices=pool,
        index_digest=_indices_digest(pool),
        train_seconds=train_seconds,
        final_loss=model.final_loss,
        loss_history=model.loss_history,
        accuracy=float(correct.mean()),
        ece=expected_calibration_error(top, correct).ece,
        uncertainty_histogram=score_histogram(unc, correct, kind=SCORE_KIND_UNCERTAINTY),
        probability_histogram=score_histogram(top, correct, kind=SCORE_KIND_TOP_PROBABILITY),
    )


def build_ensemble(
    data: Dataset,
    cfg: BuildConfig,
    default_runtime: RuntimeConfig | None = None,
    trained: dict[str, TrainedModel] | None = None,
) -> tuple[EnsembleManifest, BuildReport]:
    """Train the full member chain.

    ``trained`` is a member cache, keyed by training fingerprint: a
    member whose fingerprint is in it is reused instead of fitted again,
    and each member fitted is added to it.  Builds that share one (the
    threshold sweep's) train each distinct member once; without one, a
    build uses its own.  A member's train_seconds covers its lookup and
    any fit.

    Raises DegenerateSubsetError as soon as a selected pool falls below
    max(2 * num_classes, 10) samples, naming the level; nothing is
    silently truncated.  An empty dataset fails in member 0's fit, and a
    diverged fit raises TrainingDivergedError naming the level and epoch.
    """
    min_size = max(2 * data.num_classes, 10)
    trained = {} if trained is None else trained

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
        spec = ClassifierSpec(cfg.classifier.kind, data.feature_dim, data.num_classes,
                              cfg.classifier.hidden_units, cfg.classifier.seed + level)
        member_train = replace(cfg.training, seed=cfg.training.seed + level)
        started = time.perf_counter()
        pool_data = materialize(pool, data)
        # The spec seeds the init; an init taken from elsewhere (say, the
        # predecessor's parameters) must be hashed into the key too.
        key = training_fingerprint(pool_data, member_train, spec)
        model = trained.get(key)
        if model is None:
            try:
                model = fit(init_model(spec), pool_data, member_train)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(exc.epoch, exc.detail, level) from None
            trained[key] = model
        elapsed = time.perf_counter() - started
        scores = member_prediction_arrays(model, data.features)
        members.append(model)
        records.append(member_report(level, pool, model, scores, data.labels, elapsed))

    runtime = default_runtime or RuntimeConfig.for_members((UNSET_RUNTIME_THRESHOLD,),
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
