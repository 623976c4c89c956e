"""Cascaded inference over a trained ensemble.

A query walks the members in order.  Member k's prediction is accepted as
soon as its uncertainty is strictly below the level-k runtime threshold;
if no member is confident enough, a consensus heuristic picks among all
member predictions ("last_member" takes the final one, "most_confident"
the one with the lowest uncertainty, ties to the earliest member).

member_prediction_arrays is the one scoring kernel (softmax -> top class
-> min(p, 1 - p)) and _run_cascade the one decision function; each member
runs only on the rows still unresolved.  batch_evaluate keeps the columns
as an EvaluationRecord, cascade_predict is a one-row call of the kernel.

Thresholds, runtime and training alike, are finite numbers in U's range
[0, 0.5]; check_thresholds is the one place that rule is written.

Note the boundary asymmetry with training-pool selection: a sample whose
uncertainty equals the threshold exactly is not accepted here, and is
forwarded there.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .classifiers import TrainedModel, predict_logits_batch
from .datasets import Dataset
from .errors import InvalidInputError, require_float
from .numerics import Prediction, softmax_batch

if TYPE_CHECKING:
    from .manifest import EnsembleManifest

CONSENSUS_LAST_MEMBER = "last_member"
CONSENSUS_MOST_CONFIDENT = "most_confident"
CONSENSUS_CHOICES = (CONSENSUS_LAST_MEMBER, CONSENSUS_MOST_CONFIDENT)


def check_thresholds(what: str, values) -> tuple[float, ...]:
    """values as a tuple of floats, each a finite number in U's range
    [0, 0.5]; ``what`` names one value in the error message."""
    thresholds = tuple(require_float(what, t) for t in values)
    for t in thresholds:
        if not 0.0 <= t <= 0.5:
            raise InvalidInputError(f"{what} {t} outside [0, 0.5]")
    return thresholds


@dataclass(frozen=True)
class RuntimeConfig:
    """Per-level acceptance thresholds plus the fallback heuristic."""

    thresholds: tuple[float, ...]
    consensus: str = CONSENSUS_MOST_CONFIDENT

    def __post_init__(self):
        thresholds = check_thresholds("runtime threshold", self.thresholds)
        if not thresholds:
            raise InvalidInputError("runtime thresholds must be non-empty")
        object.__setattr__(self, "thresholds", thresholds)
        if self.consensus not in CONSENSUS_CHOICES:
            raise InvalidInputError(
                f"unknown consensus {self.consensus!r}, expected one of {CONSENSUS_CHOICES}"
            )

    @classmethod
    def homogeneous(cls, threshold: float, num_members: int,
                    consensus: str = CONSENSUS_MOST_CONFIDENT) -> "RuntimeConfig":
        return cls(thresholds=(threshold,) * num_members, consensus=consensus)

    def validate_for(self, num_members: int) -> None:
        if len(self.thresholds) != num_members:
            raise InvalidInputError(
                f"{len(self.thresholds)} runtime thresholds for {num_members} members"
            )


def member_prediction_arrays(
    member: TrainedModel, features
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(predicted class, top probability, uncertainty) per feature row."""
    probs = softmax_batch(predict_logits_batch(member, features))
    cls = probs.argmax(axis=1)
    top = probs[np.arange(probs.shape[0]), cls]
    return cls, top, np.minimum(top, 1.0 - top)


def _run_cascade(
    members: Sequence[TrainedModel], rcfg: RuntimeConfig, features: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The decision rule over an (n, input_dim) feature matrix.

    Returns the (n, L) per-level class, top probability and uncertainty
    (class -1 where a level was not consulted), the (n,) answering level
    (-1 where consensus decided) and the (n,) level whose prediction was
    chosen.
    """
    rcfg.validate_for(len(members))
    n, num_levels = features.shape[0], len(members)
    classes = np.full((n, num_levels), -1, dtype=np.int64)
    top = np.zeros((n, num_levels))
    unc = np.zeros((n, num_levels))
    level = np.full(n, -1, dtype=np.int64)

    active = np.arange(n)
    for k, member in enumerate(members):
        if active.size == 0:
            break
        k_cls, k_top, k_unc = member_prediction_arrays(member, features[active])
        classes[active, k] = k_cls
        top[active, k] = k_top
        unc[active, k] = k_unc
        accepted = k_unc < rcfg.thresholds[k]
        level[active[accepted]] = k
        active = active[~accepted]

    # Rows still active were rejected at every level, so all are consulted.
    chosen = level.copy()
    if rcfg.consensus == CONSENSUS_LAST_MEMBER:
        chosen[active] = num_levels - 1
    else:
        chosen[active] = unc[active].argmin(axis=1)  # first minimum: earliest member
    return classes, top, unc, level, chosen


@dataclass(frozen=True)
class CascadeStep:
    member_index: int
    prediction: Prediction
    accepted: bool


@dataclass(frozen=True)
class CascadeTrace:
    """Record of every member consulted for one query, in order."""

    steps: tuple[CascadeStep, ...]
    accepted_level: int | None  # None means the consensus heuristic decided
    chosen: Prediction

    @property
    def consensus_used(self) -> bool:
        return self.accepted_level is None


def cascade_predict(
    manifest: "EnsembleManifest",
    rcfg: RuntimeConfig,
    features,
) -> tuple[Prediction, CascadeTrace]:
    """Classify one sample, stopping at the first confident member."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError(f"features must be a 1-d vector, got shape {x.shape}")
    classes, top, unc, level, chosen = _run_cascade(manifest.members, rcfg, x[None, :])
    predictions = [
        Prediction(class_index=c, top_probability=p, uncertainty=u)
        for c, p, u in zip(classes[0].tolist(), top[0].tolist(), unc[0].tolist())
        if c >= 0
    ]
    accepted = int(level[0])
    steps = tuple(CascadeStep(k, p, k == accepted) for k, p in enumerate(predictions))
    pick = predictions[int(chosen[0])]
    return pick, CascadeTrace(steps, None if accepted < 0 else accepted, pick)


_SAMPLE_FIELDS = (
    "sample_index",
    "chosen_class",
    "true_class",
    "answering_level",
    "top_probability",
    "uncertainty",
    "consulted_uncertainties",
    "correct",
)


@dataclass(frozen=True, eq=False)
class EvaluationRecord:
    """Columnar cascade results over a dataset, one row per sample.

    ``classes``, ``top`` and ``unc`` are (n, L): each level's predicted
    class, top probability and uncertainty, with class -1 (and zeros)
    where the level was not consulted.  ``level`` is the (n,) answering
    level, -1 where consensus decided; ``chosen`` is the (n,) level whose
    prediction the cascade returned.  Everything else is derived.
    """

    consensus: str
    thresholds: tuple[float, ...]
    labels: np.ndarray
    classes: np.ndarray
    top: np.ndarray
    unc: np.ndarray
    level: np.ndarray
    chosen: np.ndarray

    def _chosen_column(self, values: np.ndarray) -> np.ndarray:
        return values[np.arange(self.num_samples), self.chosen]

    @property
    def num_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def chosen_class(self) -> np.ndarray:
        return self._chosen_column(self.classes)

    @property
    def chosen_top(self) -> np.ndarray:
        return self._chosen_column(self.top)

    @property
    def chosen_uncertainty(self) -> np.ndarray:
        return self._chosen_column(self.unc)

    @property
    def correct(self) -> np.ndarray:
        return self.chosen_class == self.labels

    @property
    def consulted(self) -> np.ndarray:
        """Members consulted per sample."""
        return np.where(self.level < 0, len(self.thresholds), self.level + 1)

    @property
    def level_counts(self) -> tuple[int, ...]:
        """Samples resolved at each level."""
        counts = np.bincount(self.level[self.level >= 0], minlength=len(self.thresholds))
        return tuple(counts.tolist())

    @property
    def consensus_count(self) -> int:
        return int((self.level < 0).sum())

    @property
    def accuracy(self) -> float:
        n = self.num_samples
        return int(self.correct.sum()) / n if n else 0.0

    @property
    def level_fractions(self) -> tuple[float, ...]:
        n = max(self.num_samples, 1)
        return tuple(c / n for c in self.level_counts)

    @property
    def consensus_fraction(self) -> float:
        return self.consensus_count / max(self.num_samples, 1)

    def utilization_summary(self) -> dict:
        return {
            "num_samples": self.num_samples,
            "level_counts": list(self.level_counts),
            "level_fractions": list(self.level_fractions),
            "consensus_count": self.consensus_count,
            "consensus_fraction": self.consensus_fraction,
        }

    def _sample_rows(self):
        """Per-sample values as Python scalars, in _SAMPLE_FIELDS order."""
        unc_rows = self.unc.tolist()
        return zip(
            range(self.num_samples),
            self.chosen_class.tolist(),
            self.labels.tolist(),
            [None if k < 0 else k for k in self.level.tolist()],
            self.chosen_top.tolist(),
            self.chosen_uncertainty.tolist(),
            [us[:c] for us, c in zip(unc_rows, self.consulted.tolist())],
            self.correct.tolist(),
        )

    def to_json_dict(self) -> dict:
        return {
            "consensus": self.consensus,
            "thresholds": list(self.thresholds),
            "accuracy": self.accuracy,
            "utilization": self.utilization_summary(),
            "samples": [dict(zip(_SAMPLE_FIELDS, row)) for row in self._sample_rows()],
        }

    def write_csv(self, path) -> None:
        """Per-sample CSV: index, chosen class, true class, answering level,
        uncertainty at each consulted level (blank when not consulted)."""
        num_levels = len(self.thresholds)
        with open(Path(path), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["sample_index", "chosen_class", "true_class", "answering_level"]
                + [f"u_level_{k}" for k in range(num_levels)]
            )
            writer.writerows(
                [i, cls, label, "consensus" if level is None else level]
                + [repr(u) for u in us]
                + [""] * (num_levels - len(us))
                for i, cls, label, level, _, _, us, _ in self._sample_rows()
            )


def batch_evaluate(
    manifest: "EnsembleManifest",
    rcfg: RuntimeConfig,
    data: Dataset,
) -> EvaluationRecord:
    """Run the cascade over a whole dataset.

    Same kernel as cascade_predict, applied to every row at once; each
    member runs only on the samples still unresolved at its level.  A
    dataset of the wrong width fails in the first member's forward pass;
    an empty one reaches no forward pass and gives an empty record.
    """
    spec0 = manifest.members[0].spec
    if data.num_classes != spec0.num_classes:
        raise InvalidInputError(
            f"dataset num_classes {data.num_classes} != ensemble num_classes {spec0.num_classes}"
        )
    classes, top, unc, level, chosen = _run_cascade(manifest.members, rcfg, data.features)
    return EvaluationRecord(
        consensus=rcfg.consensus,
        thresholds=rcfg.thresholds,
        labels=data.labels,
        classes=classes,
        top=top,
        unc=unc,
        level=level,
        chosen=chosen,
    )
