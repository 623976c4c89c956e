"""Cascaded inference over a trained ensemble.

A member's uncertainty about a sample is U = min(p, 1 - p) for its top
softmax probability p: the distance of p to the nearer end of [0, 1].
U lies in [0, 0.5].  U near 0 means p is close to 1, or, with many
classes, close to 0 (a nearly flat prediction).  U = 0.5 is maximally
unconfident only for two classes, where p >= 0.5 and U = 1 - p.  With
K > 2 classes a top probability below 0.5 scores U = p, so a flatter
prediction can score as more confident: (0.4, 0.35, 0.25) and
(0.6, 0.3, 0.1) both score 0.4.

A query walks the members in order.  Member k's prediction is accepted as
soon as its uncertainty is strictly below the level-k runtime threshold;
if no member is confident enough, a consensus heuristic picks among all
member predictions ("last_member" takes the final one, "most_confident"
the one with the lowest uncertainty, ties to the earliest member).

member_prediction_arrays is the one scoring kernel (softmax -> top class
-> min(p, 1 - p)) and _run_cascade the one decision function; each member
runs only on the rows still unresolved.  batch_evaluate keeps the columns
and their RuntimeConfig as an EvaluationRecord; cascade_predict is a
one-row call, its CascadeTrace the consulted members' predictions in
member order.  The record's to_json_dict() (the runtime's fields,
accuracy and utilization) is the evaluation summary; write_json and
write_csv format each value once per record and stream the per-sample
artifacts one CHUNK_ROWS chunk of rows at a time.

Thresholds, runtime and training alike, are finite numbers in U's range,
metrics.SCORE_RANGES; check_thresholds is the one place that checks it.
That a dataset fits the members is ClassifierSpec.check_data's rule,
which batch_evaluate runs before any forward pass.

Note the boundary asymmetry with training-pool selection: a sample whose
uncertainty equals the threshold exactly is not accepted here, and is
forwarded there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .classifiers import TrainedModel, predict_logits_batch, softmax_batch
from .datasets import CHUNK_ROWS, Dataset
from .errors import InvalidInputError, require_float
from .metrics import SCORE_KIND_UNCERTAINTY, SCORE_RANGES

if TYPE_CHECKING:
    from .builder import EnsembleManifest

CONSENSUS_LAST_MEMBER = "last_member"
CONSENSUS_MOST_CONFIDENT = "most_confident"
CONSENSUS_CHOICES = (CONSENSUS_LAST_MEMBER, CONSENSUS_MOST_CONFIDENT)


def check_thresholds(what: str, values) -> tuple[float, ...]:
    """values, a list, tuple or 1-d array, as a tuple of floats, each a
    finite number in U's range; ``what`` names one value in the error
    message."""
    lo, hi = SCORE_RANGES[SCORE_KIND_UNCERTAINTY]
    if not isinstance(values, (list, tuple)) and np.ndim(values) != 1:
        raise InvalidInputError(f"{what}s must be a list of numbers, got {values!r}")
    thresholds = tuple(require_float(what, t) for t in values)
    for t in thresholds:
        if not lo <= t <= hi:
            raise InvalidInputError(f"{what} {t} outside [{lo:g}, {hi:g}]")
    return thresholds


@dataclass(frozen=True)
class RuntimeConfig:
    """Per-level acceptance thresholds plus the fallback heuristic; the
    one place a runtime field, its default and its config key are written."""

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
    def for_members(cls, thresholds: Sequence[float], num_members: int,
                    **options) -> "RuntimeConfig":
        """The runtime of a num_members chain: one threshold for all, or one
        each; options are the other fields, by name."""
        rcfg = cls(thresholds, **options)
        if len(rcfg.thresholds) == 1:
            rcfg = replace(rcfg, thresholds=rcfg.thresholds * num_members)
        rcfg.validate_for(num_members)
        return rcfg

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
class Prediction:
    """One member's answer for one sample."""

    class_index: int
    top_probability: float
    uncertainty: float


@dataclass(frozen=True)
class CascadeTrace:
    """Every member consulted for one query: predictions[k] is member k's."""

    predictions: tuple[Prediction, ...]
    accepted_level: int | None  # None means the consensus heuristic decided


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
    predictions = tuple(
        Prediction(class_index=c, top_probability=p, uncertainty=u)
        for c, p, u in zip(classes[0].tolist(), top[0].tolist(), unc[0].tolist())
        if c >= 0
    )
    accepted_level = None if level[0] < 0 else int(level[0])
    return predictions[int(chosen[0])], CascadeTrace(predictions, accepted_level)


@dataclass(frozen=True, eq=False)
class EvaluationRecord:
    """Columnar cascade results over a dataset, one row per sample.

    ``classes``, ``top`` and ``unc`` are (n, L): each level's predicted
    class, top probability and uncertainty, with class -1 (and zeros) where
    the level was not consulted.  ``level`` is the (n,) answering level, -1
    where consensus decided; ``chosen`` is the (n,) level whose prediction
    the cascade returned, ``runtime`` what it ran with; the rest is derived.
    """

    runtime: RuntimeConfig
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
    def correct(self) -> np.ndarray:
        return self.chosen_class == self.labels

    @property
    def consulted(self) -> np.ndarray:
        """Members consulted per sample."""
        return np.where(self.level < 0, len(self.runtime.thresholds), self.level + 1)

    @property
    def level_counts(self) -> tuple[int, ...]:
        """Samples resolved at each level."""
        counts = np.bincount(self.level[self.level >= 0], minlength=len(self.runtime.thresholds))
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

    @cached_property
    def _unc_text(self) -> np.ndarray:
        """(n, L) object array: the repr of each consulted uncertainty, ""
        where the level was not consulted; both writers print these."""
        consulted = np.arange(self.unc.shape[1]) < self.consulted[:, None]
        text = np.full(self.unc.shape, "", dtype=object)
        text[consulted] = list(map(repr, self.unc[consulted].tolist()))
        return text

    def _write_rows(self, fh, templates: list[str], columns, separator: str) -> None:
        """One row per sample, streamed CHUNK_ROWS rows at a time: the
        template of the sample's answering level (templates[-1] for
        consensus) filled with the sample's value in each column."""
        by_level = np.array(templates, dtype=object)
        for start in range(0, self.num_samples, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            chunk = map(str.__mod__, by_level[self.level[rows]].tolist(),
                        zip(*(column[rows].tolist() for column in columns)))
            fh.write((separator if start else "") + separator.join(chunk))

    def to_json_dict(self) -> dict:
        """The summary of evaluation.json; write_json adds the samples."""
        return dict(vars(self.runtime), accuracy=self.accuracy,
                    utilization=self.utilization_summary())

    def write_json(self, path) -> None:
        """evaluation.json: the to_json_dict() summary plus a "samples" list,
        one object per sample, byte for byte what json.dump(indent=2,
        sort_keys=True) writes, newline-terminated.  A float is its repr,
        as json writes it, and every value is finite (softmax_batch rejects
        non-finite logits)."""
        num_levels = len(self.runtime.thresholds)
        templates = []  # one per answering level, consensus last
        for level in [*range(num_levels), -1]:
            consulted = num_levels if level < 0 else level + 1
            # "%.0s" takes the empty text of a level not consulted, unprinted.
            templates.append(
                "\n    {"
                f'\n      "answering_level": {"null" if level < 0 else level},'
                '\n      "chosen_class": %d,'
                '\n      "consulted_uncertainties": ['
                + ",".join(["\n        %s"] * consulted) + "%.0s" * (num_levels - consulted)
                + "\n      ],"
                '\n      "correct": %s,'
                '\n      "sample_index": %d,'
                '\n      "top_probability": %r,'
                '\n      "true_class": %d,'
                '\n      "uncertainty": %s'
                "\n    }"
            )
        correct = np.array(["false", "true"], dtype=object)[self.correct.astype(np.intp)]
        columns = (self.chosen_class, *self._unc_text.T, correct, np.arange(self.num_samples),
                   self.chosen_top, self.labels, self._chosen_column(self._unc_text))
        summary = json.dumps(dict(self.to_json_dict(), samples=[]), indent=2, sort_keys=True)
        head, tail = summary.split('"samples": []')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head + '"samples": [')
            self._write_rows(fh, templates, columns, ",")
            fh.write(("\n  ]" if self.num_samples else "]") + tail + "\n")

    def write_csv(self, path) -> None:
        """evaluation.csv: per sample its index, chosen class, true class,
        answering level ("consensus" where consensus decided) and the repr
        of the uncertainty at each consulted level, blank where a level was
        not consulted; \\r\\n row ends, as the csv module writes them."""
        num_levels = len(self.runtime.thresholds)
        templates = [",".join(["%d", "%d", "%d", level] + ["%s"] * num_levels) + "\r\n"
                     for level in [*map(str, range(num_levels)), "consensus"]]
        columns = (np.arange(self.num_samples), self.chosen_class, self.labels, *self._unc_text.T)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(["sample_index", "chosen_class", "true_class", "answering_level"]
                              + [f"u_level_{k}" for k in range(num_levels)]) + "\r\n")
            self._write_rows(fh, templates, columns, "")


def batch_evaluate(
    manifest: "EnsembleManifest",
    rcfg: RuntimeConfig,
    data: Dataset,
) -> EvaluationRecord:
    """Run the cascade over a whole dataset.

    Same kernel as cascade_predict, applied to every row at once; each
    member runs only on the samples still unresolved at its level.  A
    dataset that does not fit the members (ClassifierSpec.check_data)
    fails here, an empty one included; an empty one that fits gives an
    empty record.
    """
    manifest.members[0].spec.check_data(data)
    return EvaluationRecord(rcfg, data.labels,
                            *_run_cascade(manifest.members, rcfg, data.features))
