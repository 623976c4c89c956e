"""In-memory description of a trained ensemble, and check_schedule: the
one statement of the build-schedule rules (member count, selection rule,
a training threshold per later member), shared by BuildConfig, the config
parser and EnsembleManifest, so a stored manifest obeys them too."""

from __future__ import annotations

from dataclasses import dataclass

from .cascade import RuntimeConfig, check_thresholds
from .classifiers import TrainedModel
from .errors import InvalidInputError

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
        first = self.members[0].spec
        for member in self.members:
            if (member.spec.input_dim, member.spec.num_classes) != (
                first.input_dim,
                first.num_classes,
            ):
                raise InvalidInputError("all members must share input_dim and num_classes")

    @property
    def num_members(self) -> int:
        return len(self.members)
