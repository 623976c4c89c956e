"""Exception hierarchy shared across the package, and the number
converters (require_int, require_seed, require_float) every numeric field
goes through.

Error classes map onto CLI exit codes (see cli.py), so keep the
partition coarse: config, data, degenerate build, storage.
"""

from __future__ import annotations

import math
import numbers
import operator


class ConfEnsembleError(Exception):
    """Base class for all library errors."""


class InvalidInputError(ConfEnsembleError):
    """A value violates an operation's precondition (bad shape, range, NaN...)."""


def require_int(name: str, value) -> int:
    """value as a plain int.  Anything with __index__ passes (numpy integers
    included); floats, strings and booleans are rejected rather than
    truncated or read as 0/1."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def require_seed(name: str, value) -> int:
    """value as a random seed: a non-negative integer, the range
    np.random.default_rng accepts."""
    seed = require_int(name, value)
    if seed < 0:
        raise InvalidInputError(f"{name} must be >= 0, got {seed}")
    return seed


def require_float(name: str, value) -> float:
    """value as a finite float.  Any real number passes (ints and numpy
    numbers included); strings, booleans, NaN and +-inf are rejected rather
    than parsed or read as 0/1."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            result = float(value)
        except OverflowError:  # an integer beyond the float range
            result = math.inf
        if math.isfinite(result):
            return result
    raise InvalidInputError(f"{name} must be a finite number, got {value!r}")


class ConfigError(ConfEnsembleError):
    """Experiment configuration failed to parse or validate."""


class DatasetParseError(ConfEnsembleError):
    """A dataset file is malformed; message names the offending row/record."""


class InvalidViewError(ConfEnsembleError):
    """A subset view does not match the dataset it is applied to."""


class EmptyTrainingSetError(ConfEnsembleError):
    """Training was requested on an empty dataset."""


class DegenerateSubsetError(ConfEnsembleError):
    """A selected training subset fell below the minimum viable size."""

    def __init__(self, level: int, size: int, minimum: int):
        self.level = level
        self.size = size
        self.minimum = minimum
        super().__init__(
            f"training subset at level {level} has {size} samples, "
            f"below the minimum of {minimum}"
        )


class ManifestVersionError(ConfEnsembleError):
    """Stored ensemble uses an unsupported format version."""


class ManifestDigestError(ConfEnsembleError):
    """Stored weights or manifest do not match their recorded digest."""
