"""Exception hierarchy shared across the package, the process exit codes
its classes carry, and the number converters every numeric field goes
through:

  * require_int(name, value, minimum=None): a plain int, at least minimum
    when one is given; the one place an integer floor and its message,
    "<name> must be >= <minimum>, got <value>", are written;
  * require_float(name, value): a finite float.  Its callers check their
    own bounds, whose ends mix open and closed.

Each error class declares the exit code the CLI and the sweep script end
with when it escapes (cli.run_with_exit_codes), and a subclass inherits
its parent's.  The partition stays coarse: config, data, degenerate
build, storage, diverged fit; the base class itself exits 1.
"""

from __future__ import annotations

import math
import numbers
import operator

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4
EXIT_STORAGE = 5  # also any OSError
EXIT_DIVERGED = 6


class ConfEnsembleError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_UNEXPECTED


class InvalidInputError(ConfEnsembleError):
    """A value violates an operation's precondition (bad shape, range, NaN...)."""

    exit_code = EXIT_CONFIG


def require_int(name: str, value, minimum: int | None = None) -> int:
    """value as a plain int, at least minimum when one is given.  Anything
    with __index__ passes (numpy integers included); floats, strings and
    booleans are rejected rather than truncated or read as 0/1."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    result = operator.index(value)
    if minimum is not None and result < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {result}")
    return result


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

    exit_code = EXIT_CONFIG


class DatasetParseError(ConfEnsembleError):
    """A dataset file is malformed; message names the offending row/record."""

    exit_code = EXIT_DATA


class EmptyTrainingSetError(ConfEnsembleError):
    """Training was requested on an empty dataset."""

    exit_code = EXIT_DATA


class DegenerateSubsetError(ConfEnsembleError):
    """A selected training subset fell below the minimum viable size."""

    exit_code = EXIT_DEGENERATE

    def __init__(self, level: int, size: int, minimum: int):
        self.level = level
        self.size = size
        self.minimum = minimum
        super().__init__(
            f"training subset at level {level} has {size} samples, "
            f"below the minimum of {minimum}"
        )


class TrainingDivergedError(ConfEnsembleError):
    """A fit produced a non-finite loss or parameters, or ended with a
    loss above its loss at initialisation.  epoch counts from 1 (0: the
    initial loss); level is the member's, once the builder knows it."""

    exit_code = EXIT_DIVERGED

    def __init__(self, epoch: int, detail: str, level: int | None = None):
        self.epoch = epoch
        self.detail = detail
        self.level = level
        where = f"epoch {epoch}" if level is None else f"level {level}, epoch {epoch}"
        super().__init__(f"training diverged at {where}: {detail}")


class ManifestVersionError(ConfEnsembleError):
    """Stored ensemble uses an unsupported format version."""

    exit_code = EXIT_STORAGE


class ManifestDigestError(ConfEnsembleError):
    """Stored weights or manifest do not match their recorded digest."""

    exit_code = EXIT_STORAGE
