"""Exception hierarchy shared across the package.

``VaderError`` is the common base; ``DataError`` groups everything the CLI
maps to exit code 2 (bad input data, violated invariants, unusable
configuration), as opposed to usage errors (exit 1).
"""


class VaderError(Exception):
    """Base class for all package-specific errors."""


class DataError(VaderError):
    """Invalid data or configuration supplied by the caller."""


# core data
class OutOfRangeCrossing(DataError):
    """A crossing time falls outside the signal duration."""


class DuplicateSampleIndex(DataError):
    """Two crossing times round to the same sample index."""


class ParseError(DataError):
    """A dataset file could not be parsed; carries file and line info."""

    def __init__(self, path, line, message):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class ValidationError(DataError):
    """A loaded passage or split plan violates a structural invariant."""


class UnknownId(DataError):
    """A passage id or fold index names nothing in the dataset or split plan."""


class SampleRateMismatch(DataError):
    """Passages disagree on their sample rate, with each other or with the
    rate a model was trained at."""


# splits
class EmptyDataset(DataError):
    """Split requested on a dataset with no passages."""


class SingleClassDataset(DataError):
    """Axle-count holdout split needs at least two distinct axle counts."""


class TieForModalCount(DataError):
    """Two or more axle counts share the maximum frequency; an explicit
    modal count must be supplied."""


# receptive-field planner
class Overflow(VaderError):
    """Receptive field size exceeds the representable integer range."""


class NonPositiveFrequency(DataError):
    """Frequencies must be strictly positive."""


# nn engine
class ShapeMismatch(VaderError):
    """Tensor shapes are incompatible with the requested operation, or a
    checkpoint describes a different network than it is loaded into."""


class MissingForwardCache(VaderError):
    """backward() called without a preceding forward() on the same graph."""


class NonFiniteInput(DataError):
    """A network input value is not finite in the network's dtype."""


class CheckpointError(DataError):
    """A checkpoint manifest is unreadable, incomplete or of an older format."""


# model builder
class InvalidHyperParams(DataError):
    """Hyperparameter combination excluded by the kernel/pool validity rule."""


# training
class EmptyFold(DataError):
    """A cross-validation fold supplies no training or validation passages."""


# metrics
class LengthMismatch(VaderError):
    """Label and velocity arrays differ in length."""


class EmptyPairs(VaderError):
    """Spatial error requested over an empty set of matched pairs."""


class NonPositiveInput(VaderError):
    """Harmonic mean requires strictly positive inputs."""


# synthetic generator
class InvalidConfig(DataError):
    """Bridge or train configuration violates its invariants."""
