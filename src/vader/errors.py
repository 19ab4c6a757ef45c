"""Exception hierarchy shared across the package.

``VaderError`` is the common base. ``DataError`` is what an input boundary
refuses, one type per boundary; the CLI prints it as ``data error:`` and
exits with code 2:

* a dataset file that does not parse: ``ParseError``;
* a dataset, split plan or fold that cannot be used as given: ``ValidationError``;
* a passage id, sensor id or fold index that names nothing: ``UnknownId``;
* a sample rate other than the dataset's or the model's: ``SampleRateMismatch``;
* a configuration value out of range: ``InvalidConfig``, raised once, by the
  config object or function that owns the value;
* a checkpoint: ``CheckpointError``, or ``ShapeMismatch`` for another network;
* a network input: ``ShapeMismatch`` or ``NonFiniteInput``.

Library misuse, such as a second backward pass over one forward context or
label and velocity arrays of different lengths, raises ``ValueError``. The
CLI's parser checks only syntax; what it refuses is a usage error (exit
code 1).
"""

from contextlib import contextmanager


class VaderError(Exception):
    """Base class for all package-specific errors."""


@contextmanager
def naming(passage_id: str, sensor_id: str):
    """Prefix a VaderError raised inside with the passage and sensor it
    concerns, keeping its type."""
    try:
        yield
    except VaderError as exc:
        exc.args = (f"{passage_id}/{sensor_id}: {exc}",)
        raise


class DataError(VaderError):
    """Invalid data or configuration supplied by the caller."""


class ParseError(DataError):
    """A dataset file could not be parsed; the message names the file."""


class ValidationError(DataError):
    """A dataset, split plan or fold cannot be used as given: a passage breaks
    an invariant, a plan is malformed or repeats a passage, a dataset is empty
    or cannot be split as asked, or a fold supplies no passages."""


class UnknownId(DataError):
    """A passage id, sensor id or fold index names nothing in the dataset or
    split plan."""


class SampleRateMismatch(DataError):
    """Passages disagree on their sample rate, with each other or with the
    rate a model was trained at."""


class InvalidConfig(DataError):
    """A configuration value is out of range: a setting its config object
    refuses, a seed, or hyperparameters the kernel/pool validity rule excludes."""


class ShapeMismatch(DataError):
    """Tensor shapes are incompatible with the requested operation, or a
    checkpoint describes a different network than it is loaded into."""


class NonFiniteInput(DataError):
    """A network input value is not finite in the network's dtype."""


class CheckpointError(DataError):
    """A checkpoint manifest is unreadable, incomplete or of an older format."""

