"""The package's exceptions: one class per exit category.

Each class carries the category name and exit code that ``frustumbox``
reports for it (``error category=<category>: <message>`` on stderr). An
``OSError`` is reported as ``io`` (7) and anything else as ``internal`` (1).
"""

from __future__ import annotations


class ConfigError(Exception):
    """The run's configuration or command line asks for something invalid."""

    category, code = "config", 2


class KittiFormatError(Exception):
    """A dataset file does not follow its format."""

    category, code = "format", 3


class DataError(Exception):
    """Well-formed inputs that cannot be used together or hold nothing to use."""

    category, code = "data", 4


class CheckpointError(Exception):
    """A checkpoint file is malformed or does not fit the model or the run."""

    category, code = "checkpoint", 5


class NumericError(Exception):
    """A computation met a shape it cannot take or produced a non-finite value."""

    category, code = "numeric", 6


CATEGORIES = (ConfigError, KittiFormatError, DataError, CheckpointError, NumericError)
